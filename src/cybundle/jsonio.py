"""JSON (de)serialization. Rationals travel as exact "p/q" strings."""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from functools import lru_cache

from .ring import DivisorX
from .surfaces import BaseSurface, DivisorClass
from .windows import StabilityWindow


def frac_to_str(f) -> str:
    if type(f) is int:
        return str(f)
    f = Fraction(f)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def frac_from_str(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    return Fraction(str(s))


# the most digits a numerator, denominator or integer of any input field may
# have; a decimal exponent past it is refused before Fraction builds the
# number ("1e999999999" would never finish).  Products of capped inputs can
# still pass the interpreter's limit on the digits of an int it prints: the
# pullback chi (terms n^4 x^3 and n^4 alpha^2) and the spectral af (lambda^2
# n eta^2) do, and `refuse_unprintable` refuses them
MAX_DIGITS = 1000
_DIGITS_BOUND = 10**MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*$", re.IGNORECASE)


def _exponent_too_large(text: str) -> bool:
    match = _EXPONENT.search(text)
    try:
        return match is not None and abs(int(match.group(1))) > MAX_DIGITS
    except ValueError:  # more digits than int() reads: far past the cap
        return True


def refuse_too_many_digits(*ints: int, name: str) -> None:
    """Refuse input field `name` if one of `ints` has more than MAX_DIGITS digits."""
    if any(abs(i) >= _DIGITS_BOUND for i in ints):
        raise ValueError(f"field '{name}' has more than {MAX_DIGITS} digits")


@lru_cache(maxsize=None)
def _power_of_ten(digits: int) -> int:
    return 10**digits


def refuse_unprintable(what: str, fields: str, *values) -> None:
    """Refuse the derived value `what`, worked out from the input `fields`,
    if one of `values` (ints or Fractions) has a numerator or denominator
    with more digits than the interpreter's limit lets str() print."""
    limit = sys.get_int_max_str_digits()
    if limit:
        bound = _power_of_ten(limit)
        if any(abs(v.numerator) >= bound or v.denominator >= bound for v in values):
            raise ValueError(f"derived value {what} has more than {limit} digits; lower field {fields}")


def frac_field(value, name: str) -> Fraction:
    """A rational field of a model file or config: a number or a "p/q" string."""
    message = f"field '{name}' must hold rationals, got {value!r}"
    if value is None or isinstance(value, bool):
        raise ValueError(message)
    if isinstance(value, str) and _exponent_too_large(value):
        raise ValueError(
            f"field '{name}' has a decimal exponent beyond {MAX_DIGITS} in absolute value"
        )
    try:
        f = frac_from_str(value)
    except (ValueError, ZeroDivisionError):
        raise ValueError(message) from None
    refuse_too_many_digits(f.numerator, f.denominator, name=name)
    return f


def divisor_to_json(d: DivisorClass) -> dict:
    return {"coeffs": [frac_to_str(c) for c in d.coeffs], "torsion": d.torsion}


def divisor_from_json(obj, surface: BaseSurface, name: str | None = None) -> DivisorClass:
    """The class `obj` on `surface`; an error names its field `name`, if given."""
    try:
        if not isinstance(obj, dict) or not isinstance(obj.get("coeffs"), list):
            raise ValueError("divisor class must be an object with a 'coeffs' list")
        torsion = obj.get("torsion", 0)
        # refuses bool and float too: int() would read true as 1 and 1.5 as 1
        if type(torsion) is not int or torsion not in (0, 1):
            raise ValueError(f"field 'torsion' must be 0 or 1, got {torsion!r}")
        if torsion and not surface.is_enriques:
            raise ValueError(f"field 'torsion' must be 0: base {surface.kind} has no 2-torsion")
        d = DivisorClass(tuple(frac_field(c, "coeffs") for c in obj["coeffs"]), torsion)
        if d.rank != surface.rank:
            raise ValueError(
                f"field 'coeffs' has {d.rank} entries but base {surface.kind} has rank {surface.rank}"
            )
    except ValueError as exc:
        raise ValueError(f"field '{name}': {exc}" if name else str(exc)) from None
    return d


def divisor_x_from_json(obj, surface: BaseSurface) -> DivisorX:
    """The twist `obj`; an error in its class names the field 'alpha'."""
    if not isinstance(obj, dict) or "x" not in obj or "alpha" not in obj:
        raise ValueError("twist must be an object with 'x' and 'alpha' fields")
    return DivisorX(frac_field(obj["x"], "x"), divisor_from_json(obj["alpha"], surface, "alpha"))


def window_to_json(w: StabilityWindow) -> dict:
    out = {
        "variable": w.variable,
        "lower": None if w.lower is None else frac_to_str(w.lower),
        "upper": None if w.upper is None else frac_to_str(w.upper),
        "nonempty": w.nonempty,
        "binding": list(w.binding),
    }
    if w.z_interval_approx is not None:
        out["z_interval_approx"] = [round(v, 12) for v in w.z_interval_approx]
    return out
