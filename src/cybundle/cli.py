"""Command-line front end.

Commands: verify-paper, check <file>, search <config> [--jobs N] [--out PATH]
[--limit K].  Exit codes: 0 success, 1 verification failure, 2 input error,
141 stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import fixtures, jsonio
from .bundles import PullbackBundle, SpectralBundle
from .search import Polarization, SearchConfig, check_model, run_search
from .search import _int, _nonnegative_int, _refuse_unusable_H, _refuse_wrong_kind, _require, _surface

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_PIPE = 141


def _show(value) -> str:
    """Rationals as exact p/q, element by element inside tuples."""
    if isinstance(value, tuple):
        inner = ", ".join(_show(v) for v in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return jsonio.frac_to_str(value)
    return repr(value)


def cmd_verify_paper(_args) -> int:
    results = fixtures.run_all()
    hard_fail = False
    for fx in results:
        status = "ok" if fx.ok else "FAIL"
        print(f"[{status}] {fx.id}: {fx.description}")
        for check in fx.checks:
            if not check.hard:
                print(f"    (info) {check.quantity}: {check.got}")
                continue
            mark = "ok" if check.ok else "MISMATCH"
            line = f"    [{check.tag}] {check.quantity}: computed {_show(check.got)}"
            if not check.ok:
                line += f", expected {_show(check.expected)}"
                hard_fail = True
            print(f"{line}  {mark}")
    total = sum(len(f.checks) for f in results)
    print(f"{len(results)} fixtures, {total} checks, " + ("FAILURES" if hard_fail else "all hard checks passed"))
    return EXIT_FAIL if hard_fail else EXIT_OK


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, UnicodeDecodeError and an integer
    # literal past the interpreter's digit limit; RecursionError, deep nesting
    except (OSError, ValueError, RecursionError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _parse_model(obj):
    if not isinstance(obj, dict):
        raise ValueError("model file must be a JSON object")
    for key in ("base", "bundle"):
        if key not in obj:
            raise ValueError(f"model file missing field '{key}'")
    surface = _surface(obj["base"])
    spec = obj["bundle"]
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValueError("field 'bundle' must be an object with a 'type' field")
    if "n" not in spec:
        raise ValueError("bundle missing field 'n'")
    n = _int(spec["n"], "n")
    twist = jsonio.divisor_x_from_json(spec.get("twist"), surface)
    if spec["type"] == "pullback":
        if "c2E" not in spec:
            raise ValueError("pullback bundle missing field 'c2E'")
        bundle = PullbackBundle(n=n, c2E=_int(spec["c2E"], "c2E"), twist=twist)
    elif spec["type"] == "spectral":
        for key in ("eta", "lambda"):
            if key not in spec:
                raise ValueError(f"spectral bundle missing field '{key}'")
        bundle = SpectralBundle(
            n=n,
            eta=jsonio.divisor_from_json(spec["eta"], surface, "eta"),
            lam=jsonio.frac_field(spec["lambda"], "lambda"),
            twist=twist,
        )
    else:
        raise ValueError(f"field 'type' must be 'pullback' or 'spectral', got {spec['type']!r}")
    pol_obj = obj.get("polarization", {})
    if not isinstance(pol_obj, dict):
        raise ValueError(f"field 'polarization' must be an object, got {pol_obj!r}")
    pol = Polarization(
        H=jsonio.divisor_from_json(pol_obj["H"], surface, "H") if "H" in pol_obj else None,
        h=jsonio.frac_field(pol_obj["h"], "h") if "h" in pol_obj else None,
    )
    # the rules of a search config, so that the two commands agree
    _refuse_wrong_kind(surface, spec["type"], pol)
    if pol.H is not None:
        _refuse_unusable_H(surface, spec["type"], pol.H, "field 'H'")
    return surface, bundle, pol, _require(obj.get("require"))


def cmd_check(args) -> int:
    obj = _load_json(args.path)
    try:
        surface, bundle, pol, require = _parse_model(obj)
        record = check_model(surface, bundle, pol, require=require, short_circuit=False)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(record.to_json(), indent=2))
    return EXIT_OK if record.overall else EXIT_FAIL


def cmd_search(args) -> int:
    obj = _load_json(args.config)
    try:
        config = SearchConfig.from_json(obj)
        if args.limit is not None:
            config.limit = _nonnegative_int(args.limit, "limit")
        if args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
        try:
            out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc}") from None
        with nullcontext() if args.out is None else out:
            summary = run_search(config, jobs=args.jobs, out=out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(summary), file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cybundle",
        description="Exact anomaly/stability toolkit for bundle extensions on elliptic Calabi-Yau threefolds",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("verify-paper", help="run the built-in example verification suite")
    p.set_defaults(func=cmd_verify_paper)
    p = sub.add_parser("check", help="verify a single model file")
    p.add_argument("path")
    p.set_defaults(func=cmd_check)
    p = sub.add_parser("search", help="scan a parameter box from a config file")
    p.add_argument("config")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="accepted for old scripts and has no effect: every box runs in this process",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:  # `cybundle search CONFIG | head`: the last flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
