"""Input fuzzing: any JSON value in any one field of an input file.

`cli.main` runs in-process on a model file or a search config in which one
field at a time, each field in turn, is replaced by a generated JSON value.  Every run must end
in exit 0 or 1, or in exit 2 with an `error:` line on stderr; none may end
in a traceback.  Model-file fields take any JSON value.  Search-config
fields take values whose integers have at most 2 digits, so that no
accepted box is large.
"""

import contextlib
import copy
import io
import json
import os
import tempfile

import pytest

from cybundle import cli

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SO10_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "pullback",
        "n": 3,
        "c2E": 104,
        "twist": {"x": "1", "alpha": {"coeffs": ["-1", "-1"]}},
    },
    "polarization": {"h": "1"},
    "require": "W_zero",
}

SPECTRAL_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "spectral",
        "n": 2,
        "eta": {"coeffs": ["24", "24"], "torsion": 0},
        "lambda": "3/2",
        "twist": {"x": "0", "alpha": {"coeffs": ["1", "-11"], "torsion": 0}},
    },
    "polarization": {"H": {"coeffs": ["3", "34"]}},
}

E6_CONFIG = {
    "base": "F0",
    "mode": "pullback",
    "n_range": [2, 2],
    "x_values": [2],
    "alpha_box": [[0, 0], [0, 0]],
    "c2E_range": [92, 92],
    "h_values": ["1"],
    "require": "W_zero",
    "limit": 5,
}


def _paths(obj, prefix=()):
    """Every field of a JSON document: object keys and list entries, nested."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _json_values(numbers):
    scalars = st.none() | st.booleans() | numbers | st.text(max_size=12)
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=6,
    )


ANY_JSON = _json_values(st.integers() | st.floats(allow_nan=False, allow_infinity=False))
SMALL_JSON = _json_values(st.integers(-99, 99) | st.floats(-99, 99))
FUZZ = hypothesis.settings(derandomize=True, database=None, max_examples=15, deadline=None)


def _run(command, doc):
    """(exit code, stderr) of `cybundle <command> FILE` on the JSON `doc`."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, path])
    return code, err.getvalue()


# the divisor class fields of a model file
CLASS_FIELDS = ("alpha", "eta", "H")


def _each_field(command, doc, value):
    """Run `command` on `doc` with each field in turn replaced by `value`.
    An exit 2 caused by a class field, or a field inside one, names it."""
    for path in _paths(doc):
        code, err = _run(command, _replaced(doc, path, value))
        assert code in (0, 1, 2), path
        if code == 2:
            assert any(line.startswith("error:") for line in err.splitlines()), (path, err)
            for key in CLASS_FIELDS:
                assert key not in path or f"'{key}'" in err, (path, err)


@FUZZ
@hypothesis.given(value=ANY_JSON)
def test_pullback_model_any_json_in_each_field(value):
    _each_field("check", SO10_MODEL, value)


@FUZZ
@hypothesis.given(value=ANY_JSON)
def test_spectral_model_any_json_in_each_field(value):
    _each_field("check", SPECTRAL_MODEL, value)


@FUZZ
@hypothesis.given(value=SMALL_JSON)
def test_search_config_small_json_in_each_field(value):
    _each_field("search", E6_CONFIG, value)


def test_chi_past_the_digit_limit_names_a_field():
    model = _replaced(SO10_MODEL, ("bundle", "n"), 10**999)
    code, err = _run("check", _replaced(model, ("bundle", "twist", "x"), 10**199))
    assert code == 2
    assert "field '" in err


def _with(doc, fields):
    for path, value in fields.items():
        doc = _replaced(doc, path, value)
    return doc


def test_pullback_chi_of_capped_inputs_names_a_field():
    model = _with(SO10_MODEL, {
        ("bundle", "n"): 10**999,
        ("bundle", "twist", "x"): -1,
        ("bundle", "twist", "alpha", "coeffs"): [str(10**999), "1"],
        ("bundle", "c2E"): 5,
    })
    code, err = _run("check", model)
    assert code == 2
    assert "field '" in err


def test_spectral_af_of_capped_inputs_names_a_field():
    model = _with(SPECTRAL_MODEL, {
        ("bundle", "n"): 2 * 10**998,
        ("bundle", "eta", "coeffs"): [str(9 * 10**998)] * 2,
        ("bundle", "lambda"): f"{10**998 + 1}/2",
        ("bundle", "twist", "alpha", "coeffs"): ["1", "-1"],
    })
    code, err = _run("check", model)
    assert code == 2
    assert "field '" in err
