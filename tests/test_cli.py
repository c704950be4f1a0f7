"""End-to-end tests for the command-line interface."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from cybundle import (
    DivisorClass,
    DivisorX,
    SpectralBundle,
    anomaly_class,
    cli,
    jsonio,
    make_base,
    spectral_stability_check,
)

CLI = [sys.executable, "-m", "cybundle.cli"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

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

BAD_PARITY_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "spectral",
        "n": 2,
        "eta": {"coeffs": ["24", "24"]},
        "lambda": "1",
        "twist": {"x": "0", "alpha": {"coeffs": ["1", "-11"]}},
    },
    "polarization": {"H": {"coeffs": ["3", "34"]}},
}

# a field value that drops the field from a config
MISSING = object()

E6_CONFIG = {
    "base": "F0",
    "mode": "pullback",
    "n_range": [2, 2],
    "x_values": [2],
    "alpha_box": [[0, 0], [0, 0]],
    "c2E_range": [92, 92],
    "h_values": ["1"],
    "require": "W_zero",
}


def run_cli(*args):
    """`cybundle ARGS` run in this process by `cli.main`, as a
    CompletedProcess of its exit code, stdout and stderr.  argparse and an
    unreadable input file end it with SystemExit, which holds the code."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = exc.code
    return subprocess.CompletedProcess(["cybundle", *args], code, stdout.getvalue(), stderr.getvalue())


def child_env():
    """The environment of a child `python -m cybundle.cli`, which imports
    cybundle from this checkout, installed or not."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_module_entry_point_writes_what_main_writes(tmp_path):
    # `python -m cybundle.cli` in a child process: the exit code and the
    # text of `cli.main` run in this one, for a scan (its records on
    # stdout, its summary on stderr) and for a check that fails a stage
    runs = [
        (("search", write(tmp_path, "e6.json", E6_CONFIG)), 0),
        (("check", write(tmp_path, "bad.json", BAD_PARITY_MODEL)), 1),
    ]
    for args, code in runs:
        child = subprocess.run(CLI + list(args), capture_output=True, text=True, env=child_env())
        here = run_cli(*args)
        assert (child.returncode, child.stdout, child.stderr) == (here.returncode, here.stdout, here.stderr)
        assert child.returncode == code and child.stdout


def test_verify_paper_passes():
    proc = run_cli("verify-paper")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "all hard checks passed" in proc.stdout
    assert "af readings reported" in proc.stdout  # informational fixture present
    # the E6 model's window is empty, and a = 0 is outside the proposition's domain
    assert (
        "(info) stability (h=1): u window (1, 1) empty; a = alpha.c1 = 0"
        " outside the x*a < 0 domain; not shown stable" in proc.stdout
    )
    assert "Fraction(" not in proc.stdout  # rationals print as exact p/q
    assert "alpha: computed (-1, -1)  ok" in proc.stdout


def test_check_passing_model(tmp_path):
    proc = run_cli("check", write(tmp_path, "so10.json", SO10_MODEL))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record = json.loads(proc.stdout)
    assert record["overall"] is True
    assert record["verdicts"]["anomaly"]["W_zero"] is True


def test_check_parity_failure(tmp_path):
    proc = run_cli("check", write(tmp_path, "bad.json", BAD_PARITY_MODEL))
    assert proc.returncode == 1
    record = json.loads(proc.stdout)
    assert record["failed_stage"] == "validity"
    assert record["verdicts"]["validity"]["error"] == "spectral data invalid"


def test_check_truncated_file(tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(SO10_MODEL)[:40])
    proc = run_cli("check", str(path))
    assert proc.returncode == 2
    assert "error" in proc.stderr


# input files the JSON reader cannot turn into a value
UNREADABLE = {
    "non-utf8": b'{"base": "F0\xff"}',
    "long-int": b'{"base": "F0", "n": ' + b"1" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000,
}


@pytest.mark.parametrize("command", ["check", "search"])
@pytest.mark.parametrize("content", UNREADABLE.values(), ids=UNREADABLE.keys())
def test_unreadable_file_exits_2(tmp_path, command, content):
    path = tmp_path / "input.json"
    path.write_bytes(content)
    proc = run_cli(command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot read {path}: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["check", "search"])
def test_oversized_exponent_is_refused_naming_the_field(tmp_path, command):
    # "1e5000" would be a 5,001-digit integer; "1e999999999" would never finish
    if command == "check":
        model = dict(SO10_MODEL, polarization={"h": "1e5000"})
        path, field = write(tmp_path, "model.json", model), "'h'"
    else:
        config = dict(E6_CONFIG, h_values=["1e5000"])
        path, field = write(tmp_path, "box.json", config), "'h_values'"
    proc = run_cli(command, path)
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr and "Traceback" not in proc.stderr


DIGITS_1001 = "1" + "0" * 1000
DIGITS_1000 = "9" * 1000


@pytest.mark.parametrize(
    "command, obj, field",
    [
        ("check", dict(SO10_MODEL, polarization={"h": DIGITS_1001}), "'h'"),
        ("check", dict(SO10_MODEL, polarization={"h": "1/" + DIGITS_1001}), "'h'"),
        ("check", dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], c2E=int(DIGITS_1001))), "'c2E'"),
        ("search", dict(E6_CONFIG, h_values=["1", DIGITS_1001]), "'h_values'"),
        ("search", dict(E6_CONFIG, c2E_range=[0, int(DIGITS_1001)]), "'c2E_range'"),
        # below the exponent guard, but h^2 would pass the interpreter's
        # 4,300-digit limit in the window bounds
        ("check", dict(SO10_MODEL, polarization={"h": "1e3000"}), "'h'"),
        ("search", dict(E6_CONFIG, h_values=["1e3000"]), "'h_values'"),
    ],
)
def test_field_past_digit_cap_is_refused_naming_it(tmp_path, command, obj, field):
    proc = run_cli(command, write(tmp_path, "input.json", obj))
    assert proc.returncode == 2, proc.stderr
    assert field in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "model",
    [
        {
            "base": "F0",
            "bundle": {
                "type": "pullback",
                "n": 3,
                "c2E": -int(DIGITS_1000),
                "twist": {"x": DIGITS_1000, "alpha": {"coeffs": [f"-{DIGITS_1000}/2", DIGITS_1000]}},
            },
            "polarization": {"h": f"{DIGITS_1000}/{DIGITS_1000[:-1]}7"},
        },
        {
            "base": "F0",
            "bundle": {
                "type": "spectral",
                "n": 2,
                "eta": {"coeffs": [DIGITS_1000[:-1] + "8", "24"]},
                "lambda": f"{DIGITS_1000}/2",
                "twist": {"x": "0", "alpha": {"coeffs": ["1", f"-{DIGITS_1000}"]}},
            },
            "polarization": {"H": {"coeffs": ["3", DIGITS_1000]}},
        },
        {
            "base": "enriques",
            "bundle": {
                "type": "pullback",
                "n": 2,
                "c2E": int(DIGITS_1000),
                "twist": {"x": f"-{DIGITS_1000}", "alpha": {"coeffs": [DIGITS_1000, "1"] + ["0"] * 8}},
            },
            "polarization": {"H": {"coeffs": [DIGITS_1000, "3"] + ["0"] * 8}},
        },
    ],
    ids=["F0-pullback", "F0-spectral", "enriques-pullback"],
)
def test_model_at_digit_cap_is_checked(tmp_path, model):
    proc = run_cli("check", write(tmp_path, "model.json", model))
    assert proc.returncode in (0, 1), proc.stderr
    record = json.loads(proc.stdout)
    assert "error" not in record["verdicts"]["validity"]


ENRIQUES_PULLBACK = {
    "base": "enriques",
    "bundle": {
        "type": "pullback",
        "n": 2,
        "c2E": 12,
        "twist": {"x": "1", "alpha": {"coeffs": ["-1", "-1"] + ["0"] * 8}},
    },
}


@pytest.mark.parametrize(
    "model",
    [
        dict(SO10_MODEL, polarization={"h": "1e160"}),
        dict(ENRIQUES_PULLBACK, polarization={"H": {"coeffs": ["1e310", "1e310"] + ["0"] * 8}}),
    ],
    ids=["so10-h", "enriques-H"],
)
def test_window_past_float_range_has_no_approximation(tmp_path, model):
    proc = run_cli("check", write(tmp_path, "model.json", model))
    assert proc.returncode == 0, proc.stderr
    stability = json.loads(proc.stdout)["verdicts"]["stability"]
    assert stability["passed"] is True and "z_interval_approx" not in stability


def test_check_missing_field_names_it(tmp_path):
    broken = {
        "base": "F0",
        "bundle": {
            "type": "pullback",
            "n": 3,
            "twist": {"x": "1", "alpha": {"coeffs": ["-1", "-1"]}},
        },
    }
    proc = run_cli("check", write(tmp_path, "broken.json", broken))
    assert proc.returncode == 2
    assert "c2E" in proc.stderr


def test_check_unsupported_base(tmp_path):
    model = dict(SO10_MODEL, base="F2")
    proc = run_cli("check", write(tmp_path, "f2.json", model))
    assert proc.returncode == 2
    assert "unsupported surface" in proc.stderr


def test_search_e6_singleton(tmp_path):
    proc = run_cli("search", write(tmp_path, "e6.json", E6_CONFIG))
    assert proc.returncode == 0, proc.stderr
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["verdicts"]["anomaly"]["W_zero"] is True
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert summary["scanned"] == 1


def test_search_jobs_deterministic(tmp_path):
    config = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [1, 2],
        "alpha_box": [[-2, 0], [-2, 0]],
        "c2E_range": [100, 106],
        "h_values": ["1"],
    }
    cfg = write(tmp_path, "box.json", config)
    out1, out3 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run_cli("search", cfg, "--jobs", "1", "--out", out1).returncode == 0
    assert run_cli("search", cfg, "--jobs", "3", "--out", out3).returncode == 0
    with open(out1, "rb") as f1, open(out3, "rb") as f3:
        assert f1.read() == f3.read()


def test_search_jobs_deterministic_through_the_pool(tmp_path):
    # a require-free box of 1,800 models, 36 per c2E, most failing the
    # anomaly stage (af < 0): --jobs 2, which no longer starts a pool,
    # writes the bytes of --jobs 1
    config = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 3],
        "x_values": [1, 2],
        "alpha_box": [[-2, 0], [-2, 0]],
        "c2E_range": [100, 149],
        "h_values": ["1"],
    }
    cfg = write(tmp_path, "box.json", config)
    out1, out2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run_cli("search", cfg, "--jobs", "1", "--out", out1).returncode == 0
    assert run_cli("search", cfg, "--jobs", "2", "--out", out2).returncode == 0
    with open(out1, "rb") as f1, open(out2, "rb") as f2:
        assert f1.read() == f2.read()


@pytest.mark.parametrize("target", ["missing/out.jsonl", "."], ids=["missing-directory", "directory"])
def test_search_out_that_cannot_be_opened_exits_2(tmp_path, target):
    cfg = write(tmp_path, "box.json", E6_CONFIG)
    out = str(tmp_path / target)
    proc = run_cli("search", cfg, "--out", out)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write --out {out}: ")
    assert "Traceback" not in proc.stderr


def test_search_limit(tmp_path):
    config = {
        "base": "F0",
        "mode": "pullback",
        "n_range": [2, 4],
        "x_values": [1],
        "alpha_box": [[-1, 1], [-1, 1]],
        "c2E_range": [0, 9],
        "h_values": ["1"],
    }
    proc = run_cli("search", write(tmp_path, "big.json", config), "--limit", "5")
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 5


def test_search_invalid_config(tmp_path):
    proc = run_cli("search", write(tmp_path, "bad.json", {"base": "F0"}))
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "field, value",
    [
        ("limit", "5"),
        ("limit", -1),
        ("n_range", [2, 2.9]),
        ("n_range", [2]),
        ("bound", -1),
        ("bound", True),
        ("x_values", ["1"]),
        ("alpha_box", [[0, 0], 1]),
        ("c2E_range", "92"),
        ("h_values", ["1/0"]),
        ("h_values", [True]),
        ("lambda_values", [None]),
        ("base", "dP9"),
        ("base", "dPx"),
        ("base", None),
        ("mode", "both"),
        ("c2E_range", MISSING),
        ("h_values", []),
    ],
)
def test_search_bad_field_is_named(tmp_path, field, value):
    config = {k: v for k, v in dict(E6_CONFIG, **{field: value}).items() if v is not MISSING}
    proc = run_cli("search", write(tmp_path, "bad.json", config))
    assert proc.returncode == 2
    assert f"'{field}'" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_rationals_serialize_exactly(tmp_path):
    # numeric window endpoints travel as exact "p/q" strings; decimals only
    # ever appear under an _approx suffix
    from fractions import Fraction

    proc = run_cli("check", write(tmp_path, "so10.json", SO10_MODEL))
    record = json.loads(proc.stdout)
    window = record["verdicts"]["stability"]
    assert isinstance(window["lower"], str)
    assert Fraction(window["lower"]) < Fraction(window["upper"])
    assert "z_interval_approx" in window


ENRIQUES_PULLBACK = {
    "base": "enriques",
    "mode": "pullback",
    "n_range": [2, 2],
    "x_values": [1],
    "alpha_box": [[0, 0], [0, 0]],
    "c2E_range": [12, 12],
    "H_values": [[2, 3]],
}

F0_SPECTRAL = {
    "base": "F0",
    "mode": "spectral",
    "n_range": [2, 2],
    "alpha_box": [[1, 1], [-11, -11]],
    "lambda_values": ["3/2"],
    "H_values": [[3, 34]],
}

ENRIQUES_SPECTRAL = {
    "base": "enriques",
    "mode": "spectral",
    "n_range": [2, 2],
    "alpha_box": [[0, 0], [-1, -1]],
    "eta_box": [[2, 2], [3, 3]],
    "lambda_values": ["1/2"],
    "H_values": [[4, 3]],
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "config, field",
    [
        (dict(E6_CONFIG, alpha_box=[[0, 0]] * 3), "alpha_box"),
        # refused before scanning, so an empty box is refused too
        (dict(E6_CONFIG, alpha_box=[[0, 0]] * 3, n_range=[3, 2]), "alpha_box"),
        (dict(F0_SPECTRAL, eta_box=[[12, 12]] * 3), "eta_box"),
        (dict(F0_SPECTRAL, H_values=[[3, 34, 1]]), "H_values"),
        (dict(E6_CONFIG, h_values=["0"]), "h_values"),
        (dict(E6_CONFIG, h_values=["1", "-1"]), "h_values"),
        (dict(F0_SPECTRAL, H_values=[], h_values=["0"]), "h_values"),
        (dict(ENRIQUES_PULLBACK, H_values=[[1, -1]]), "H_values"),
        (dict(F0_SPECTRAL, H_values=[[1, 0]]), "H_values"),
        # a pullback model takes H on Enriques and h on a -K-ample base
        (dict(ENRIQUES_PULLBACK, H_values=[], h_values=["1"]), "h_values"),
        (dict(ENRIQUES_PULLBACK, h_values=["1"]), "h_values"),
        (dict(E6_CONFIG, H_values=[[1, 1]]), "H_values"),
        (dict(E6_CONFIG, base="dP6", h_values=[], H_values=[[3, -1, -1, -1, -1, -1, -1]]), "H_values"),
        # the spectral stability stage needs H ample: on Enriques h c1 is pure
        # torsion, and ampleness outside Gamma^{1,1} is undecided
        (dict(ENRIQUES_SPECTRAL, H_values=[], h_values=["1"]), "h_values"),
        (dict(ENRIQUES_SPECTRAL, h_values=["1"]), "h_values"),
        (dict(ENRIQUES_SPECTRAL, H_values=[[5, 6, 1]]), "H_values"),
    ],
)
def test_search_rank_and_polarization_refused(tmp_path, config, field, jobs):
    proc = run_cli("search", write(tmp_path, "bad.json", config), "--jobs", jobs)
    assert proc.returncode == 2
    assert f"'{field}'" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_search_spectral_takes_both_polarization_kinds(tmp_path, jobs):
    config = dict(F0_SPECTRAL, h_values=["1", "2"])
    proc = run_cli("search", write(tmp_path, "box.json", config), "--jobs", jobs)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert summary["scanned"] == 3 and summary["stage_failures"]["nonsplit"] == 0


def test_search_enriques_h_outside_gamma11_still_scanned(tmp_path):
    # ampleness outside Gamma^{1,1} is undecided, so the config is not refused
    config = dict(ENRIQUES_PULLBACK, H_values=[[2, 3, 1]])
    proc = run_cli("search", write(tmp_path, "box.json", config))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stderr.strip().splitlines()[-1])["scanned"] == 1


SPECTRAL_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "spectral",
        "n": 2,
        "eta": {"coeffs": ["24", "24"]},
        "lambda": "3/2",
        "twist": {"x": "0", "alpha": {"coeffs": ["1", "-11"]}},
    },
    "polarization": {"H": {"coeffs": ["3", "34"]}},
}


ENRIQUES_SPECTRAL_MODEL = {
    "base": "enriques",
    "bundle": {
        "type": "spectral",
        "n": 2,
        "eta": {"coeffs": ["2", "3"] + ["0"] * 8},
        "lambda": "1/2",
        "twist": {"x": "0", "alpha": {"coeffs": ["0", "-1"] + ["0"] * 8}},
    },
    "polarization": {"H": {"coeffs": ["4", "3"] + ["0"] * 8}},
}


def _with_twist(**twist):
    bundle = dict(SO10_MODEL["bundle"], twist=dict(SO10_MODEL["bundle"]["twist"], **twist))
    return dict(SO10_MODEL, bundle=bundle)


def _with_spectral(**fields):
    return dict(SPECTRAL_MODEL, bundle=dict(SPECTRAL_MODEL["bundle"], **fields))


@pytest.mark.parametrize(
    "model, field",
    [
        (dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], n=None)), "'n'"),
        (dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], n=3.7)), "'n'"),
        (dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], c2E="104")), "'c2E'"),
        (dict(SO10_MODEL, polarization="1"), "'polarization'"),
        (dict(SO10_MODEL, polarization=[1]), "'polarization'"),
        (dict(SO10_MODEL, polarization={"h": "0"}), "'h'"),
        (dict(SO10_MODEL, polarization={"h": "-1/2"}), "'h'"),
        (dict(SO10_MODEL, require="maybe"), "'require'"),
        (dict(SO10_MODEL, polarization={"h": None}), "'h'"),
        (dict(SO10_MODEL, polarization={"h": True}), "'h'"),
        (_with_twist(x=None), "'x'"),
        (_with_twist(alpha={"coeffs": ["-1", None]}), "'coeffs'"),
        (_with_twist(alpha={"coeffs": ["-1", False]}), "'coeffs'"),
        (_with_twist(alpha={"coeffs": ["-1", "1/0"]}), "'coeffs'"),
        (_with_twist(alpha={"coeffs": ["-1", "-1", "0"]}), "'coeffs'"),
        (_with_twist(alpha={"coeffs": None}), "'coeffs'"),
        (_with_spectral(**{"lambda": None}), "'lambda'"),
        (_with_spectral(**{"lambda": True}), "'lambda'"),
        (_with_twist(alpha={"coeffs": ["-1", "-1"], "torsion": None}), "'torsion'"),
        (_with_twist(alpha={"coeffs": ["-1", "-1"], "torsion": 1.5}), "'torsion'"),
        (_with_twist(alpha={"coeffs": ["-1", "-1"], "torsion": True}), "'torsion'"),
        (_with_twist(alpha={"coeffs": ["-1", "-1"], "torsion": 2}), "'torsion'"),
        # F0 has no 2-torsion: the bit would otherwise change wB and drop af
        (_with_spectral(eta={"coeffs": ["24", "24"], "torsion": 1}), "'torsion'"),
        (dict(SO10_MODEL, base="dP9"), "'base'"),
        (dict(SO10_MODEL, base="dPx"), "'base'"),
        (dict(ENRIQUES_SPECTRAL_MODEL, polarization={"h": "1"}), "'h'"),
        (dict(ENRIQUES_SPECTRAL_MODEL, polarization={"H": {"coeffs": ["5", "6", "1"] + ["0"] * 7}}), "'H'"),
        (dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], type="extension")), "'type'"),
        (dict(SO10_MODEL, bundle=["pullback"]), "'bundle'"),
        (dict(SO10_MODEL, bundle=dict(SO10_MODEL["bundle"], twist=None)), "'twist'"),
    ],
)
def test_check_bad_model_field_is_named(tmp_path, model, field):
    proc = run_cli("check", write(tmp_path, "bad.json", model))
    assert proc.returncode == 2
    assert field in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_check_enriques_spectral_model_scanned(tmp_path):
    # an ample Gamma^{1,1} polarization is not refused
    proc = run_cli("check", write(tmp_path, "model.json", ENRIQUES_SPECTRAL_MODEL))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["failed_stage"] == "stability"


def test_search_negative_limit_flag_refused(tmp_path):
    proc = run_cli("search", write(tmp_path, "e6.json", E6_CONFIG), "--limit", "-1")
    assert proc.returncode == 2
    assert "'limit'" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_search_jobs_below_one_refused(tmp_path, jobs):
    proc = run_cli("search", write(tmp_path, "e6.json", E6_CONFIG), "--jobs", jobs)
    assert proc.returncode == 2
    assert "--jobs" in proc.stderr and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_check_enriques_torsion_bit_accepted(tmp_path):
    model = {
        "base": "enriques",
        "bundle": {
            "type": "pullback",
            "n": 2,
            "c2E": 12,
            "twist": {"x": "1", "alpha": {"coeffs": ["0"] * 10, "torsion": 1}},
        },
        "polarization": {"H": {"coeffs": ["2", "3"] + ["0"] * 8}},
    }
    proc = run_cli("check", write(tmp_path, "enriques.json", model))
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr


# ---------------------------------------------------------------------------
# spectral data whose c2(V_n) is not integral fails validity, scan or check

NON_INTEGRAL_C2 = [
    {
        "base": "dP0",
        "mode": "spectral",
        "n_range": [3, 3],
        "alpha_box": [[0, 1]],
        "eta_box": [[15, 15]],
        "lambda_values": ["1"],
        "H_values": [[1]],
    },
    # eta = 12 c1 and lambda = 1/2: the fiber term of c2 is -(n^3 - n)/24 c1^2 = -9/4
    {
        "base": "dP0",
        "mode": "spectral",
        "n_range": [2, 2],
        "alpha_box": [[0, 1]],
        "lambda_values": ["1/2"],
        "H_values": [[1]],
    },
]


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("config", NON_INTEGRAL_C2)
def test_search_non_integral_c2_fails_validity(tmp_path, config, jobs):
    proc = run_cli("search", write(tmp_path, "box.json", config), "--jobs", jobs)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stderr.strip().splitlines()[-1])
    assert summary["scanned"] == 2 and summary["stage_failures"]["validity"] == 2
    for line in proc.stdout.splitlines()[:-1]:
        error = json.loads(line)["verdicts"]["validity"]["error"]
        assert error == "spectral data invalid: non-integral Chern class"


def test_check_non_integral_c2_fails_validity(tmp_path):
    model = {
        "base": "dP0",
        "bundle": {
            "type": "spectral",
            "n": 3,
            "eta": {"coeffs": ["15"]},
            "lambda": "1",
            "twist": {"x": "0", "alpha": {"coeffs": ["0"]}},
        },
        "polarization": {"H": {"coeffs": ["1"]}},
    }
    proc = run_cli("check", write(tmp_path, "model.json", model))
    assert proc.returncode == 1, proc.stderr
    record = json.loads(proc.stdout)
    assert record["failed_stage"] == "validity"
    assert record["verdicts"]["validity"]["error"] == "spectral data invalid: non-integral Chern class"


HALF_ETA_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "spectral",
        "n": 2,
        "eta": {"coeffs": ["25/2", "49/2"]},
        "lambda": "1/2",
        "twist": {"x": "0", "alpha": {"coeffs": ["1", "-11"]}},
    },
    "polarization": {"H": {"coeffs": ["3", "34"]}},
}


def test_check_half_integral_eta(tmp_path):
    # a scan's eta is integral, a model file's may be half-integral: `check`
    # validates it and runs the stages from its parts over den 2, as the
    # public Fraction functions do; for odd n the parity rule refuses it
    f0 = make_base("F0")
    eta, alpha = DivisorClass((Fraction(25, 2), Fraction(49, 2))), DivisorClass((1, -11))
    bundle = SpectralBundle(n=2, eta=eta, lam=Fraction(1, 2), twist=DivisorX(0, alpha))
    proc = run_cli("check", write(tmp_path, "half.json", HALF_ETA_MODEL))
    assert proc.returncode in (0, 1), proc.stderr
    verdicts = json.loads(proc.stdout)["verdicts"]
    assert verdicts["validity"] == {"passed": True}
    outcome = anomaly_class(f0, bundle)
    assert verdicts["anomaly"]["wB"] == jsonio.divisor_to_json(outcome.wB)
    assert verdicts["anomaly"]["af"] == jsonio.frac_to_str(outcome.af)
    stability = spectral_stability_check(f0, 2, alpha, DivisorClass((3, 34)))
    assert verdicts["stability"]["passed"] is stability.passed
    assert verdicts["stability"]["min_degree"] == jsonio.frac_to_str(stability.min_degree)
    odd = {**HALF_ETA_MODEL, "bundle": {**HALF_ETA_MODEL["bundle"], "n": 3, "lambda": "1"}}
    proc = run_cli("check", write(tmp_path, "odd.json", odd))
    assert proc.returncode == 1, proc.stderr
    assert json.loads(proc.stdout)["verdicts"]["validity"] == {"passed": False, "error": "spectral data invalid"}


def test_check_twist_with_non_integral_c2_fails_validity(tmp_path):
    # alpha = (1/2, -11/2): n(n+1)/2 alpha^2 = 3 * 2 (1/2)(-11/2) = -33/2
    model = _with_spectral(twist={"x": "0", "alpha": {"coeffs": ["1/2", "-11/2"]}})
    proc = run_cli("check", write(tmp_path, "model.json", model))
    assert proc.returncode == 1, proc.stderr
    record = json.loads(proc.stdout)
    assert record["failed_stage"] == "validity"
    assert record["verdicts"]["validity"]["error"] == "twist invalid: non-integral Chern class"


# ---------------------------------------------------------------------------
# `check` and `search` apply one polarization rule


def _zeros(rank):
    return ["0"] * rank


DP6_C1 = ["3"] + ["-1"] * 6

# a model per base and mode that passes validity; its polarization is set per case
AGREEMENT_MODELS = {
    ("F0", "pullback"): SO10_MODEL["bundle"],
    ("F0", "spectral"): SPECTRAL_MODEL["bundle"],
    ("dP6", "pullback"): {
        "type": "pullback",
        "n": 2,
        "c2E": 100,
        "twist": {"x": "1", "alpha": {"coeffs": _zeros(7)}},
    },
    ("dP6", "spectral"): {
        "type": "spectral",
        "n": 3,
        "eta": {"coeffs": [str(11 * int(c)) for c in DP6_C1]},
        "lambda": "1",
        "twist": {"x": "0", "alpha": {"coeffs": _zeros(7)}},
    },
    ("enriques", "pullback"): {
        "type": "pullback",
        "n": 2,
        "c2E": 12,
        "twist": {"x": "1", "alpha": {"coeffs": _zeros(10)}},
    },
    ("enriques", "spectral"): ENRIQUES_SPECTRAL_MODEL["bundle"],
}

# (ample H, H that is not ample) per base
AGREEMENT_H = {
    "F0": (["3", "34"], ["1", "0"]),
    "dP6": (DP6_C1, ["1"] + _zeros(6)),
    "enriques": (["4", "3"] + _zeros(8), ["1"] + _zeros(9)),
}

AGREEMENT_SHAPES = {
    "h": lambda H, bad: {"h": "1"},
    "H": lambda H, bad: {"H": {"coeffs": H}},
    "both": lambda H, bad: {"h": "1", "H": {"coeffs": H}},
    "none": lambda H, bad: {},
    "h<=0": lambda H, bad: {"h": "0"},
    "non-ample H": lambda H, bad: {"H": {"coeffs": bad}},
}

# the field refused per shape (absent: accepted) on Enriques in both modes,
# and per mode on F0 and dP6
AGREEMENT_REFUSED = {
    "enriques": {"h": "h", "both": "h", "none": "polarization", "h<=0": "h", "non-ample H": "H"},
    "pullback": {"H": "H", "both": "H", "none": "polarization", "h<=0": "h", "non-ample H": "H"},
    "spectral": {"both": "polarization", "none": "polarization", "h<=0": "h", "non-ample H": "H"},
}

# how a search config names the field a `check` model file names
SEARCH_FIELD = {"h": "'h_values'", "H": "'H_values'", "polarization": "'H_values' or 'h_values'"}


def _singleton_config(model):
    """The search config whose box is the one model of a `check` model file."""
    bundle = model["bundle"]

    def point(coeffs):
        return [[int(c), int(c)] for c in coeffs]

    config = {
        "base": model["base"],
        "mode": bundle["type"],
        "n_range": [bundle["n"], bundle["n"]],
        "alpha_box": point(bundle["twist"]["alpha"]["coeffs"]),
    }
    if bundle["type"] == "pullback":
        config.update(x_values=[int(bundle["twist"]["x"])], c2E_range=[bundle["c2E"]] * 2)
    else:
        config.update(eta_box=point(bundle["eta"]["coeffs"]), lambda_values=[bundle["lambda"]])
    pol = model["polarization"]
    if "h" in pol:
        config["h_values"] = [pol["h"]]
    if "H" in pol:
        config["H_values"] = [[int(c) for c in pol["H"]["coeffs"]]]
    return config


def _run_main(capsys, *args):
    code = cli.main(list(args))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("shape", AGREEMENT_SHAPES)
@pytest.mark.parametrize("mode", ["pullback", "spectral"])
@pytest.mark.parametrize("base", ["F0", "dP6", "enriques"])
def test_check_and_search_agree_on_polarization(tmp_path, capsys, base, mode, shape):
    model = {
        "base": base,
        "bundle": AGREEMENT_MODELS[base, mode],
        "polarization": AGREEMENT_SHAPES[shape](*AGREEMENT_H[base]),
    }
    refused = AGREEMENT_REFUSED["enriques" if base == "enriques" else mode].get(shape)
    check_code, check_err = _run_main(capsys, "check", write(tmp_path, "model.json", model))
    config = write(tmp_path, "box.json", _singleton_config(model))
    search_code, search_err = _run_main(capsys, "search", config)
    if refused is None:
        assert check_code in (0, 1) and search_code == 0, check_err + search_err
        return
    assert check_code == 2 and f"'{refused}'" in check_err, check_err
    if shape == "both" and refused == "polarization":
        # a config lists values: h_values and H_values give one model each
        assert search_code == 0, search_err
    else:
        assert search_code == 2 and SEARCH_FIELD[refused] in search_err, search_err


E6_MODEL = {
    "base": "F0",
    "bundle": {
        "type": "pullback",
        "n": 2,
        "c2E": 92,
        "twist": {"x": "2", "alpha": {"coeffs": ["0", "0"]}},
    },
    "polarization": {"h": "1"},
    "require": "W_zero",
}


@pytest.mark.parametrize(
    "model, code, digest",
    [
        (SO10_MODEL, 0, "e07f0a5e72abc914c5de8810dfedab13bab9f1efb790350cc38f75820e093848"),
        (SPECTRAL_MODEL, 0, "5b7d21061aeb91644a6e9ccfeb574d0df6a209425965e624ad6a11ae50ae7dc4"),
        (E6_MODEL, 1, "5962bb1783f4bfa42132e920e5b40b7336cc702d6950a3f314164f68a0db5eb8"),
        (ENRIQUES_SPECTRAL_MODEL, 1, "00a4ad3b293aff006468dd548e617d415243343838cff8efeaf099d2cdfb6f35"),
        (BAD_PARITY_MODEL, 1, "b234d1b57324ea20d8b55afe46ca4769bfc76f4429637cd95d695fdc75699306"),
    ],
    ids=["so10", "f0-spectral", "e6", "enriques-spectral", "validity-failure"],
)
def test_check_stdout_bytes_pinned(tmp_path, capsys, model, code, digest):
    # the indented record that `check` prints, byte for byte
    assert cli.main(["check", write(tmp_path, "model.json", model)]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "model, field",
    [
        (_with_spectral(eta=5), "'eta'"),
        (_with_spectral(eta={"coeffs": ["24"]}), "'eta'"),
        (dict(SPECTRAL_MODEL, polarization={"H": 5}), "'H'"),
        (_with_twist(alpha=5), "'alpha'"),
    ],
    ids=["eta-not-a-class", "eta-short", "H-not-a-class", "alpha-not-a-class"],
)
def test_check_bad_class_names_it(tmp_path, capsys, model, field):
    # the class is named before the current wording of the error
    assert cli.main(["check", write(tmp_path, "bad.json", model)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: field {field}: "), err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "config, message",
    [
        (dict(E6_CONFIG, c2E_range=[0, 10**20]), "error: config field 'c2E_range' spans more than"),
        (
            {
                "base": "F0",
                "mode": "spectral",
                "n_range": [10**999, 10**999],
                "alpha_box": [[0, 0], [0, 0]],
                "eta_box": [[3 * 10**999, 3 * 10**999]] * 2,
                "lambda_values": [f"{10**999 + 1}/2"],
                "h_values": ["1"],
            },
            "error: derived value af has more than 4300 digits; lower field 'n', 'eta', 'lambda' or 'alpha'",
        ),
    ],
    ids=["c2E-axis-past-maxsize", "af-past-the-digit-limit"],
)
def test_search_refuses_what_it_cannot_count_or_print(tmp_path, config, message, jobs):
    proc = run_cli("search", write(tmp_path, "box.json", config), "--jobs", jobs)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr


def test_search_into_a_closed_pipe_exits_quietly(tmp_path):
    # `cybundle search CONFIG | head -c 100`: the reader leaves while the
    # scan still writes 8,232 lines
    box = {"n_range": [2, 3], "x_values": [-2, -1, 1, 2], "alpha_box": [[-3, 3], [-3, 3]], "c2E_range": [90, 110]}
    config = dict(E6_CONFIG, **box, require=None)
    proc = subprocess.Popen(
        CLI + ["search", write(tmp_path, "box.json", config)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == cli.EXIT_PIPE == 141 and err == ""
