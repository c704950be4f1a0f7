"""Tests of the benchmark itself: generator, output checks, tracing."""

import io
import json
import os
import shutil
import subprocess
import sys

import pytest

import calib
import checks
import gen
import layers
import run

sys.path.insert(0, os.path.join(run.ROOT, "src"))

import cybundle  # noqa: E402
import cybundle.search as search  # noqa: E402
from cybundle.surfaces import BaseSurface  # noqa: E402

SMALL_F0 = {
    "base": "F0",
    "mode": "pullback",
    "n_range": [2, 3],
    "x_values": [-1, 1],
    "alpha_box": [[-2, -1], [-1, 0]],
    "c2E_range": [104, 104],
    "h_values": ["1"],
    "require": None,
    "bound": 50,
}


def scan_text(config: dict) -> str:
    out = io.StringIO()
    search.run_search(search.SearchConfig.from_json(config), out=out)
    return out.getvalue()


# ---------------------------------------------------------------------------
# seeded generator


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    for seed in (0, 1, 17):
        assert gen.configs(workload, seed) == gen.configs(workload, seed)
        assert gen.check_sample(workload, seed) == gen.check_sample(workload, seed)
    assert gen.configs(workload, 1) != gen.configs(workload, 2)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_volume_fixed_across_seeds(workload):
    volumes = {tuple(gen.volume(c) for c in gen.configs(workload, seed)) for seed in range(40)}
    assert len(volumes) == 1
    for seed in range(40):
        for config in gen.configs(workload, seed):
            assert config["bound"] == 50


def test_seed_zero_reproduces_roadmap_boxes():
    pullback, spectral = gen.configs("f0-scan", 0)
    assert spectral["alpha_box"] == [[-2, 2], [-12, 12]] and spectral["H_values"] == [[3, 34]]
    assert gen.volume(spectral) == 750
    # the first three c2E values of the 24,696-model F0-pullback box
    assert pullback["alpha_box"] == [[-3, 3], [-3, 3]] and pullback["c2E_range"] == [90, 92]
    enriques = gen.configs("enriques-scan", 0)[0]
    assert enriques["c2E_range"] == [12, 12] and enriques["H_values"] == [[2, 3]]
    assert enriques["alpha_box"] == [[-2, 2], [-2, 2]] and 1 in enriques["x_values"]
    dp8 = gen.configs("dp-anomaly", 0)[2]
    assert dp8["base"] == "dP8" and dp8["c2E_range"][0] == 100 and "1" in dp8["h_values"]


def test_model_params_follow_search_enumeration():
    for config in (SMALL_F0, gen.configs("enriques-scan", 3)[1]):
        lines = scan_text(config).splitlines()[:-1]
        assert len(lines) == gen.volume(config)
        for i, line in enumerate(lines):
            assert json.loads(line)["params"] == gen.model_params(config, i)


# ---------------------------------------------------------------------------
# output checks


def check(config, text):
    surface = cybundle.make_base(config["base"])
    failed, messages, _ = checks.check_stream(cybundle, surface, config, text)
    return failed, messages


def corrupt(text: str, index: int, edit) -> str:
    lines = text.split("\n")
    record = json.loads(lines[index])
    edit(record)
    lines[index] = json.dumps(record, separators=(",", ":"))
    return "\n".join(lines)


def oracle_record_index(text: str) -> int:
    """A record whose non-empty window lies in the closed form's domain."""
    for i, line in enumerate(text.splitlines()[:-1]):
        rec = json.loads(line)
        stab = rec["verdicts"].get("stability")
        x, alpha = rec["params"]["x"], [int(c) for c in rec["params"]["alpha"]]
        a = 2 * sum(alpha)  # alpha . c1 on F0
        if stab and stab["nonempty"] and x * a < 0 and abs(x) < abs(a):
            return i
    raise AssertionError("no record in the oracle domain")


def test_clean_stream_passes_checks():
    assert check(SMALL_F0, scan_text(SMALL_F0)) == (set(), [])


def test_flipped_overall_is_counted():
    text = scan_text(SMALL_F0)
    failed, _ = check(SMALL_F0, corrupt(text, 0, lambda r: r.update(overall=not r["overall"])))
    assert checks.model_key(gen.model_params(SMALL_F0, 0)) in failed


def test_moved_window_endpoint_is_counted():
    text = scan_text(SMALL_F0)
    i = oracle_record_index(text)

    def move(record):
        stab = record["verdicts"]["stability"]
        stab["upper"] = str(cybundle.jsonio.frac_from_str(stab["upper"]) - cybundle.jsonio.frac_from_str("1/1000"))

    failed, messages = check(SMALL_F0, corrupt(text, i, move))
    assert len(failed) == 1 and "closed form" in messages[0]


def test_summary_that_does_not_add_up_is_counted():
    text = scan_text(SMALL_F0)
    lines = text.split("\n")
    summary = json.loads(lines[-2][2:])
    summary["passed"] += 1
    lines[-2] = "# " + json.dumps(summary)
    failed, _ = check(SMALL_F0, "\n".join(lines))
    assert any(key.startswith("<summary") for key in failed)


def test_differing_lines():
    text = scan_text(SMALL_F0)
    assert checks.differing_lines(text, text) == 0
    assert checks.differing_lines(text, corrupt(text, 3, lambda r: r.update(failed_stage="x"))) == 1


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(100) == 90
    assert run.nearest_rank(list(range(1, 101)), 90) == 90


def test_calibration_drops_preempted_kernel_runs():
    samples = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0), (3.0, 5.0)]
    assert calib.factor(samples, 0.0, 3.0, nominal=1.0) == 1.0
    assert calib.factor(samples, 10.0, 11.0, nominal=2.0) == pytest.approx(2 / 3)
    assert run.normalised(samples, (0.0, 3.0), stolen=1.0) == pytest.approx(2 * calib.NOMINAL_S)


def test_steal_time_is_read_per_cpu():
    steal = calib.steal_seconds()
    assert {str(c) for c in os.sched_getaffinity(0)} <= set(steal)
    assert all(v >= 0 for v in steal.values())


# ---------------------------------------------------------------------------
# tracing


def test_wrapping_leaves_output_byte_identical():
    config = dict(SMALL_F0, n_range=[2, 2])
    spectral = gen.configs("f0-scan", 5)[1]
    spectral = dict(spectral, alpha_box=[spectral["alpha_box"][0], [spectral["alpha_box"][1][0]] * 2])
    plain = [scan_text(config), scan_text(spectral)]
    original = BaseSurface.cone_position, search.check_model, cybundle.check_model
    tracer = layers.Tracer()
    names = tracer.install()
    try:
        assert BaseSurface.cone_position is not original[0]
        assert search.check_model is not original[1]
        assert cybundle.check_model is search.check_model  # `from .search import` binding
        traced = [scan_text(config), scan_text(spectral)]
    finally:
        tracer.uninstall()
    assert (BaseSurface.cone_position, search.check_model, cybundle.check_model) == original
    assert traced == plain
    assert set(run.TRACED) <= set(names)
    snap = tracer.snapshot()
    for name in ("surfaces.BaseSurface.intersect", "search.run_search", "anomaly.spectral_af"):
        assert snap["calls"][name] > 0
    assert all(t >= 0 for t in snap["self_s"].values())
    ratio, per_base = layers.distinct_ratio(snap["keys"])
    assert 0 < ratio <= 1 and set(per_base) == {"F0"}


# ---------------------------------------------------------------------------
# contract


def test_benchmark_json_lists_what_the_runner_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload", "f0-scan", "--seconds", "1"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0 and proc.stdout == ""
