"""Tests of the benchmark itself (not part of the library's test suite).

    python3 -m pytest bench -q

Each workload runs at a tiny size through the real command line; every
metric the benchmark defines must appear with its unit, and the checks must
catch deliberately corrupted outputs.
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_EVERYWHERE = {"wall_measured_s": "s", "host_speed": "ratio",
                      "failed_frac": "ratio"}
PRINTED_ONLY = {
    "witness": {"shells_s": "s"},
    "exact_minima": {"query_p50_ms": "ms", "query_p90_ms": "ms",
                     "query_samples": "count"},
}


def run_bench(workload, trace, cwd=ROOT, tiny=True):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def printed_metrics(stdout):
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 3 and parts[0][0].isalpha() and ":" not in parts[0]:
            try:
                out[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return out


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_traced_run_reports_every_metric(workload):
    proc = run_bench(workload, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == layers

    printed = printed_metrics(proc.stdout)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    wanted.update(PRINTED_ONLY.get(workload, {}))
    wanted.update(PRINTED_EVERYWHERE)
    for name, unit in wanted.items():
        assert printed[name][1] == unit, name
        assert math.isfinite(printed[name][0]), name
    assert printed["failed_frac"][0] == result["failed"] / result["attempted"]
    # layer self times account for the traced operations' time
    assert 0.0 <= result["metrics"]["trace.unattributed_frac"]["value"] < 0.05


def test_untraced_run_reports_the_end_to_end_metrics():
    proc = run_bench("exact_minima", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    # the skewed pool keeps the basis starlat rejects today
    assert result["failed"] >= 1


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("meanvalue", trace=0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spec_paths_and_command_stay_inside_the_benchmark():
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    names = [w["name"] for w in SPEC["workloads"]]
    assert set(names) <= set(workloads.WORKLOADS)


def test_calibrated_time_divides_each_repeat_by_the_host_slowness():
    op = run.Op(None, seconds=[1.0, 3.0, 4.0], slowness=[1.0, 2.0, 4.0],
                phases=[{"a": 0.5}, {"a": 1.0}, {"a": 2.0}])
    assert op.time == 1.0          # median of 1.0, 1.5 and 1.0
    assert op.phase("a") == 0.5
    assert run.Op(None, error="SingularBasis").time == math.inf


@pytest.mark.parametrize("kind", list(calibrate.KERNELS))
def test_calibration_kernels_run(kind):
    assert calibrate.slowness(kind, 1) > 0.0


# -- the checks catch wrong outputs ------------------------------------------


def test_diff_compares_ints_exactly_and_floats_to_1e12():
    assert workloads.diff({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-13]}) == []
    assert workloads.diff({"a": [1, 2.0]}, {"a": [1, 2.0 + 1e-11]})
    assert workloads.diff([3], [4])
    assert workloads.diff([math.inf], [math.inf]) == []


def test_meanvalue_check_catches_a_wrong_count():
    wl = workloads.make("meanvalue", 0)
    inp = wl.op_input(2)
    rep, _ = wl.run(inp)
    assert wl.check(2, inp, rep) == []
    rng = np.random.default_rng(inp[1])
    i = int(rng.choice(wl.N, wl.ORACLE_LATTICES, replace=False)[0])
    counts = list(rep.entries[0].counts)
    counts[i] += 1
    bad = dataclasses.replace(rep.entries[0], counts=tuple(counts))
    assert wl.check(2, inp, dataclasses.replace(rep, entries=(bad,)))


def test_decay_check_catches_a_wrong_lambda2():
    wl = workloads.make("decay", 0, tiny=True)
    s = wl.op_input(0)
    rep, _ = wl.run(s)
    assert wl.check(0, s, rep) == []
    row = rep.lambda2[0]
    bad = dataclasses.replace(rep, lambda2=((row[0], row[1] * (1 + 1e-9)),))
    assert wl.check(0, s, bad)


def test_exact_minima_check_catches_wrong_minima():
    wl = workloads.make("exact_minima", 0)
    for k in (0, 3, 6):      # 2d, 3d, skewed
        inp = wl.op_input(k)
        res, _ = wl.run(inp)
        assert wl.check(k, inp, res) == []
        vals = (res.values[0] * 1.5,) + res.values[1:]
        assert wl.check(k, inp, dataclasses.replace(res, values=vals))


def test_witness_check_catches_a_swapped_witness():
    wl = workloads.make("witness", 0, tiny=True)
    s = wl.op_input(0)
    out, _ = wl.run(s)
    assert wl.check(0, s, out) == []
    reports = out["reports"]["plane"]
    i, rep = next((i, r) for i, r in enumerate(reports) if r.tuples)
    t = rep.tuples[0]
    swapped = dataclasses.replace(t, quadrants=t.quadrants[::-1])
    reports[i] = dataclasses.replace(rep, tuples=(swapped,) + rep.tuples[1:])
    assert wl.check(0, s, out)


def test_oracle_counts_the_integer_lattice():
    B = np.eye(2)
    # primitive points of Z^2 in the closed disk of radius sqrt(5)
    assert oracle.primitive_count(B, lambda x: (x * x).sum(axis=1) <= 5.0,
                                  5.0 ** 0.5) == 16
