import hashlib
import json
import math

import numpy as np
import pytest

import starlat as sl
from starlat.cli import run_cli


def run(capsys, *argv):
    code = run_cli(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_minima_plain_output(capsys):
    code, out, _ = run(capsys, "minima", "--basis", "1,0;0,1",
                       "--body", "ball:p=2")
    assert code == 0
    assert out == "1 1\n"


def test_minima_json_envelope(capsys):
    code, out, _ = run(capsys, "minima", "--basis", "2,0;0,3",
                       "--body", "ball:p=inf", "--json")
    assert code == 0
    env = json.loads(out)
    assert env["command"] == "minima"
    assert env["seed"] == 0
    assert len(env["config_hash"]) == 16
    assert env["result"]["values"] == [2.0, 3.0]
    assert env["result"]["exact"] is True


def test_minima_budgeted_unbounded_body(capsys):
    code, out, _ = run(capsys, "minima", "--basis", "1,0;0,1",
                       "--body", "hyperbola", "--budget", "2")
    assert code == 0
    assert out == "0 0\n"


def test_minima_budgeted_golden(capsys):
    phi = (1 + math.sqrt(5)) / 2
    phibar = (1 - math.sqrt(5)) / 2
    code, out, _ = run(capsys, "minima", "--basis",
                       f"1,1;{phi},{phibar}", "--body", "hyperbola",
                       "--budget", "50", "--json")
    env = json.loads(out)
    assert code == 0
    assert env["result"]["values"] == pytest.approx([1.0, 1.0], abs=1e-9)


def test_minima_unbounded_without_budget_is_precondition_error(capsys):
    code, _, err = run(capsys, "minima", "--basis", "1,0;0,1",
                       "--body", "hyperbola")
    assert code == 2
    assert "error" in err


def test_minima_singular_basis_error(capsys):
    code, _, err = run(capsys, "minima", "--basis", "1,1;1,1",
                       "--body", "ball:p=2")
    assert code == 2 and "error" in err


def test_count_plain_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--basis", "1,0;0,1",
                       "--region", "disk:r=2.5")
    assert code == 0 and out == "16\n"
    code, out, _ = run(capsys, "count", "--basis", "1,0;0,1",
                       "--region", "disk:r=2.5", "--csv")
    assert out.splitlines() == ["count", "16"]


def test_count_budget_exit_code(capsys):
    code, _, err = run(capsys, "count", "--basis", "0.0001,0;0,0.0001",
                       "--region", "disk:r=100")
    assert code == 3
    assert "error" in err


def test_sample_lines_and_determinism(capsys):
    code, out1, _ = run(capsys, "sample", "--count", "3", "--seed", "11")
    assert code == 0
    lines = out1.strip().splitlines()
    assert len(lines) == 3
    rec = json.loads(lines[0])
    B = rec["basis"]
    det = B[0][0] * B[1][1] - B[0][1] * B[1][0]
    assert det == pytest.approx(1.0, abs=1e-12)
    _, out2, _ = run(capsys, "sample", "--count", "3", "--seed", "11")
    assert out1 == out2
    _, out3, _ = run(capsys, "sample", "--count", "3", "--seed", "12")
    assert out1 != out3


def test_rogers_csv_columns(capsys):
    code, out, _ = run(capsys, "rogers", "--areas", "10", "--count", "1000",
                       "--seed", "2", "--csv")
    assert code == 0
    header, row = out.strip().splitlines()
    cols = header.split(",")
    vals = dict(zip(cols, row.split(",")))
    assert float(vals["area"]) == pytest.approx(10.0, rel=1e-9)
    assert float(vals["center"]) == pytest.approx(10 / (math.pi**2 / 6),
                                                  rel=1e-9)
    assert abs(float(vals["mean"]) - float(vals["center"])) < 0.5


def test_rogers_requires_regions(capsys):
    code, _, err = run(capsys, "rogers", "--count", "1000")
    assert code == 2 and "error" in err


def test_witness_json_structure(capsys):
    code, out, _ = run(capsys, "witness", "--body", "plane", "--basis",
                       "1,0;0,1", "--shells", "2", "--samples", "4000",
                       "--mc-points", "20000", "--seed", "6", "--json")
    assert code == 0
    env = json.loads(out)
    shells = env["result"]["shells"]
    assert [s["n"] for s in shells] == [1, 2]
    for s in shells:
        assert s["rho_out"] > s["rho_in"]
        assert "tuple" in s or "failure" in s
        if "tuple" in s:
            (a, b) = s["tuple"]["coeffs"]
            assert a[0] * b[1] - a[1] * b[0] != 0


def test_probe_from_config(tmp_path, capsys):
    cfg = {"body": "ball:p=2", "basis": "1,0;0,1", "n_max": 4,
           "slack": "3/n", "body_seq": "inflate", "lattice_seq": "fixed"}
    path = tmp_path / "probe.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = run(capsys, "probe", "--config", str(path), "--json")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["reference"] == [1.0, 1.0]
    assert all(e["upper_ok"] for e in env["result"]["entries"])


def test_probe_missing_config_errors(capsys):
    code, _, err = run(capsys, "probe", "--config", "/nonexistent.json")
    assert code == 2 and "error" in err


def test_theorem2_csv(capsys):
    code, out, _ = run(capsys, "theorem2", "--budgets", "5,40", "--count",
                       "40", "--seed", "3", "--csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header.startswith("budget,median_lambda2")
    meds = [float(r.split(",")[1]) for r in rows]
    assert meds[1] <= meds[0]


@pytest.mark.parametrize("flags", [("--count", "0"), ("--count", "-1"),
                                   ("--budgets", "0,10")])
def test_theorem2_bad_sizes_are_precondition_errors(capsys, flags):
    code, out, err = run(capsys, "theorem2", *flags)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (("minima", "--basis", "1,0;1", "--body", "ball:p=2"),
     "malformed basis spec '1,0;1'"),
    (("minima", "--basis", "1,0;;0,1", "--body", "ball:p=2"),
     "malformed basis spec"),
    (("sample", "--count", "-1"), "count must be nonnegative"),
    (("count", "--basis", "1,0;0,1", "--region", "disk"),
     "spec 'disk' is missing the option r="),
    (("witness", "--body", "sublevel:body=hyperbola"),
     "spec 'sublevel:body=hyperbola' is missing the option t="),
    (("minima", "--basis", "1,0;0,1", "--body", "scale:c=2"),
     "spec 'scale:c=2' is missing the inner body"),
    (("probe", "--config", {"basis": "1,0;0,1"}),
     "is missing the required key 'body'"),
    (("probe", "--config", {"body": "ball:p=2"}),
     "is missing the required key 'basis'"),
    (("rogers", "--areas", "-5", "--count", "1000"),
     "--areas needs positive finite areas, got '-5'"),
    (("rogers", "--areas", "10,nan", "--count", "1000"),
     "--areas needs positive finite areas, got 'nan'"),
    (("count", "--basis", "1,0;0,1", "--region", "disk:r=nan"),
     "region spec 'disk:r=nan' needs a positive finite r"),
    (("count", "--basis", "1,0;0,1", "--region", "box:a=-2"),
     "region spec 'box:a=-2' needs a positive finite a"),
    (("rogers", "--region", "annulus:r0=1:r1=inf", "--count", "1000"),
     "region spec 'annulus:r0=1:r1=inf' needs a positive finite r1"),
    (("count", "--basis", "1,0;0,1", "--region", "annulus:r0=-1:r1=2"),
     "region spec 'annulus:r0=-1:r1=2' needs 0 <= r0 < r1"),
    (("count", "--basis", "1,0;0,1", "--region",
      "sublevel:body=hyperbola:t=0:clip=3"),
     "region spec 'sublevel:body=hyperbola:t=0:clip=3' needs a positive "
     "finite t"),
    (("rogers", "--region", "sublevel:body=hyperbola:t=1:clip=nan",
      "--count", "1000"),
     "region spec 'sublevel:body=hyperbola:t=1:clip=nan' needs a positive "
     "finite clip"),
    (("minima", "--basis", "1e200,0;0,1e200", "--body", "ball:p=2"),
     "det(B) is not representable in float64"),
    (("minima", "--basis", "1e-200,0;0,1e-200", "--body", "ball:p=2"),
     "det(B) is not representable in float64"),
    (("minima", "--basis", "1,0;0,1", "--body", "ball:p=0"),
     "ball needs p > 0, got p=0"),
    (("minima", "--basis", "1,0;0,1", "--body", "ball:p=-1"),
     "ball needs p > 0, got p=-1"),
    (("minima", "--basis", "1,0;0,1", "--body", "ball:p=nan"),
     "ball needs p > 0, got p=nan"),
    (("minima", "--basis", "1,0;0,1", "--body", "scale:c=nan:ball:p=2"),
     "scale factor must be finite and > 0, got c=nan"),
    (("minima", "--basis", "1,0;0,1", "--body", "scale:c=inf:ball:p=2"),
     "scale factor must be finite and > 0, got c=inf"),
    (("witness", "--body", "sublevel:body=ball:p=0:t=1"),
     "ball needs p > 0, got p=0"),
    (("minima", "--basis", "1e200,1e200;1e200,1e200", "--body", "ball:p=2"),
     "basis columns are numerically dependent"),
    (("witness", "--body", "ball:p=2", "--mc-points", "0"),
     "mc_points must be at least 1"),
    (("witness", "--body", "ball:p=2", "--mc-points", "-5"),
     "mc_points must be at least 1"),
    (("probe", "--config", {"body": 5, "basis": "1,0;0,1"}),
     "probe config key 'body' must be a string"),
    (("probe", "--config", {"body": "ball:p=2", "basis": 7}),
     "probe config key 'basis' must be a string"),
    (("probe", "--config", {"body": "ball:p=2", "basis": "1,0;0,1",
                            "n_max": [1]}),
     "probe config key 'n_max' must be a number, got [1]"),
    (("probe", "--config", {"body": "ball:p=2", "basis": "1,0;0,1",
                            "budget": None}),
     "probe config key 'budget' must be a number, got None"),
    (("count", "--basis", "1,0;0,1", "--region", "disk:r=1e308"),
     "region spec 'disk:r=1e+308' has no finite area"),
    (("count", "--basis", "1,0;0,1", "--region", "annulus:r0=1e200:r1=1e300"),
     "region spec 'annulus:r0=1e+200:r1=1e+300' has no finite area"),
    (("rogers", "--region", "box:a=1e300"),
     "region spec 'box:a=1e+300' has no finite area"),
    (("witness", "--shells", "0"), "need at least one shell, got n_max=0"),
    (("witness", "--shells", "-1"), "need at least one shell, got n_max=-1"),
    (("count", "--basis", "1,0,0;0,1,0;0,0,1", "--region", "box:a=2"),
     "regions are planar, got dimension 3"),
    (("count", "--basis", "1,0;0,1", "--region", "disk:r=2:r=3"),
     "spec 'disk:r=2:r=3' repeats the option r="),
    (("witness", "--body", "sublevel:body=ball:p=2:t=1:t=2"),
     "repeats the option t="),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_is_one_error_line(capsys, tmp_path, argv, message):
    # a dict stands for a probe config file holding it
    cfg = tmp_path / "probe.json"
    for a in argv:
        if isinstance(a, dict):
            cfg.write_text(json.dumps(a))
    code, out, err = run(capsys, *(str(cfg) if isinstance(a, dict) else a
                                   for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (("theorem2", "--budgets", "1e308"), "needs over 1022 rectangles"),
    (("minima", "--basis", "1,0;0,1", "--body", "hyperbola", "--budget",
      "1e300"), "predicted point count inf exceeds cap"),
    (("count", "--basis", "1e-150,0;0,1e-150", "--region", "disk:r=1e100"),
     "predicted point count inf exceeds cap"),
    (("rogers", "--areas", "1e300", "--count", "1000"),
     "predicted point count 1e+300 exceeds cap"),
    # the rectangles lose the lattice in floats; R^2 overflows
    (("theorem2", "--budgets", "1e40"), "leaves the float range"),
    (("minima", "--basis", "1.35e154,0;0,1e154", "--body", "ball:p=2"),
     "leaves the float range"),
    # R >= 2^24 sqrt(s): the rectangles (and the chain) stop there
    (("minima", "--basis", "1,1;1.618033988749895,-0.618033988749895",
      "--body", "hyperbola", "--budget", "1e9"), "leaves the float range"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_huge_sizes_are_one_budget_error_line(capsys, argv, message):
    # sizes whose point count overflows a float are budget errors (exit 3)
    code, out, err = run(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("basis,p,values", [
    ("0.5,0;0,0.5", "1e-300", "0.5 0.5\n"),
    ("2,0;0,2", "2000", "2 2\n"),
    ("2,0;0,2", "1e300", "2 2\n"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_extreme_p_balls_give_their_minima(capsys, basis, p, values):
    # |x_i|^p left the floats: 1 1 with warnings, or a bogus cap error
    assert run(capsys, "minima", "--basis", basis, "--body",
               f"ball:p={p}") == (0, values, "")


@pytest.mark.parametrize("argv,digest", [
    (("rogers", "--areas", "5,10,20,40", "--count", "20000", "--json"),
     "e4e00be880b50d05a0065a085be942b0c8c9d5f3044a9f1a5ebd8461689a3163"),
    (("count", "--basis", "1,0;0.5,0.8660254037844386", "--region",
      "disk:r=1.7320508075688772", "--json"),
     "5ed26c881c7a15578ad7bb39dbd5827aebcdcab23174de6fdeb7070e28285965"),
])
def test_mean_value_and_boundary_count_bytes_are_pinned(capsys, argv,
                                                        digest):
    # sha256 of the stdout that listing every point gave, before disks were
    # counted by intervals; the hexagonal disk has lattice points on its
    # circle
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_sample_count_zero_prints_nothing(capsys):
    assert run(capsys, "sample", "--count", "0") == (0, "", "")


@pytest.mark.parametrize("inner,t", [("ball:p=2", 3.0),
                                     ("scale:c=2:hyperbola", 2.0)])
def test_witness_nested_sublevel_body(capsys, inner, t):
    code, out, err = run(capsys, "witness", "--body",
                         f"sublevel:body={inner}:t={t:g}", "--basis",
                         "1,0;0,1", "--shells", "2", "--samples", "3000",
                         "--mc-points", "20000", "--seed", "4", "--json")
    assert code == 0, err
    got = json.loads(out)["result"]["shells"]
    body = sl.sublevel_body(sl.parse_body(inner), t)
    shells = sl.build_shells(body, 2, 2, 20000, 4)
    parts = sl.build_partitions(shells, sl.PipelineConfig(
        body=body, mc_points=20000, partition_points=3000), 4)
    report = sl.extract_witnesses(sl.make_lattice(np.eye(2)), shells, parts)
    assert [(r["rho_in"], r["rho_out"], r["est_volume"], r["stderr"])
            for r in got] == [(s.inner, s.outer, s.est_volume, s.stderr)
                              for s in shells]
    assert [r["quadrant_masses"] for r in got] == [list(p.masses)
                                                   for p in parts]
    assert [r["tuple"]["coeffs"] for r in got if "tuple" in r] == [
        [list(p.coeffs) for p in w.points] for w in report.tuples]
    assert [r["failure"]["empty_quadrants"] for r in got
            if "failure" in r] == [list(q) for _, q in report.failures]


def test_theorem2_budget_above_the_ball_cap(capsys):
    code, out, _ = run(capsys, "theorem2", "--budgets", "10,1000,100000",
                       "--count", "3", "--csv")
    assert code == 0
    meds = [float(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
    assert len(meds) == 3 and meds[2] <= meds[1] <= meds[0]


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(capsys, "minima", "--basis", "1,0;0,1", "--body",
                       "ball:p=2", "--json", "--out", str(target))
    assert code == 0 and out == ""
    env = json.loads(target.read_text())
    assert env["result"]["values"] == [1.0, 1.0]


def test_byte_identical_reruns(capsys):
    argv = ["witness", "--body", "plane", "--basis", "1,0;0,1", "--shells",
            "2", "--samples", "3000", "--mc-points", "20000", "--seed", "9",
            "--json"]
    _, a, _ = run(capsys, *argv)
    _, b, _ = run(capsys, *argv)
    assert a == b
