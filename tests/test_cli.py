import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starlat as sl
from starlat import lattice
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


@pytest.mark.parametrize("extra", [{}, {"dim": 2}, {"dim": 0}])
def test_probe_body_takes_the_basis_dimension(tmp_path, capsys, extra):
    # a "dim" key is ignored: the body lives in the space of the basis
    basis = ("0.626927,-0.2816,0.438389;0.855378,0.485985,0.199299;"
             "-0.449946,-0.90878,-0.674933")
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"body": "ball:p=8", "basis": basis,
                                "n_max": 1, **extra}))
    code, out, err = run(capsys, "probe", "--config", str(path), "--json")
    assert (code, err) == (0, "")
    want = sl.successive_minima_exact(sl.pnorm_ball(3, 8),
                                      sl.make_lattice(sl.parse_basis(basis)))
    got = json.loads(out)["result"]
    assert got["reference"] == list(want.values)
    assert got["reference_exact"] is True


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
    (("rogers", "--region", "disk:r=1e-300", "--count", "1000"),
     "region spec 'disk:r=1e-300' has zero area"),
    (("rogers", "--region", "annulus:r0=0:r1=1e-300", "--count", "1000"),
     "region spec 'annulus:r0=0:r1=1e-300' has zero area"),
    (("rogers", "--region", "box:a=1e-300", "--count", "1000"),
     "region spec 'box:a=1e-300' has zero area"),
    (("minima", "--basis", "1,0;0,1", "--body", "ball:p=2:x"),
     "unexpected 'x' in spec 'ball:p=2:x'"),
    (("minima", "--basis", "1,0;0,1", "--body", "scale:x=1:ball:p=2"),
     "spec 'scale:x=1:ball:p=2' is missing the option c="),
    (("witness", "--body", "plane:x"), "unexpected 'x' in spec 'plane:x'"),
    (("witness", "--body", "sublevel:body=hyperbola:x=1:t=1"),
     "unexpected 'x=1' in spec 'sublevel:body=hyperbola:x=1:t=1'"),
    (("rogers", "--region", "sublevel:body=hyperbola:t=1:clip=1e200"),
     "region spec 'sublevel:body=hyperbola:t=1:clip=1e+200' has no finite "
     "area"),
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
    (("theorem2", "--budgets", "1e308"), "leaves the float range"),
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
    # Gram entries of the basis overflow (numpy warnings before)
    (("count", "--basis", "1.35e154,0;0,1e154", "--region", "disk:r=40"),
     "basis entries >= 2^510 leave the float range"),
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


@pytest.mark.parametrize("basis,body,values", [
    ("1,0;0,1", "scale:c=1e7:ball:p=2", "1e-07 1e-07\n"),
    ("1,0,0;0,1,0;0,0,1", "scale:c=1e7:ball:p=2", "1e-07 1e-07 1e-07\n"),
    ("1,0;0,1", "scale:c=1e300:ball:p=2", "1e-300 1e-300\n"),
    # random_unimodular(3, 5, 40), reduced by LLL to a signed permutation
    ("349,-1710,1952;208,-1019,1163;464,-2273,2594", "ball:p=2", "1 1 1\n"),
    # far from round: every reduced basis has a column (+-0.5, 1) with f
    # about 7.4e5 (p = 0.05) or 730 (p = 0.1), so the radius doubles from
    # det^(1/d) / floor = 1 to 4, a ball of 53 points
    ("1,0;0.5,1", "ball:p=0.05", "1 2\n"),
    ("1,0;0.5,1", "ball:p=0.1", "1 2\n"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_minima_start_from_the_reduced_basis(capsys, basis, body, values):
    # the search started at radius det^(1/d) / floor, 1e7 for the first
    # body: "predicted point count 3.14e+14 exceeds cap" (exit 3); it takes
    # 1.001 max f(w_i) / floor over the reduced basis when that is at most
    # twice as large
    assert run(capsys, "minima", "--basis", basis, "--body",
               body) == (0, values, "")


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


# ---------------------------------------------------------------------------
# fuzz: hostile tokens through every subcommand

_GOLDEN = "1,1;1.618033988749895,-0.618033988749895"
_BASIS_3D = ("0.626927,-0.2816,0.438389;0.855378,0.485985,0.199299;"
             "-0.449946,-0.90878,-0.674933")
_NUMS = ("nan", "inf", "-inf", "0", "-1", "1e300", "-1e300", "1e-300",
         "1e-320", "", "0.5", "1", "2.5", "12")
_BASES = ("1,0;0,1", _GOLDEN, "1", "1,0,0;0,1,0;0,0,1", _BASIS_3D, "1,1;1,1",
          "1e200,0;0,1e200", "1e-200,0;0,1e-200", "1e200,1e200;1e200,1e200",
          "1.35e154,0;0,1e154", "nan,0;0,1", "inf,0;0,1", "", "1,0;1",
          "1,0;;0,1", "1e-320,0;0,1")

_num = st.sampled_from(_NUMS)
_body = st.one_of(
    st.sampled_from(("ball:p=2", "box", "hyperbola", "plane", "ball",
                     "scale:c=2", "ball:p=2:p=3", "", "cube")),
    _num.map("ball:p={}".format), _num.map("scale:c={}:ball:p=2".format),
    _num.map("scale:c={}:hyperbola".format))
_region = st.one_of(
    st.sampled_from(("disk", "disk:r=2:r=3", "", "box:a=2")),
    _num.map("disk:r={}".format), _num.map("box:a={}".format),
    st.tuples(_num, _num).map(lambda t: "annulus:r0={}:r1={}".format(*t)),
    st.tuples(_body, _num, _num).map(
        lambda t: "sublevel:body={}:t={}:clip={}".format(*t)))


def _opts(required, optional):
    """argv tail: every required option once, then optional (flag, value)
    pairs that may repeat any option."""
    options = {**required, **optional}
    pairs = st.lists(st.one_of(*(st.tuples(st.just(k), v)
                                 for k, v in options.items())), max_size=3)
    return st.tuples(st.fixed_dictionaries(required), pairs).map(
        lambda t: [a for kv in (*t[0].items(), *t[1]) for a in kv])


_common = {"--seed": st.sampled_from(("0", "7", "-1", "nan", "2e9",
                                      "4294967296"))}
_config = st.one_of(
    st.sampled_from(([], "x", 1, None)),
    st.fixed_dictionaries({}, optional={
        "body": st.one_of(_body, st.sampled_from((5, None))),
        "basis": st.one_of(st.sampled_from(_BASES + ("golden",)),
                           st.sampled_from((7, ["1,0;0,1"]))),
        "n_max": st.sampled_from((-1, 0, 1, 3, "2", "x", None, [1], 2.5,
                                  math.nan, math.inf)),
        "slack": st.sampled_from(("10/n", "0", "nan", "-1", "x/n", 5, None)),
        "budget": st.one_of(_num, st.sampled_from(
            (None, 3, 1e300, math.nan, -math.inf))),
        "seed": st.sampled_from((0, -1, 2**70, "x", None, 1.5)),
        "perturb_scale": st.one_of(_num,
                                   st.sampled_from((None, [], 1e-3))),
        "body_seq": st.sampled_from(("inflate", "fixed", "x", 1)),
        "lattice_seq": st.sampled_from(("perturb", "fixed", "x", None)),
        "dim": st.sampled_from((0, 2, 3, -1, "x")),
    }))
# an option whose default is large (rogers' 10^4 lattices, theorem2's 100,
# witness's 3 shells and 10^5 Monte Carlo points) is always drawn
_COMMANDS = {
    "minima": _opts({"--basis": st.sampled_from(_BASES), "--body": _body},
                    {"--budget": _num, **_common}),
    "sample": _opts({}, {"--count": st.sampled_from(
        ("-1", "0", "1", "3", "1500", "nan", "1e300", "")), **_common}),
    "count": _opts({"--basis": st.sampled_from(_BASES), "--region": _region},
                   _common),
    "rogers": _opts({"--count": st.sampled_from(
        ("1000", "1500", "999", "0", "-1", "x"))},
        {"--areas": st.lists(_num, min_size=1, max_size=3).map(",".join),
         "--region": _region, **_common}),
    "witness": _opts({"--shells": st.sampled_from(("-1", "0", "1", "2")),
                      "--samples": st.sampled_from(
                          ("-1", "0", "1", "100", "2000")),
                      "--mc-points": st.sampled_from(
                          ("-1", "0", "1", "100", "2000"))},
                     {"--body": st.one_of(_body, st.tuples(_body, _num).map(
                         lambda t: "sublevel:body={}:t={}".format(*t))),
                      "--basis": st.sampled_from(_BASES), **_common}),
    "probe": _opts({"--config": _config}, _common),
    "theorem2": _opts({"--count": st.sampled_from(
        ("-1", "0", "1", "3", "40", "nan"))},
        {"--body": _body, "--budgets": st.lists(_num, min_size=1,
                                                max_size=3).map(",".join),
         **_common}),
}
_argv = st.one_of(*(tail.map(lambda t, c=c: [c, *t])
                    for c, tail in _COMMANDS.items()))
_fmt = st.sampled_from(((), ("--json",), ("--csv",)))


def _fuzz_examples():
    """The inputs behind the exit-code fixes (overflowing sizes, extreme p,
    empty results, repeated options), the CI bad-input list and the crashes
    that fuzzing found."""
    cases = [["minima", "--basis", b, "--body", "ball:p=2"] for b in (
        "1e200,0;0,1e200", "1e-200,0;0,1e-200", "1,1;1,1",
        "1e200,1e200;1e200,1e200", "1.35e154,0;0,1e154")]
    cases += [["minima", "--basis", "1,0;0,1", "--body", b] for b in (
        "scale:c=2", "ball:p=0", "ball:p=-1", "scale:c=nan:ball:p=2",
        "hyperbola")]
    cases += [["minima", "--basis", basis, "--body", f"ball:p={p}"]
           for basis, p in (("0.5,0;0,0.5", "1e-300"), ("2,0;0,2", "2000"),
                            ("2,0;0,2", "1e300"), (_GOLDEN, "1e-300"))]
    cases += [["minima", "--basis", "1,0;0,1", "--body", "hyperbola",
            "--budget", "1e300"],
           ["minima", "--basis", _GOLDEN, "--body", "hyperbola",
            "--budget", "1e9"],
           ["minima", "--basis", _GOLDEN, "--body", "hyperbola",
            "--budget", "50"]]
    cases += [["count", "--basis", b, "--region", r] for b, r in (
        ("1,0;0,1", "disk:r=1e308"), ("1,0;0,1", "annulus:r0=1e200:r1=1e300"),
        ("1,0,0;0,1,0;0,0,1", "box:a=2"), ("1,0;0,1", "disk:r=2:r=3"),
        ("1,0;0,1", "disk:r=2.5"), ("1.35e154,0;0,1e154", "disk:r=40"))]
    cases += [["rogers", "--region", r, "--count", "1000"] for r in (
        "box:a=1e300", "disk:r=1e-300", "annulus:r0=0:r1=1e-300",
        "box:a=1e-300", "box:a=1e3", "sublevel:body=hyperbola:t=1e-300:"
        "clip=1")]
    cases += [["rogers", "--areas", "5,10,20,40", "--count", "1000"],
           ["witness", "--shells", "0"], ["witness", "--shells", "-1"],
           ["witness", "--body", "ball:p=2", "--mc-points", "0"],
           ["witness", "--body", "plane", "--shells", "2", "--samples",
            "2000", "--mc-points", "2000", "--seed", "1"],
           ["theorem2", "--budgets", "1e308"],
           ["theorem2", "--budgets", "1e40"],
           ["theorem2", "--budgets", "10,100,1000", "--count", "40"],
           ["sample", "--count", "10", "--seed", "7"]]
    for cfg in ({"body": "ball:p=2", "basis": 7},
                {"body": "ball:p=8", "basis": "1,0;0,1", "dim": 0},
                {"body": "ball:p=8", "basis": _BASIS_3D, "n_max": 1},
                {"body": "ball:p=2", "basis": "1,0;0,1", "n_max": 3,
                 "slack": "10/n", "body_seq": "inflate",
                 "lattice_seq": "perturb", "perturb_scale": 0.5},
                {"body": "hyperbola", "basis": "golden", "n_max": 2}):
        cases.append(["probe", "--config", cfg])
    return cases


def _with_examples(test):
    for argv in _fuzz_examples():
        test = example(argv=argv, fmt=())(test)
    return test


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=600, deadline=None)
@given(argv=_argv, fmt=_fmt)
@_with_examples
def test_cli_fuzz_ends_in_an_exit_code_and_at_most_one_error_line(
        tmp_path_factory, argv, fmt):
    # any input ends with exit code 0, 2 or 3 and at most one error line,
    # never a traceback; a smaller point cap keeps every draw small
    argv = list(argv)
    for i in range(1, len(argv)):
        if argv[i - 1] == "--config":  # a probe config file holding argv[i]
            path = tmp_path_factory.mktemp("probe") / "probe.json"
            path.write_text(json.dumps(argv[i]))
            argv[i] = str(path)
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), \
            redirect_stderr(err):
        mp.setattr(lattice, "DEFAULT_POINT_CAP", 10**5)
        try:
            code = run_cli(argv + list(fmt))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert err.getvalue().count("error:") <= 1, err.getvalue()
    if code:
        assert "error:" in err.getvalue()
