"""Command-line front door: reproducible seeded runs with JSON/CSV reports.

Every invocation with the same flags and seed produces byte-identical
output.  Exit codes: 0 success, 2 precondition/usage violation, 3 budget
exhaustion.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from .bodies import inflate_body, parse_body, parse_witness_set
from .errors import BudgetExceeded, StarlatError
from .haar import sample_unimodular_2d_arrays, sample_unimodular_2d
from .lattice import golden_lattice, make_lattice, parse_basis, perturb_basis
from .minima import minima_upper_bound, semicontinuity_probe, \
    successive_minima_exact
from .partition import (PipelineConfig, build_partitions, build_shells,
                        extract_witnesses)
from .stats import (count_primitive, disk_region, parse_region,
                    rogers_moment_report, theorem2_experiment)


def _plain(obj):
    """Recursively convert reports to JSON-safe plain data."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _plain(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, (np.generic, np.ndarray)):
        return _plain(obj.tolist())
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
    return obj


def _envelope(command: str, args_dict: dict, result) -> dict:
    cfg = json.dumps(_plain(args_dict), sort_keys=True,
                     separators=(",", ":"))
    return {
        "command": command,
        "version": __version__,
        "seed": args_dict.get("seed"),
        "config_hash": hashlib.sha256(cfg.encode()).hexdigest()[:16],
        "result": _plain(result),
    }


def _csv_rows(rows: list[dict]) -> str:
    cols = list(rows[0]) if rows else []
    lines = [cols] + [[str(_plain(row[c])) for c in cols] for row in rows]
    return "".join(",".join(v) + "\n" for v in lines)


def _fmt(v: float) -> str:
    return "inf" if math.isinf(v) else f"{v:g}"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_minima(args):
    L = make_lattice(parse_basis(args.basis))
    body = parse_body(args.body, L.dim)
    if args.budget is not None:
        res = minima_upper_bound(body, L, args.budget)
    else:
        res = successive_minima_exact(body, L)
    plain = " ".join(_fmt(v) for v in res.values) + "\n"
    rows = [{"i": i + 1, "value": v} for i, v in enumerate(res.values)]
    return res, plain, rows


def _cmd_sample(args):
    x, y, rot, bases = sample_unimodular_2d_arrays(args.count, args.seed)
    result = [{"x": float(a), "y": float(b), "rotation": float(r),
               "basis": B.tolist()} for a, b, r, B in zip(x, y, rot, bases)]
    plain = "".join(
        json.dumps(_plain(r), sort_keys=True, separators=(",", ":")) + "\n"
        for r in result)
    rows = [{"x": r["x"], "y": r["y"], "rotation": r["rotation"],
             "b00": r["basis"][0][0], "b10": r["basis"][1][0],
             "b01": r["basis"][0][1], "b11": r["basis"][1][1]}
            for r in result]
    return result, plain, rows


def _cmd_count(args):
    L = make_lattice(parse_basis(args.basis))
    region = parse_region(args.region)
    n = count_primitive(L, region)
    return {"count": n, "region": region.spec}, f"{n}\n", [{"count": n}]


def _cmd_rogers(args):
    regions = []
    if args.areas:
        for a in args.areas.split(","):
            if not 0.0 < float(a) < math.inf:
                raise ValueError(f"--areas needs positive finite areas, "
                                 f"got {a!r}")
            regions.append(disk_region(math.sqrt(float(a) / math.pi)))
    for spec in args.region or []:
        regions.append(parse_region(spec))
    if not regions:
        raise ValueError("give --areas or --region")
    rep = rogers_moment_report(regions, args.count, args.seed,
                               keep_counts=False)
    rows = [{"spec": e.spec, "area": e.area, "mean": e.mean,
             "mean_stderr": e.mean_stderr, "center": e.center,
             "m2": e.second_moment, "ratio_volume": e.ratio_volume,
             "ratio_schmidt": e.ratio_schmidt} for e in rep.entries]
    return rep, _csv_rows(rows), rows


def _cmd_witness(args):
    body = parse_witness_set(args.body)
    L = (make_lattice(parse_basis(args.basis)) if args.basis
         else sample_unimodular_2d(args.seed))
    config = PipelineConfig(body=body, mc_points=args.mc_points,
                            partition_points=args.samples)
    shells = build_shells(body, 2, args.shells, args.mc_points, args.seed)
    partitions = build_partitions(shells, config, args.seed)
    report = extract_witnesses(L, shells, partitions)
    by_shell = {t.shell_index: t for t in report.tuples}
    fail_by_shell = {n: quads for n, quads in report.failures}
    records = []
    for shell, part in zip(shells, partitions):
        rec = {
            "n": shell.index, "rho_in": shell.inner, "rho_out": shell.outer,
            "est_volume": shell.est_volume, "stderr": shell.stderr,
            "quadrant_masses": list(part.masses),
        }
        if shell.index in by_shell:
            t = by_shell[shell.index]
            rec["tuple"] = {"points": [list(p.coords) for p in t.points],
                            "coeffs": [list(p.coeffs) for p in t.points],
                            "quadrants": list(t.quadrants)}
        else:
            rec["failure"] = {"empty_quadrants":
                              list(fail_by_shell.get(shell.index, ()))}
        records.append(rec)
    rows = [{"n": r["n"], "rho_in": r["rho_in"], "rho_out": r["rho_out"],
             "est_volume": r["est_volume"], "stderr": r["stderr"],
             "ok": int("tuple" in r)} for r in records]
    return {"basis": L.basis.tolist(), "shells": records}, _csv_rows(rows), \
        rows


def _cmd_probe(args):
    with open(args.config) as fh:
        cfg = json.load(fh)
    for key in ("body", "basis"):
        if not isinstance(cfg, dict) or key not in cfg:
            raise ValueError(f"probe config {args.config!r} is missing the "
                             f"required key {key!r}")
        if not isinstance(cfg[key], str):
            raise ValueError(f"probe config key {key!r} must be a string")

    def value(key, kind, default):
        try:
            return kind(cfg.get(key, default))
        except (TypeError, OverflowError):
            raise ValueError(f"probe config key {key!r} must be a number, "
                             f"got {cfg[key]!r}") from None

    L = (golden_lattice() if cfg["basis"] == "golden"
         else make_lattice(parse_basis(cfg["basis"])))
    f = parse_body(cfg["body"], L.dim)
    n_max = value("n_max", int, 16)
    spec = value("slack", str, "10/n")  # "C/n" or a constant "C"
    c = float(spec.removesuffix("/n"))
    slack = (lambda n: c / n) if spec.endswith("/n") else (lambda n: c)
    budget = value("budget", float, 50.0)
    seed = value("seed", int, args.seed)
    scale = value("perturb_scale", float, 1.0)
    seqs = {"body_seq": {"inflate": lambda n: inflate_body(f, 1.0 + 1.0 / n),
                         "fixed": lambda n: f},
            "lattice_seq": {"perturb": lambda n: perturb_basis(L, scale / n,
                                                               seed + n),
                            "fixed": lambda n: L}}
    for key, kinds in seqs.items():
        kind = cfg.get(key, "fixed")
        if not isinstance(kind, str) or kind not in kinds:
            raise ValueError(f"unknown {key} {kind!r}")
    f_seq, L_seq = (seqs[k][cfg.get(k, "fixed")] for k in seqs)
    rep = semicontinuity_probe(f_seq, L_seq, f, L, n_max, slack=slack,
                               budget=budget)
    rows = [{"n": e.n, "values": ";".join(_fmt(v) for v in e.values),
             "exact": int(e.exact), "slack": e.slack,
             "upper_ok": int(e.upper_ok), "converged": int(e.converged),
             "error": e.error or ""} for e in rep.entries]
    return rep, _csv_rows(rows), rows


def _cmd_theorem2(args):
    body = parse_body(args.body)
    budgets = [float(b) for b in args.budgets.split(",")]
    rep = theorem2_experiment(body, budgets, args.count, args.seed)
    rows = []
    for j, b in enumerate(rep.budgets):
        row = {"budget": b, "median_lambda2": rep.median_curve[j]}
        for t, fr in zip(rep.thresholds, rep.fraction_below):
            row[f"frac_below_{t:g}"] = fr[j]
        rows.append(row)
    slim = dataclasses.replace(rep, lambda2=())  # keep reports compact
    return slim, _csv_rows(rows), rows


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="starlat")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, handler):
        sp.set_defaults(handler=handler)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--csv", action="store_true")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("minima", help="successive minima of a body w.r.t. "
                        "a lattice")
    sp.add_argument("--basis", required=True)
    sp.add_argument("--body", required=True)
    sp.add_argument("--budget", type=float, default=None)
    common(sp, _cmd_minima)

    sp = sub.add_parser("sample", help="Haar-random unimodular planar "
                        "lattices")
    sp.add_argument("--count", type=int, default=1)
    common(sp, _cmd_sample)

    sp = sub.add_parser("count", help="primitive points in a region")
    sp.add_argument("--basis", required=True)
    sp.add_argument("--region", required=True)
    common(sp, _cmd_count)

    sp = sub.add_parser("rogers", help="mean-value moment report")
    sp.add_argument("--areas", default=None)
    sp.add_argument("--region", action="append", default=None)
    sp.add_argument("--count", type=int, default=10**4)
    common(sp, _cmd_rogers)

    sp = sub.add_parser("witness", help="shell + equipartition witness "
                        "pipeline")
    sp.add_argument("--body", default="plane")
    sp.add_argument("--basis", default=None)
    sp.add_argument("--shells", type=int, default=3)
    sp.add_argument("--samples", type=int, default=10**4)
    sp.add_argument("--mc-points", type=int, default=10**5)
    common(sp, _cmd_witness)

    sp = sub.add_parser("probe", help="semicontinuity probe from a config "
                        "file")
    sp.add_argument("--config", required=True)
    common(sp, _cmd_probe)

    sp = sub.add_parser("theorem2", help="budgeted minima decay over Haar "
                        "lattices")
    sp.add_argument("--body", default="hyperbola")
    sp.add_argument("--budgets", default="10,100,1000")
    sp.add_argument("--count", type=int, default=100)
    common(sp, _cmd_theorem2)

    return p


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, plain, rows = args.handler(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (StarlatError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        env = _envelope(args.command,
                        {k: v for k, v in vars(args).items()
                         if k not in ("json", "csv", "out", "handler")},
                        result)
        text = json.dumps(env, sort_keys=True, indent=2) + "\n"
    elif args.csv:
        text = _csv_rows(rows)
    else:
        text = plain
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
