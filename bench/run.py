"""starlat benchmark: one closed-loop client, one workload per invocation.

    python3 bench/run.py --workload decay --seed 1 --seconds 15 --trace 0

Run from the repository root.  The library is imported from `src/`, and
every end-to-end metric is printed by name with its unit; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed` and
`metrics` (the end-to-end metrics, or with `--trace 1` the per-layer ones).
See bench/README.md for the metric definitions.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported, here and in the set-up
# probes, so the single client owns exactly one core's worth of BLAS work
BLAS_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
os.environ.update(BLAS_PINS)

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import calibrate   # the script's directory is on sys.path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("meanvalue", "decay", "exact_minima", "witness")
DEFAULT_SEED = 1        # for tuning and for reporting
HELD_OUT_SEED = 90417   # kept unused while a change is developed; claims are
                        # confirmed on it
MIN_ROUNDS = 3          # closed loop: at least this many rounds ...
MAX_RUN_FACTOR = 4      # ... and no new round after this many --seconds
SETUP_REPEATS = 7
SETUP_KERNEL = ("mixed", 8)   # calibration kernel on each side of a set-up
# end-to-end metrics that apply to every workload, listed in BENCHMARK.json;
# shells_s and the query_* metrics apply to one workload each and are printed
GATED = ("setup_s", "wall_s", "lattices_per_s", "peak_rss_mb")
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
              "w = workloads.make(sys.argv[3], int(sys.argv[4])); "
              "[w.op_input(k) for k in range(w.ops_per_round)]")


@dataclass
class Op:
    inp: object
    out: object = None
    error: str | None = None
    seconds: list = field(default_factory=list)   # measured, one per round
    slowness: list = field(default_factory=list)  # host's, around each
    phases: list = field(default_factory=list)    # one dict per round

    def _calibrated(self, measured) -> float:
        return statistics.median(t / s for t, s in zip(measured,
                                                       self.slowness))

    @property
    def time(self) -> float:
        """Median calibrated time over the repeats (see calibrate.py); a
        failed operation counts as infinitely slow."""
        return float("inf") if self.error else self._calibrated(self.seconds)

    def phase(self, name) -> float:
        """Median calibrated time of one phase of the operation."""
        return self._calibrated(p[name] for p in self.phases)


def run_rounds(wl, seconds, tracer=None, rounds=None):
    """Closed loop over the workload's round of operations, each issued when
    the previous one returned and the calibration kernel ran.  Rounds repeat
    until --seconds have passed (at least MIN_ROUNDS), or exactly `rounds`
    times.  Returns (ops, rounds run)."""
    ops = [Op(wl.op_input(k)) for k in range(wl.ops_per_round)]
    before = calibrate.slowness(*wl.kernel)
    start = time.perf_counter()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if r == rounds:
                break
        elif (r >= MIN_ROUNDS and elapsed >= seconds) or \
                (r >= 1 and elapsed >= MAX_RUN_FACTOR * seconds):
            break
        for op in ops:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out, phases = wl.run(op.inp)
                else:
                    with tracer.op_span():
                        out, phases = wl.run(op.inp, tracer)
            except Exception as exc:  # a failed operation, counted below
                op.error = f"{type(exc).__name__}: {exc}"
                out, phases = None, {}
            op.seconds.append(time.perf_counter() - t0)
            op.phases.append(phases)
            after = calibrate.slowness(*wl.kernel)
            op.slowness.append(0.5 * (before + after))
            before = after
            if r == 0:
                op.out = out
        r += 1
    return ops, r


def measure_setup(name, seed):
    """Median calibrated wall time of a fresh interpreter importing starlat
    and building the workload's inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = calibrate.slowness(*SETUP_KERNEL)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                        str(BENCH), name, str(seed)], check=True)
        measured = time.perf_counter() - t0
        after = calibrate.slowness(*SETUP_KERNEL)
        times.append(measured / (0.5 * (before + after)))
    return statistics.median(times)


def end_to_end(wl, ops, setup_s):
    """End-to-end metrics as {name: (value, unit)}, from each operation's
    median calibrated time."""
    ok = [op for op in ops if op.error is None]
    wall = sum(op.time for op in ok)
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "lattices_per_s": (wl.lattices_per_op * len(ok) / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "wall_measured_s": (sum(statistics.median(op.seconds) for op in ok),
                            "s"),
        "host_speed": (1.0 / statistics.median(
            s for op in ops for s in op.slowness), "ratio"),
    }
    m.update(wl.extra_metrics(ops))
    return m


def check_ops(wl, ops):
    """Returns (wrong outputs, messages) over the timed operations."""
    wrong, msgs = 0, []
    for k, op in enumerate(ops):
        if op.error:
            msgs.append(f"op {k} raised {op.error}")
            continue
        try:
            errs = wl.check(k, op.inp, op.out)
        except Exception as exc:  # a check that cannot run is a failed check
            errs = [f"check raised {type(exc).__name__}: {exc}"]
        if errs:
            wrong += 1
            msgs += [f"op {k}: {e}" for e in errs]
    return wrong, msgs


def check_reference(wl):
    """Compare the reference set with golden.json.  Returns (attempted,
    raised, wrong, messages)."""
    from workloads import diff

    recorded = json.loads((BENCH / "golden.json").read_text())[wl.name]
    fresh = wl.reference()
    raised = wrong = 0
    msgs = []
    if len(fresh) != len(recorded):
        return len(recorded), 0, len(recorded), ["reference set changed size"]
    for i, (r, f) in enumerate(zip(recorded, fresh)):
        if "error" in f:
            raised += 1
            msgs.append(f"reference {i} raised {f['error']}"
                        + (" (as recorded)" if f == r else ""))
            continue
        errs = diff(r, f)
        if errs and not wl.accepts_change(r, f):
            wrong += 1
            msgs += [f"reference {i}{e}" for e in errs[:5]]
    return len(recorded), raised, wrong, msgs


def environment(args):
    import numpy
    import scipy

    src = hashlib.sha256()
    for p in sorted((SRC / "starlat").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    return {
        "git_sha": sha, "src_sha256": src.hexdigest()[:16],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_pins": {k: os.environ.get(k) for k in BLAS_PINS},
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink each operation (for the benchmark's tests)")
    args = ap.parse_args(argv)

    if not (SRC / "starlat" / "__init__.py").is_file():
        print(f"error: no starlat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import starlat
    import spans
    import workloads

    if Path(starlat.__file__).resolve().parent != SRC / "starlat":
        print(f"error: imported starlat from {starlat.__file__}",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.seed, args.tiny)
    setup_s = measure_setup(args.workload, args.seed)
    ops, rounds = run_rounds(wl, args.seconds)
    if all(op.error for op in ops):
        print(f"error: every operation failed, e.g. {ops[0].error}",
              file=sys.stderr)
        return 1
    e2e = end_to_end(wl, ops, setup_s)

    layers = None
    if args.trace:
        tracer = spans.Tracer()
        with tracer.installed():
            traced, _ = run_rounds(wl, args.seconds, tracer, rounds)
        layers = spans.layer_metrics(tracer, rounds, ops, traced)

    wrong, msgs = check_ops(wl, ops)
    ref_n, ref_raised, ref_wrong, ref_msgs = check_reference(wl)
    raised = sum(op.error is not None for op in ops)
    attempted = len(ops) + ref_n
    failed = raised + wrong + ref_raised + ref_wrong

    print("env " + json.dumps(environment(args), sort_keys=True))
    for m in (msgs + ref_msgs)[:40]:
        print("check: " + m)
    print(f"workload {wl.name}: {len(ops)} operations x {rounds} rounds, "
          f"{ref_n} reference operations")
    for name, (value, unit) in e2e.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted})")
    if layers:
        for name, (value, unit) in layers.items():
            print(f"{name} {value:.6g} {unit}")
    chosen = layers if layers else {
        k: v for k, v in e2e.items() if k in GATED}
    print(json.dumps({
        "correct": wrong + ref_wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
