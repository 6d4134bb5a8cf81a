"""The benchmark's four workloads.

Each workload turns (seed, k) into the inputs of its k-th operation, runs
that operation through starlat's public functions only, and checks the
outputs: cheap invariants on every operation, a brute-force oracle
(`oracle.py`) on a subsample, and exact agreement with the outputs recorded
when the benchmark was added (`golden.json`) on a fixed reference set.

Module attributes are looked up at call time (`stats.rogers_moment_report`,
not a name imported here), so the traced run sees the wrappers that
`spans.Tracer.installed` puts in place.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

from starlat import bodies, haar, lattice, minima, partition, stats

import oracle

ZETA2 = math.pi ** 2 / 6.0
GOLDEN_SEED = 20240824


def op_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def close(a: float, b: float) -> bool:
    """Agreement to 1e-12 (relative above 1); infinities must match."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= 1e-12 * max(1.0, abs(b))


def diff(recorded, fresh, path="") -> list[str]:
    """Mismatches between two JSON-like values: ints and strings exactly,
    floats to 1e-12."""
    if isinstance(recorded, dict) and isinstance(fresh, dict):
        if recorded.keys() != fresh.keys():
            return [f"{path}: keys {sorted(fresh)} != {sorted(recorded)}"]
        return [m for k in recorded
                for m in diff(recorded[k], fresh[k], f"{path}.{k}")]
    if isinstance(recorded, list) and isinstance(fresh, list):
        if len(recorded) != len(fresh):
            return [f"{path}: length {len(fresh)} != {len(recorded)}"]
        return [m for i, (r, f) in enumerate(zip(recorded, fresh))
                for m in diff(r, f, f"{path}[{i}]")]
    if isinstance(recorded, float) or isinstance(fresh, float):
        ok = (isinstance(fresh, (int, float)) and not isinstance(fresh, bool)
              and close(float(fresh), float(recorded)))
    else:
        ok = type(recorded) is type(fresh) and recorded == fresh
    return [] if ok else [f"{path}: {fresh!r} != recorded {recorded!r}"]


def _pnorm(p):
    if p == math.inf:
        return lambda x: np.abs(x).max(axis=-1)
    return lambda x: (np.abs(x) ** p).sum(axis=-1) ** (1.0 / p)


def _hyperbola(x):
    return np.abs(x[:, 0] * x[:, 1]) ** 0.5


class Workload:
    name = ""
    lattices_per_op = 1
    ops_per_round = 1   # operations per round; every round repeats them
    # calibration kernel (see calibrate.py) and its calls between two
    # operations, about a tenth of an operation's time or more
    kernel = ("mixed", 1)

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed

    def op_input(self, k: int):
        raise NotImplementedError

    def run(self, inp, tracer=None):
        """One operation; returns (output, {phase name: seconds})."""
        raise NotImplementedError

    def check(self, k: int, inp, out) -> list[str]:
        raise NotImplementedError

    def reference(self) -> list:
        """JSON-like outputs of the fixed reference set, one item per
        operation; a raising operation gives {"error": <exception type>}."""
        raise NotImplementedError

    def accepts_change(self, recorded, fresh) -> bool:
        """Whether a reference item that differs from the recording is still
        a correct answer (e.g. an input that failed when it was recorded)."""
        return False

    def extra_metrics(self, ops) -> dict:
        """Metrics of this workload only, {name: (value, unit)}, from the
        timed operations (see run.Op)."""
        return {}


class MeanValue(Workload):
    """Why: the Rogers/Schmidt mean values are many tiny 2D enumerations
    (about 3-25 points each), so per-call overhead in `lattice` and `stats`
    dominates.  Batched 2D kernels (roadmap item 3) target it; the
    hyperbolic-cross enumeration (item 2) bypasses it, so the prediction for
    item 2 here is no change."""

    name = "meanvalue"
    AREAS = (5.0, 10.0, 20.0, 40.0)
    N = 1000            # rogers_moment_report's minimum sample size
    ORACLE_LATTICES = 20
    # one disk per operation keeps operations short (about 0.1 s), so each
    # repeats often; a lattice counts once all four disks are done
    lattices_per_op = N / len(AREAS)
    ops_per_round = 2 * len(AREAS)
    kernel = ("mixed", 4)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.radii = [math.sqrt(a / math.pi) for a in self.AREAS]
        self.regions = [stats.disk_region(r) for r in self.radii]

    def op_input(self, k):
        """(disk index, seed of the Haar lattices)."""
        a, j = k % len(self.AREAS), k // len(self.AREAS)
        return a, op_seed(self.seed, j)

    def run(self, inp, tracer=None):
        a, s = inp
        return stats.rogers_moment_report([self.regions[a]], self.N, s), {}

    def check(self, k, inp, rep):
        a, s = inp
        errs = []
        if len(rep.entries) != 1:
            return [f"{len(rep.entries)} entries for one region"]
        bases = haar.sample_unimodular_2d_arrays(self.N, s)[3]
        rng = np.random.default_rng(s)
        sub = rng.choice(self.N, self.ORACLE_LATTICES, replace=False)
        for r, area, e in zip(self.radii[a:a + 1], self.AREAS[a:a + 1],
                              rep.entries):
            counts = np.array(e.counts)
            center = area / ZETA2
            if (len(counts) != self.N or not close(e.mean, counts.mean())
                    or not close(e.center, center)
                    or not close(e.second_moment,
                                 float(np.mean((counts - center) ** 2)))):
                errs.append(f"{e.spec}: moments disagree with the counts")
            for i in sub:
                want = oracle.primitive_count(
                    bases[i], lambda x: (x * x).sum(axis=1) <= r * r, r)
                if counts[i] != want:
                    errs.append(f"{e.spec} lattice {i}: count {counts[i]} "
                                f"!= brute force {want}")
        return errs

    def reference(self):
        rep = stats.rogers_moment_report(self.regions, self.N, GOLDEN_SEED)
        return [{"counts": list(e.counts), "mean": e.mean,
                 "second_moment": e.second_moment} for e in rep.entries]


class Decay(Workload):
    """Why: budgeted decay of lambda-hat_2 for the hyperbola body needs one
    huge 2D ball per lattice (about 3.1M points at budget 1000, ~0.9 s and
    ~450 MB peak), so enumeration volume, body evaluation and the
    lambda-hat_2 selection dominate.  Item 2 targets it; `meanvalue`
    bypasses that mechanism."""

    name = "decay"
    N = 1   # lattices per theorem2_experiment call
    ops_per_round = 3
    kernel = ("arrays", 4)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.budgets = (10.0, 100.0) if tiny else (10.0, 100.0, 1000.0)
        self.body = bodies.hyperbolic(2)

    def op_input(self, k):
        return op_seed(self.seed, k)

    def run(self, s, tracer=None):
        body = tracer.body(self.body) if tracer else self.body
        return stats.theorem2_experiment(body, self.budgets, self.N, s), {}

    def check(self, k, s, rep):
        errs = []
        bases = haar.sample_unimodular_2d_arrays(self.N, s)[3]
        if len(rep.lambda2) != self.N:
            return [f"{len(rep.lambda2)} rows for {self.N} lattices"]
        for B, row in zip(bases, rep.lambda2):
            if any(b > a for a, b in zip(row, row[1:])):
                errs.append(f"lambda-hat_2 increases with the budget: {row}")
            small = [b for b in self.budgets if b <= 100.0]
            want = oracle.lambda2_at_budgets(B, _hyperbola, small)
            if not all(close(v, w) for v, w in zip(row, want)):
                errs.append(f"lambda-hat_2 {row[:len(want)]} != brute force "
                            f"{want}")
        return errs

    def reference(self):
        out = []
        for budgets, n in (((10.0, 100.0, 1000.0), 1), ((10.0, 100.0), 20)):
            rep = stats.theorem2_experiment(self.body, budgets, n, GOLDEN_SEED)
            out.append({"lambda2": [list(r) for r in rep.lambda2]})
        return out


class ExactMinima(Workload):
    """Why: single exact-minima queries use `lattice` unlike the Monte Carlo
    workloads: small radii, radius doubling, the recursive d >= 3 path and
    exact-rank selection, on well-conditioned 2D and 3D lattices and on
    skewed integer unimodular 3D bases whose answer is known to be (1, 1, 1).
    It reports per-query latency; items 4 and 5 target it, and it guards
    single-query latency against a batched 2D rewrite.  Skewed bases that
    starlat rejects today (SingularBasis) stay in and count as failed."""

    name = "exact_minima"
    PS = (1.0, 2.0, math.inf)
    FAMILIES = ("2d", "3d", "skew")
    # Skewed bases come from a fixed pool, not from the run's seed: their
    # cost is heavy-tailed (at steps >= 40 the slowest 5 of 60 draws carry
    # about 60% of the time), so seed-drawn bases would make throughput
    # depend on the draw rather than on the code.  A round is one cycle of
    # the pool (162 queries, a few seconds, so each query repeats often).
    # The pool holds random_unimodular(3, seed=5, steps=60),
    # which raises SingularBasis when the benchmark was added.
    SKEW_POOL = tuple((s, steps) for s in (3, 4, 5)
                      for steps in (10, 20, 30, 40, 50, 60))
    ops_per_round = 9 * len(SKEW_POOL)
    ORACLE_STRIDE = 5
    KNOWN_FAILING = ((5, 60),)

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.bodies = {(d, p): bodies.pnorm_ball(d, p)
                       for d in (2, 3) for p in self.PS}
        if tiny:
            self.ops_per_round = 9

    def op_input(self, k):
        r, j = divmod(k, 9)
        family, p = self.FAMILIES[j // 3], self.PS[j % 3]
        if family == "skew":
            s, steps = self.SKEW_POOL[r % len(self.SKEW_POOL)]
            return family, p, lattice.random_unimodular(3, s, steps)
        d = 2 if family == "2d" else 3
        rng = np.random.default_rng(op_seed(self.seed, k))
        Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        T = np.triu(rng.uniform(-0.5, 0.5, (d, d)), 1) \
            + np.diag(rng.uniform(0.7, 1.4, d))
        return family, p, Q @ T

    def extra_metrics(self, ops):
        ms = sorted(1e3 * op.time for op in ops)
        # p90 has at least 10 samples above it from 100 queries on
        return {"query_p50_ms": (statistics.median(ms), "ms"),
                "query_p90_ms": (statistics.quantiles(
                    ms, n=10, method="inclusive")[8], "ms"),
                "query_samples": (len(ms), "count")}

    def run(self, inp, tracer=None):
        _, p, B = inp
        f = self.bodies[(B.shape[0], p)]
        if tracer:
            f = tracer.body(f)
        return minima.successive_minima_exact(f, lattice.make_lattice(B)), {}

    def check(self, k, inp, res):
        family, p, B = inp
        B = np.asarray(B, dtype=float)
        d = B.shape[0]
        vals = list(res.values)
        if not res.exact or len(vals) != d or vals != sorted(vals):
            return [f"{family} p={p}: malformed result {vals}"]
        errs = []
        chosen = []
        for v, w in zip(vals, res.witnesses):
            x = B @ np.array(w.coeffs, dtype=float)
            if not np.allclose(x, w.coords, rtol=1e-12, atol=1e-12):
                errs.append(f"witness coords {w.coords} != B @ {w.coeffs}")
            if not close(float(_pnorm(p)(x)), v):
                errs.append(f"witness value {v} != f(witness)")
            if not oracle.independent(chosen, w.coeffs):
                errs.append(f"witnesses {res.witnesses} are dependent")
            chosen.append(w.coeffs)
        if family == "skew":
            if not all(close(v, 1.0) for v in vals):
                errs.append(f"unimodular basis gave {vals}, not all 1")
        elif k % self.ORACLE_STRIDE == 0:
            # every point with f <= lambda_d has norm <= lambda_d / floor
            floor = 1.0 / math.sqrt(d) if p == math.inf else 1.0
            coeffs, coords = oracle.ball_points(B, vals[-1] / floor)
            want = oracle.minima_values(coeffs, _pnorm(p)(coords), d)
            if not all(close(v, w) for v, w in zip(vals, want)):
                errs.append(f"{family} p={p}: minima {vals} != brute force "
                            f"{want}")
        return errs

    def _reference_inputs(self):
        ref = ExactMinima(GOLDEN_SEED)
        inputs = [ref.op_input(k) for k in range(2 * 9)]
        inputs += [("skew", p, lattice.random_unimodular(3, s, steps))
                   for s, steps in self.KNOWN_FAILING for p in self.PS]
        return inputs

    def reference(self):
        out = []
        for inp in self._reference_inputs():
            try:
                res, _ = self.run(inp)
            except Exception as exc:  # recorded, compared like an output
                out.append({"error": type(exc).__name__})
                continue
            out.append({"values": list(res.values),
                        "coeffs": [list(w.coeffs) for w in res.witnesses]})
        return out

    def accepts_change(self, recorded, fresh):
        # a unimodular basis rejected when recorded may be accepted
        # later; its answer is known
        return ("error" in recorded and "values" in fresh
                and all(close(v, 1.0) for v in fresh["values"]))


class Witness(Workload):
    """Why: the only workload that runs `partition`: Monte Carlo shell
    certification, two-line equipartition, the transversal check and
    per-lattice witness extraction, for the plane (n up to 10) and for the
    hyperbola sublevel set f <= 2 (n up to 5).  Shell certification with
    2e4 Monte Carlo points per annulus estimate costs about 1.3 s for both
    bodies; extraction about a millisecond per lattice and body."""

    name = "witness"
    BODIES = ("plane", "hyperbola")
    LINES = 1000
    ops_per_round = 2 * len(BODIES)
    kernel = ("blend", 1)
    ORACLE_LATTICES = 3

    def __init__(self, seed, tiny=False):
        super().__init__(seed, tiny)
        self.hyperbola = bodies.hyperbolic(2)
        self.n_max = {"plane": 3, "hyperbola": 2} if tiny \
            else {"plane": 10, "hyperbola": 5}
        self.mc_points = 2 * 10**4
        self.lattices = 20 if tiny else 200
        # one body per operation; a lattice counts once both bodies are done
        self.lattices_per_op = self.lattices / len(self.BODIES)

    def op_input(self, k):
        # (bodies, Monte Carlo seed of the shells, seed of the Haar
        # lattices).  The shells' seed is the operation index, not the run's
        # seed: the last hyperbola shell's outer radius moves by about 12%
        # with the draw and extraction cost grows with its square, so
        # seed-drawn shells would make the timing depend on the draw rather
        # than on the code.
        j = k // len(self.BODIES)
        return (self.BODIES[k % len(self.BODIES)],), j, op_seed(self.seed, j)

    def _predicate(self, name, tracer):
        if name == "plane":
            pred = partition.plane_body()
        else:
            f = tracer.body(self.hyperbola) if tracer else self.hyperbola
            pred = partition.sublevel_body(f, 2.0)
        return tracer.predicate(pred) if tracer else pred

    def run(self, inp, tracer=None):
        names, s, lattice_seed = inp
        preds = {name: self._predicate(name, tracer) for name in names}
        t0 = time.perf_counter()
        built = {}
        for name, pred in preds.items():
            shells = partition.build_shells(pred, 2, self.n_max[name],
                                            self.mc_points, s)
            config = partition.PipelineConfig(body=pred,
                                              mc_points=self.mc_points)
            built[name] = (shells, partition.build_partitions(shells, config,
                                                              s))
        t1 = time.perf_counter()
        trans = {name: [partition.transversal_check(p, self.LINES, s)
                        for p in parts]
                 for name, (_, parts) in built.items()}
        bases = haar.sample_unimodular_2d_arrays(self.lattices,
                                                 lattice_seed)[3]
        reports = {name: [] for name in built}
        for B in bases:
            L = lattice.make_lattice(B)
            for name, (shells, parts) in built.items():
                reports[name].append(partition.extract_witnesses(L, shells,
                                                                 parts))
        out = {"bases": bases, "built": built, "trans": trans,
               "reports": reports}
        return out, {"shells": t1 - t0}

    def _inside(self, name):
        if name == "plane":
            return lambda x: np.ones(len(x), dtype=bool)
        return lambda x: _hyperbola(x) <= 2.0

    def extra_metrics(self, ops):
        shells = [op.phase("shells") for op in ops if op.error is None]
        # per pipeline: shells plus partitions for every body
        return {"shells_s": (len(self.BODIES) * statistics.mean(shells),
                             "s")}

    def check(self, k, inp, out):
        errs = []
        rng = np.random.default_rng(inp[2])
        sub = set(rng.choice(len(out["bases"]), self.ORACLE_LATTICES,
                             replace=False).tolist())
        for name, (shells, parts) in out["built"].items():
            inside = self._inside(name)
            prev = 0.0
            for n, (sh, part) in enumerate(zip(shells, parts), start=1):
                if (sh.index != n or sh.inner != prev or sh.outer <= sh.inner
                        or sh.est_volume - 2.0 * sh.stderr <= 4.0 * ZETA2 * n):
                    errs.append(f"{name} shell {n} fails its volume "
                                f"certificate or nesting")
                prev = sh.outer
                total = 10**4   # PipelineConfig.partition_points, unit weights
                if (abs(sum(part.masses) - total) > 1e-6
                        or max(abs(m - total / 4) for m in part.masses)
                        > 0.01 * total / 4):
                    errs.append(f"{name} shell {n}: masses {part.masses}")
            for tr in out["trans"][name]:
                if tr.max_met > 3 or sum(tr.histogram) != self.LINES:
                    errs.append(f"{name}: transversal report {tr}")
            for i, (B, rep) in enumerate(zip(out["bases"],
                                             out["reports"][name])):
                errs += self._check_report(name, B, shells, parts, rep,
                                           inside, deep=i in sub)
        return errs

    def _check_report(self, name, B, shells, parts, rep, inside, deep):
        errs = []
        got = {t.shell_index: ("tuple", t.quadrants,
                               tuple(p.coeffs for p in t.points))
               for t in rep.tuples}
        got.update({i: ("failure", q) for i, q in rep.failures})
        if sorted(got) != [sh.index for sh in shells]:
            return [f"{name}: shells covered {sorted(got)}"]
        for sh, part in zip(shells, parts):
            g = got[sh.index]
            if g[0] == "tuple":
                c = np.array(g[2], dtype=np.int64)
                x = c @ B.T
                n2 = (x * x).sum(axis=1)
                if (np.any(oracle.gcd_rows(c) != 1)
                        or not oracle.independent([c[0]], c[1])
                        or np.any(n2 <= sh.inner ** 2)
                        or np.any(n2 > (sh.outer * (1 + oracle.INFLATE)) ** 2)
                        or not np.all(inside(x))
                        or tuple(oracle.quadrant(part.center, part.angle, x))
                        != g[1]):
                    errs.append(f"{name} shell {sh.index}: bad witness "
                                f"pair {g}")
            if deep:
                want = oracle.shell_witnesses(B, sh.inner, sh.outer, inside,
                                              part.center, part.angle)
                if want != g:
                    errs.append(f"{name} shell {sh.index}: {g} != brute "
                                f"force {want}")
        return errs

    def reference(self):
        out, _ = Witness(GOLDEN_SEED, tiny=True).run(
            (self.BODIES, GOLDEN_SEED, GOLDEN_SEED))
        items = []
        for name, (shells, parts) in out["built"].items():
            items.append({
                "body": name,
                "outer": [sh.outer for sh in shells],
                "est_volume": [sh.est_volume for sh in shells],
                "partitions": [[*p.center, p.angle, *p.masses]
                               for p in parts],
                "transversal": [list(t.histogram)
                                for t in out["trans"][name]],
                "tuples": [[[t.shell_index, *t.quadrants,
                             *(list(p.coeffs) for p in t.points)]
                            for t in rep.tuples]
                           for rep in out["reports"][name]],
                "failures": [[[i, list(q)] for i, q in rep.failures]
                             for rep in out["reports"][name]],
            })
        return items


WORKLOADS = {w.name: w for w in (MeanValue, Decay, ExactMinima, Witness)}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)
