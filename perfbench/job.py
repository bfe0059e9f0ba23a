"""One benchmark job, run in a fresh process by perfbench/run.py.

    python3 perfbench/job.py WORKLOAD --seed N [--index I] [--trace] [--setup-only]
    python3 perfbench/job.py probes --seed N

WORKLOAD builds its inputs, runs the workload through the package's public
functions and checks every output with perfbench/oracle.py.  `probes`
times single kernel calls instead.  The package is imported from
PYTHONPATH, which run.py points at the checkout's src/.

Every duration a job reports is in reference seconds (perfbench/meter.py):
wall time scaled by the CPU speed the meter sampled during it.

The last line of stdout is one JSON object with

    package     file the package was imported from
    versions    numpy and scipy versions the package ran with
    maxrss_kib  peak resident set size of this process
    ready       CLOCK_MONOTONIC reading once the inputs were built; run.py
                subtracts its spawn time from it to get setup_s
    setup_scale reference seconds per wall second from start to ready
    job_scale   reference seconds per wall second over the whole job
    ops         one oracle record per checked operation
    mutant_ms   flip-to-verdict milliseconds per mutant (mutants-e7-fp7)
    spans       with --trace: [name, seconds, parent index], recorded
                around each call from this file into the package
    counts      with --trace: work counts at the same boundaries
    span_cost_s with --trace: seconds one span adds
    probes      per-call microseconds per kernel (probes only)

--setup-only stops once the inputs are ready.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from statistics import median

import oracle
from meter import SpeedMeter

MUTANTS_PER_JOB = 10
PROBE_INPUTS = 32
PROBE_PASSES = 5


class Tracer:
    """Spans [name, seconds, parent index] and counts, kept in memory."""

    def __init__(self, enabled: bool, meter: SpeedMeter) -> None:
        self.enabled = enabled
        self.meter = meter
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = [name, None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        t0 = time.monotonic()
        try:
            yield
        finally:
            rec[1] = self.meter.ref(t0, time.monotonic())
            self._open.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


def span_cost_s(meter: SpeedMeter, calls: int = 20000) -> float:
    """Seconds one recorded span adds, timed on a scratch tracer."""
    scratch = Tracer(True, meter)
    t0 = time.monotonic()
    for _ in range(calls):
        with scratch.span("cost"):
            pass
    return meter.ref(t0, time.monotonic()) / calls


def verify_e8(tr: Tracer, args) -> tuple[float, list, dict]:
    """What `spinor-forge verify --algebra e8` runs, then roots and export.

    The paper's main object and what users pay on every CLI call.  Most of
    the pairings, clifford.act and norms work (build path) and the full
    exceptional Jacobi sweep over all 2,511,496 triples happen here.
    """
    with tr.span("import"):
        from spinor_forge import (
            Config,
            Rationals,
            build_e8,
            killing_form,
            root_decomposition,
            solve_spinor_norm,
            spanning_check,
            to_json,
            verify_jacobi,
        )
        from spinor_forge.exceptional import verify_antisymmetry
    # build_e8() is exactly these two calls; split so each gets a span.
    with tr.span("norms.solve_spinor_norm"):
        form = solve_spinor_norm(Config(8, Rationals()))
    with tr.span("exceptional.build"):
        algebra = build_e8(form=form)
    ready = time.monotonic()
    if args.setup_only:
        return ready, [], {}

    dim = algebra.dim
    with tr.span("exceptional.verify_antisymmetry"):
        bad = verify_antisymmetry(algebra)
    ops = [oracle.check_antisymmetry(bad)]
    # Materialized explicitly so the Jacobi span holds no lazy bracket work.
    with tr.span("exceptional.materialize"):
        algebra.materialize()
    with tr.span("exceptional.verify_jacobi"):
        report = verify_jacobi(algebra)
    ops.append(oracle.check_jacobi_full(report))
    with tr.span("exceptional.spanning_check"):
        span = spanning_check(algebra)
    ops.append(oracle.check_span(span))
    with tr.span("exceptional.killing_form"):
        _, rank = killing_form(algebra)
    ops.append(oracle.check_killing_rank(rank))
    with tr.span("exceptional.root_decomposition"):
        roots = root_decomposition(algebra)
    ops.append(oracle.check_roots(roots))
    with tr.span("exceptional.to_json"):
        data = to_json(algebra).encode("utf-8")
    ops.append(oracle.check_export(data))

    if tr.enabled:
        tr.count("exceptional.raw_brackets", dim + 2 * comb(dim, 2))
        tr.count("exceptional.brackets", comb(dim, 2))
        tr.count("exceptional.nonzero_brackets", len(algebra.nonzero_brackets()))
        tr.count("jacobi.pairs_checked", report.pairs_checked)
        tr.count("jacobi.triples", report.triples_covered)
        tr.count("jacobi.calls", 1)
        tr.count("span.pairs_used", span.pairs_used)
        tr.count("export.bytes", len(data))
    return ready, ops, {}


def props_n7(tr: Tracer, args) -> tuple[float, list, dict]:
    """What run_suites(7) runs: all four suites, 14 checks, in order, each
    check in a span named after it (check_q_isometry is props.q-isometry).

    Runs the whole clifford.multiply / grade_project / fock / generic
    pairings stack over Q and never enters exceptional, so a build- or
    Jacobi-layer change predicts no change here, and a Clifford-kernel
    change shows mostly here.
    """
    with tr.span("import"):
        from spinor_forge import SUITES
    ready = time.monotonic()
    if args.setup_only:
        return ready, [], {}
    results = []
    for checks in SUITES.values():
        for check in checks:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            with tr.span(f"props.{name}"):
                results.append(check(7))
    return ready, oracle.check_props(results), {}


def touching_pairs(dim: int, i: int, j: int) -> list[tuple[int, int]]:
    """The 2*dim-3 index pairs whose Jacobi identity involves [b_i, b_j]."""
    return sorted(
        {(min(i, x), max(i, x)) for x in range(dim) if x != i}
        | {(min(j, x), max(j, x)) for x in range(dim) if x != j}
    )


def mutants_e7_fp7(tr: Tracer, args) -> tuple[float, list, dict]:
    """Seeded single-sign mutants of e7 over F_7, each checked on the
    2*dim-3 index pairs that touch the flipped bracket.

    Many small Jacobi sweeps whose per-call set-up (lift, ad matrices)
    dominates, so a batched full-sweep engine that costs the subset path
    shows here.  The only workload on the prime-field (Residue) and e7
    constant-solve (linalg over F_7) paths.  The package receives only the
    flips drawn from the seed, never the seed.
    """
    with tr.span("import"):
        from spinor_forge import Config, PrimeField, build_e7, solve_spinor_norm, verify_jacobi
        from spinor_forge.exceptional import with_flipped_sign
    field = PrimeField(7)
    with tr.span("norms.solve_spinor_norm"):
        form = solve_spinor_norm(Config(6, field))
    with tr.span("exceptional.build"):
        algebra = build_e7(field=field, form=form)
    with tr.span("exceptional.materialize"):
        algebra.materialize()
    ready = time.monotonic()
    if args.setup_only:
        return ready, [], {}

    dim = algebra.dim
    ops = [oracle.check_e7_dim(dim)]
    stored = algebra.nonzero_brackets()
    rng = random.Random(f"mutants-e7-fp7/{args.seed}/{args.index}")
    mutant_ms = []
    for _ in range(MUTANTS_PER_JOB):
        (i, j), terms = rng.choice(stored)
        k = rng.choice(terms)[0]
        touching = touching_pairs(dim, i, j)
        t0 = time.monotonic()
        with tr.span("mutant"):
            with tr.span("exceptional.with_flipped_sign"):
                mutant = with_flipped_sign(algebra, i, j, k)
            with tr.span("exceptional.verify_jacobi_pairs"):
                report = verify_jacobi(mutant, pairs=touching)
        mutant_ms.append(tr.meter.ref(t0, time.monotonic()) * 1e3)
        ops.append(oracle.check_mutant((i, j, k), report, dim))
        tr.count("jacobi.pairs_checked", report.pairs_checked)
        tr.count("jacobi.triples", report.triples_covered)
        tr.count("jacobi.calls", 1)
    tr.count("exceptional.brackets", comb(dim, 2))
    tr.count("exceptional.nonzero_brackets", len(stored))
    return ready, ops, {"mutant_ms": mutant_ms}


WORKLOADS = {
    "verify-e8": verify_e8,
    "props-n7": props_n7,
    "mutants-e7-fp7": mutants_e7_fp7,
}


def per_call_us(meter: SpeedMeter, fn, inputs) -> float:
    """Median over passes of the mean per-call time; one warm-up pass first
    fills the package's caches, so these are warm-cache figures."""
    for args in inputs:
        fn(*args)
    passes = []
    for _ in range(PROBE_PASSES):
        t0 = time.monotonic()
        for args in inputs:
            fn(*args)
        passes.append(meter.ref(t0, time.monotonic()))
    return median(passes) / len(inputs) * 1e6


def probes(meter: SpeedMeter, seed: int) -> dict[str, float]:
    """Per-call microseconds of the kernels the workloads spend time in."""
    from spinor_forge import (
        CliffordElem,
        Config,
        Rationals,
        SpinorVec,
        act,
        b_eval,
        grade2_pairing,
        grade_project,
        multiply,
        solve_spinor_norm,
        witt_e,
        witt_i,
    )

    rng = random.Random(f"probes/{seed}")
    out = {}
    for n in (8, 7):
        config = Config(n, Rationals())
        form = solve_spinor_norm(config)

        def spinor(terms: int = 1) -> SpinorVec:
            masks = rng.sample(range(config.size), terms)
            return SpinorVec(config, {m: Fraction(rng.randint(1, 3)) for m in masks})

        def grade2() -> CliffordElem:
            a, b = rng.sample(range(1, n + 1), 2)
            f, g = rng.choice((witt_e, witt_i)), rng.choice((witt_e, witt_i))
            return multiply(f(config, a), g(config, b))

        def sparse_elem() -> CliffordElem:
            x = CliffordElem.zero(config)
            for _ in range(3):
                emask = sum(1 << a for a in rng.sample(range(n), rng.randint(0, 2)))
                imask = sum(1 << a for a in rng.sample(range(n), rng.randint(0, 2)))
                x = x + CliffordElem.monomial(config, emask, imask, Fraction(rng.randint(1, 3)))
            return x

        pairs = [(spinor(), spinor()) for _ in range(PROBE_INPUTS)]
        out[f"pairings.grade2_pairing.n{n}.us"] = per_call_us(
            meter, lambda a, b: grade2_pairing(form, a, b), pairs
        )
        if n == 8:
            acts = [(grade2(), spinor(2)) for _ in range(PROBE_INPUTS)]
            out["clifford.act.n8.us"] = per_call_us(meter, act, acts)
            full = config.size - 1
            evals = []
            for _ in range(PROBE_INPUTS):
                phi = spinor(4)
                psi = SpinorVec(config, {m ^ full: c for m, c in phi.items()})
                evals.append((phi, psi))
            out["norms.b_eval.n8.us"] = per_call_us(meter, lambda a, b: b_eval(form, a, b), evals)
        else:
            prods = [(sparse_elem(), sparse_elem()) for _ in range(PROBE_INPUTS)]
            out["clifford.multiply.n7.us"] = per_call_us(meter, multiply, prods)
            projs = [(x, k) for x, _ in prods for k in (0, 2, 4)]
            out["clifford.grade_project.n7.us"] = per_call_us(meter, grade_project, projs)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job", choices=[*WORKLOADS, "probes"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0, help="job number within a run")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    meter = SpeedMeter().start()
    started = time.monotonic()
    out: dict = {}
    if args.job == "probes":
        out["probes"] = probes(meter, args.seed)
    else:
        tracer = Tracer(args.trace, meter)
        out["ready"], out["ops"], extra = WORKLOADS[args.job](tracer, args)
        out.update(extra)
        if args.trace:
            out["spans"], out["counts"] = tracer.spans, tracer.counts
            out["span_cost_s"] = span_cost_s(meter)
        out["setup_scale"] = meter.scale(started, out["ready"])
    out["job_scale"] = meter.scale(started, time.monotonic())
    meter.stop()
    out["package"] = sys.modules["spinor_forge"].__file__
    out["versions"] = {m: sys.modules[m].__version__ for m in ("numpy", "scipy")}
    out["maxrss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
