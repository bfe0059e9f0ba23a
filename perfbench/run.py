"""spinor-forge benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job is a fresh Python process
(perfbench/job.py) that imports the package from the checkout's src/;
jobs run one after another, single-threaded, closed-loop.  The child
environment drops SPINOR_FORGE_THREADS, so the package runs with its
defaults, and fixes PYTHONHASHSEED so that set iteration orders repeat.

--trace 0 first runs SETUP_PROBES set-up-only jobs, then whole jobs for
S seconds: one, and another while it would end within S seconds (a job
is never cut short).  It reports the end-to-end metrics of BENCHMARK.json:

    wall_s        spawn to exit of one job, median over jobs
    setup_s       spawn until the inputs are built, median over all jobs
    peak_rss_mib  peak resident memory of one job, median over jobs

All times are reference seconds (perfbench/meter.py): each job samples the
CPU's speed while it runs, and its wall time is scaled by the mean speed
it saw, so that the CPU's own changes of speed do not move the figures.
The summary on stderr also gives the unscaled wall_raw_s and setup_raw_s.

--trace 1 runs one traced job and one kernel probe job, and reports the
per-layer metrics of BENCHMARK.json: span totals and counts recorded in
job.py around each call into the package, warm-cache kernel timings, the
traced job's wall time (compare it with wall_s of a --trace 0 run), the
part of it no top-level span covers, and the tracer's own cost (span
count times the cost of one span, timed in the job).  A stage the
workload never enters reports 0.

Every output is checked against perfbench/oracle.py.  The last stdout
line is {"correct", "attempted", "failed", "metrics"}; a summary with
fail_rate, sample counts and the machine block goes to stderr.  Exits
non-zero without a result if the checkout has no package to run or a
job cannot be measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import oracle
from job import MUTANTS_PER_JOB

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 3
DEADLINE_S = 170.0  # the whole run must end well within 180 s

OPS_PER_JOB = {
    "verify-e8": oracle.E8_OPS,
    "props-n7": len(oracle.PROPS_N7),
    "mutants-e7-fp7": 1 + MUTANTS_PER_JOB,
}

# Printed in the stderr summary only: the mutant percentiles exist only on
# mutants-e7-fp7, the raw times are wall seconds before scaling.
EXTRA_UNITS = {"mutant_p50_ms": "ms", "mutant_p90_ms": "ms", "wall_raw_s": "s", "setup_raw_s": "s"}


class BenchError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "SPINOR_FORGE_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def machine_block(loadavg: tuple[float, ...]) -> dict:
    """Where and how the run happened; numpy/scipy versions come from a job."""
    model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                None,
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model or platform.processor() or None,
        "python": platform.python_version(),
        "commit": commit,
        "loadavg_at_start": list(loadavg),
        "child_env": {
            "PYTHONPATH": "<checkout>/src",
            "PYTHONHASHSEED": "0",
            "SPINOR_FORGE_THREADS": "unset",
        },
    }


class Runner:
    """Spawns jobs one at a time and tallies their oracle records."""

    def __init__(self, workload: str, seed: int, env: dict[str, str]) -> None:
        self.workload = workload
        self.seed = seed
        self.env = env
        self.loadavg = os.getloadavg()
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.versions: dict[str, str] = {}

    def spawn(self, job: str, *flags: str, index: int = 0) -> dict | None:
        """Run one job to completion; None if it crashed."""
        cmd = [sys.executable, str(HERE / "job.py"), job, "--seed", str(self.seed)]
        cmd += ["--index", str(index), *flags]
        expected = 0 if job == "probes" or "--setup-only" in flags else OPS_PER_JOB[job]
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise BenchError("out of time before the next job")
        t0 = time.monotonic()
        try:
            # run() kills and reaps the job on a timeout or any exception.
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(cmd[1:])} ran out of time") from None
        wall = time.monotonic() - t0
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr[-4000:])
            self.attempted += max(1, expected)
            self.failed += max(1, expected)
            return None
        res = json.loads(lines[-1])
        if not Path(res["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchError(f"package imported from {res['package']}, not this checkout")
        self.versions = res["versions"]
        res["wall_raw_s"] = wall
        res["wall_s"] = wall * res["job_scale"]
        if "ready" in res:
            res["setup_raw_s"] = res["ready"] - t0
            res["setup_s"] = res["setup_raw_s"] * res["setup_scale"]
        ops = res.get("ops", [])
        self.attempted += max(expected, len(ops))
        self.failed += max(expected, len(ops)) - sum(r["ok"] for r in ops)
        for r in ops:
            if not r["ok"]:
                print(f"FAILED {r['op']}: {r['detail']}", file=sys.stderr)
        return res


def p90(values: list[float]) -> float:
    return quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setups = [runner.spawn(runner.workload, "--setup-only") for _ in range(SETUP_PROBES)]
    jobs = []
    t0 = time.monotonic()
    while True:
        t_job = time.monotonic()
        jobs.append(runner.spawn(runner.workload, index=len(jobs)))
        now = time.monotonic()
        if now + (now - t_job) - t0 > seconds:
            break
    jobs = [j for j in jobs if j is not None]
    setups = [s for s in setups if s is not None] + jobs
    if not jobs:
        raise BenchError("no job finished")
    samples = {
        "wall_s": [j["wall_s"] for j in jobs],
        "setup_s": [s["setup_s"] for s in setups],
        "peak_rss_mib": [j["maxrss_kib"] / 1024 for j in jobs],
        "wall_raw_s": [j["wall_raw_s"] for j in jobs],
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
    }
    metrics = {name: median(values) for name, values in samples.items()}
    mutant_ms = [ms for j in jobs for ms in j.get("mutant_ms", [])]
    if mutant_ms:
        metrics["mutant_p50_ms"], metrics["mutant_p90_ms"] = median(mutant_ms), p90(mutant_ms)
        samples["mutant_ms"] = mutant_ms
    return metrics, samples


def run_traced(runner: Runner) -> tuple[dict, dict]:
    traced = runner.spawn(runner.workload, "--trace")
    probe = runner.spawn("probes")
    if traced is None or probe is None:
        raise BenchError("a traced-run job did not finish")
    spans, counts = traced["spans"], traced["counts"]
    durations: dict[str, list[float]] = {}
    for name, seconds, _ in spans:
        durations.setdefault(name, []).append(seconds)

    # Every span name gives "<name>.s", its summed duration.
    m = {f"{name}.s": sum(d) for name, d in durations.items()}
    m.update(counts)
    materialize_s = m.get("exceptional.materialize.s", 0.0)
    m["exceptional.brackets_per_s"] = (
        counts.get("exceptional.brackets", 0) / materialize_s if materialize_s else 0.0
    )
    pair_calls = durations.get("exceptional.verify_jacobi_pairs", [])
    flips = durations.get("exceptional.with_flipped_sign", [])
    m["exceptional.verify_jacobi_pairs.ms"] = median(pair_calls) * 1e3 if pair_calls else 0.0
    m["exceptional.with_flipped_sign.us"] = median(flips) * 1e6 if flips else 0.0
    jacobi_s = m.get("exceptional.verify_jacobi.s", 0.0) + sum(pair_calls)
    calls = counts.get("jacobi.calls", 0)
    m["jacobi.pairs_per_call"] = counts.get("jacobi.pairs_checked", 0) / calls if calls else 0.0
    m["jacobi.triples_per_s"] = counts.get("jacobi.triples", 0) / jacobi_s if jacobi_s else 0.0
    mutant_ms = traced.get("mutant_ms", [])
    m["mutant.p50_ms"] = median(mutant_ms) if mutant_ms else 0.0
    m["mutant.p90_ms"] = p90(mutant_ms) if mutant_ms else 0.0
    m.update(probe["probes"])
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead.s"] = len(spans) * traced["span_cost_s"]
    top_level = sum(seconds for _, seconds, parent in spans if parent is None)
    m["trace.untraced.s"] = traced["wall_s"] - top_level
    return m, {}


def report(args, runner: Runner, values: dict, samples: dict, units: dict) -> None:
    """Summary on stderr: every value by name with its unit and sample
    count, and fail_rate; then as one JSON line with the samples themselves
    and the machine block."""
    print(f"{args.workload} seed {args.seed} trace {args.trace}:", file=sys.stderr)
    for name, value in values.items():
        key = "mutant_ms" if name.startswith("mutant_") else name
        n = f"  (n={len(samples[key])})" if key in samples else ""
        print(f"  {name:38} {value:14.6g} {units.get(name, '')}{n}", file=sys.stderr)
    print(
        f"  {'fail_rate':38} {runner.failed / runner.attempted:14.6g} "
        f"({runner.failed} of {runner.attempted} operations failed)",
        file=sys.stderr,
    )
    summary = {
        "values": values,
        "samples": samples,
        "failed": runner.failed,
        "attempted": runner.attempted,
        "machine": machine_block(runner.loadavg) | runner.versions,
    }
    print(json.dumps({"summary": summary}), file=sys.stderr)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="spinor-forge benchmark driver")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so the running job is killed too.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "spinor_forge" / "__init__.py").is_file():
        print(f"error: no spinor_forge package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, child_env())
    try:
        if args.trace:
            values, samples = run_traced(runner)
        else:
            values, samples = run_untraced(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        # A stage or count the workload never enters reports 0.
        values = {d["name"]: 0 for d in declared} | values
    units = {d["name"]: d["unit"] for d in declared} | EXTRA_UNITS
    missing = {d["name"] for d in declared} - set(values)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    report(args, runner, values, samples, units)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
