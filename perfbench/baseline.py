"""Runs the benchmark over several seeds and summarises every workload.

    python3 perfbench/baseline.py [--seeds 1 2 3] [--workloads verify-e8 ...]
                                  [--label TEXT] [--out perfbench/baseline.json]

Run from the root of a checkout.  For each workload it runs
`perfbench/run.py --trace 0` once per seed, one after another, and prints
for each end-to-end metric of BENCHMARK.json the median, quartiles and
spread (quartile distance over median) with the metric's bound, plus
fail_rate, the mutant percentiles and the unscaled times; then it makes
one traced run per workload with the first seed.

--out appends this set of runs, with its machine block, to the file's
"sets" and recomputes "pooled": for each workload and metric, the median
and quartiles over the per-seed values of every recorded set.  The pooled
median is the baseline later changes are compared against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

from run import EXTRA_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the stderr summary of one run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    summary = next(
        json.loads(line)["summary"]
        for line in proc.stderr.splitlines()
        if line.startswith('{"summary"')
    )
    return json.loads(proc.stdout.strip().splitlines()[-1]), summary


def spread(values: list[float]) -> dict:
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    mid = median(values)
    return {"median": mid, "q1": q1, "q3": q3, "spread": (q3 - q1) / mid if mid else 0.0}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--label", default="", help="what this set measured, kept with it")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    record: dict = {"label": args.label, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, info = run_once(workload, seed, bench["run_seconds"], 0)
            record.setdefault("machine", info["machine"])
            runs.append((result, info))
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: {shown} failed {result['failed']}/{result['attempted']}", flush=True)
        entry: dict = {"runs": len(runs), "metrics": {}}
        attempted = sum(r["attempted"] for r, _ in runs)
        failed = sum(r["failed"] for r, _ in runs)
        entry["fail_rate"] = {"value": failed / attempted, "failed": failed, "attempted": attempted}
        print(f"{workload}: fail_rate {failed / attempted} ({failed} of {attempted} operations)")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r, _ in runs]
            stats = spread(values) | {"unit": metric["unit"], "bound": bound, "values": values}
            entry["metrics"][name] = stats
            flag = "ok" if stats["spread"] < bound / 3 else "WIDE"
            print(
                f"  {name:14} median {stats['median']:10.4f} {metric['unit']:4} "
                f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                f"spread {stats['spread']:.4f} (bound {bound}, {flag}) n={len(values)}"
            )
        for name, unit in EXTRA_UNITS.items():
            values = [i["values"][name] for _, i in runs if name in i["values"]]
            if values:
                stats = spread(values) | {"unit": unit, "values": values}
                entry["metrics"][name] = stats
                print(
                    f"  {name:14} median {stats['median']:10.4f} {unit:4} "
                    f"spread {stats['spread']:.4f} over {len(values)} runs"
                )
        result, _ = run_once(workload, args.seeds[0], bench["run_seconds"], 1)
        entry["traced"] = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"  traced: {json.dumps(entry['traced'])}")
        record["workloads"][workload] = entry
    if args.out:
        saved = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
        saved["run_seconds"] = bench["run_seconds"]
        saved["sets"] = saved.get("sets", []) + [record]
        saved["pooled"] = pool(saved["sets"])
        args.out.write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")
    return 0


def pool(sets: list[dict]) -> dict:
    """Median and quartiles of each workload's metrics over all sets."""
    values: dict = {}
    for record in sets:
        for workload, entry in record["workloads"].items():
            for name, stats in entry["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).extend(stats["values"])
    return {
        workload: {name: spread(v) | {"n": len(v)} for name, v in metrics.items()}
        for workload, metrics in values.items()
    }


if __name__ == "__main__":
    raise SystemExit(main())
