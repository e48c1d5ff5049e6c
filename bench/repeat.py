"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/repeat.py --workloads wire-sweep --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --out bench/baseline.json

Runs bench/run.py once per (workload, seed), one run at a time, with
the run_seconds of BENCHMARK.json. For every end-to-end metric it
prints the median, the quartiles (statistics.quantiles with n=4) and
the spread, the interquartile distance as a share of the median, next
to the metric's bound. --out writes every run's result and the summary
as JSON, the form in which a before/after pair is kept.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else 0.0}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for name in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            record = json.loads((ROOT / ".bench_out" / f"{name}-seed{seed}-trace{args.trace}.json")
                                .read_text(encoding="utf-8"))
            doc["environment"] = record["environment"]
            runs.append({"seed": seed, "inputs": record["inputs"],
                         "known_failures": record["known_failures"],
                         "measured": record.get("measured", {}), **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        if len(runs) >= 2:
            for metric in runs[0]["metrics"]:
                stats = summarize([r["metrics"][metric]["value"] for r in runs])
                summary[metric] = stats
                bound = bounds.get(metric)
                bound_text = f"bound {bound:.2f}" if bound is not None else ""
                print(f"  {metric:44s} median {stats['median']:12.6g}  "
                      f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  "
                      f"spread {stats['spread']:.4f}  {bound_text}", flush=True)
            for metric in runs[0]["measured"]:
                stats = summarize([r["measured"][metric] for r in runs])
                summary["measured." + metric] = stats
                print(f"  {'measured.' + metric:44s} median {stats['median']:12.6g}  "
                      f"spread {stats['spread']:.4f}  (wall time, before scaling)", flush=True)
        doc["workloads"][name] = {"runs": runs, "summary": summary}

    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
