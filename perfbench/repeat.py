"""Run the benchmark once per seed and summarize each metric over the runs.

Run from the root of a checkout:

    python3 perfbench/repeat.py --workload kernel-eval --seeds 1-10 --trace 0 \
        [--out perfbench/baseline/kernel-eval.json]

Prints per metric the median, the quartiles and the spread (Q3 - Q1) /
median; an end-to-end metric is marked "steady" when its spread is below a
third of its bound in BENCHMARK.json.  --out merges the runs and the summary
into that JSON file under "trace0" or "trace1".
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="first-last, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            sys.exit(f"seed {seed}: exit {done.returncode}: {done.stderr.strip()}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        record = run.OUT / "results" / f"{args.workload}-seed{seed}-trace{args.trace}.json"
        runs.append({"seed": seed, "result": result,
                     "provenance": json.loads(record.read_text())["provenance"]})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    summary = {}
    for name, first in runs[0]["result"]["metrics"].items():
        s = summarize([r["result"]["metrics"][name]["value"] for r in runs])
        summary[name] = {**s, "unit": first["unit"]}
        verdict = ""
        if name in bounds:
            verdict = "steady" if s["spread"] < bounds[name] / 3 else "NOT steady"
            verdict = f"  bound {bounds[name]}: {verdict}"
        print(f"{name}: median {s['median']:.6g} {first['unit']}, "
              f"spread {100 * s['spread']:.2f}%{verdict}")
    if args.out:
        out = run.ROOT / args.out
        doc = json.loads(out.read_text()) if out.exists() else {"workload": args.workload}
        doc[f"trace{args.trace}"] = {"run_seconds": spec["run_seconds"], "summary": summary,
                                     "runs": runs}
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0 if all(r["result"]["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
