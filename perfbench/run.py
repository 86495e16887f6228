"""Closed-loop benchmark of rotkrein: one workload per process, one client.

Run from the root of a checkout that holds ``src/rotkrein``:

    python3 perfbench/run.py --workload blade-sweep --seed 1 --seconds 15 --trace 0

The next op starts only when the previous one has finished.  Ops take fresh
parameters: op i of a run uses entry perm[i] of the workload's parameter pool,
perm being a permutation drawn from --seed, and ops past the pool draw new
parameters from the same generator.  Op 0 is the untimed warm-up.  Every op
is checked: exit status 0, no manifest failures, finite outputs, and for pool
entries agreement with ``perfbench/reference/<workload>.json`` within
RTOL times each output's L1 norm.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced ops and prints the per-layer metrics (see tracing.py) and the
tracing overhead.  The last line of stdout is the JSON result; a fuller
record with provenance goes to ``.perfbench_out/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Setup time counts from here: the imports of numpy, scipy and rotkrein,
# input generation and the warm-up op.
_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (at most nproc): the dense matrices have at most a few
# hundred rows, where a second thread only spin-waits on the other core.
BLAS_THREADS = 1
# Setups per untraced run (this process plus fresh child processes).
SETUP_REPEATS = 3
# Reference agreement: roundoff bound relative to each output's L1 norm.
RTOL = 1e-8
# op_tail_s is the slowest op with at least this many ops slower than it.
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 170


def prepare() -> None:
    """Check for the sources, pin BLAS threads and import from src/."""
    if not (SRC / "rotkrein" / "__init__.py").is_file():
        sys.exit(f"perfbench: no rotkrein sources at {SRC}; run from a checkout root")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    import rotkrein

    if SRC not in Path(rotkrein.__file__).resolve().parents:
        sys.exit(f"perfbench: rotkrein imported from {rotkrein.__file__}, not {SRC}")


@dataclass
class Op:
    index: int
    pool_index: int | None
    seconds: float
    problems: list
    layer: dict | None = None
    bytes_written: int = 0
    raw_sha256: str = ""


class Bench:
    """One workload's inputs for one seed, and the checked execution of ops."""

    def __init__(self, name: str, seed: int, tiny: bool, workdir: Path) -> None:
        # numpy and rotkrein are imported only after prepare() pinned BLAS.
        import numpy as np
        import workloads

        if name not in workloads.WORKLOADS:
            sys.exit(f"perfbench: unknown workload {name!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
        self.wl = workloads.WORKLOADS[name]
        self.pool = workloads.pool(self.wl, tiny)
        self.refs = None if tiny else load_reference(self.wl.name, self.pool)
        self.rng = np.random.default_rng(seed)
        self.perm = [int(k) for k in self.rng.permutation(len(self.pool))]
        self.fresh: list = []
        self.tiny = tiny
        self.workdir = workdir

    def params(self, i: int) -> tuple[int | None, dict]:
        if i < len(self.perm):
            return self.perm[i], self.pool[self.perm[i]]
        while len(self.fresh) <= i - len(self.perm):
            self.fresh.append(self.wl.draw(self.rng, self.tiny))
        return None, self.fresh[i - len(self.perm)]

    def run_op(self, i: int, tracer=None) -> Op:
        import workloads

        pool_index, params = self.params(i)
        box = {"seconds": 0.0, "layer": None}

        def timed(call):
            if tracer is not None:
                tracer.install()
                tracer.begin_op(i)
            start = time.perf_counter()
            try:
                return call()
            finally:
                box["seconds"] = time.perf_counter() - start
                if tracer is not None:
                    box["layer"] = tracer.end_op()
                    tracer.uninstall()

        try:
            res = self.wl.op(params, self.workdir, timed)
        except Exception as exc:  # a failed op is counted, and the loop goes on
            return Op(i, pool_index, box["seconds"], [f"{type(exc).__name__}: {exc}"])
        problems = list(res.problems)
        if self.refs is not None and pool_index is not None:
            bad = workloads.digest_mismatch(
                workloads.digest(res.values), self.refs[pool_index]["digest"], RTOL)
            if bad:
                problems.append(f"differs from reference entry {pool_index}: {bad}")
        return Op(i, pool_index, box["seconds"], problems, box["layer"],
                  res.bytes_written, hashlib.sha256(res.raw).hexdigest())


def params_sha256(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


def load_reference(name: str, pool: list) -> list:
    path = HERE / "reference" / f"{name}.json"
    ref = json.loads(path.read_text())["entries"]
    if [e["params_sha256"] for e in ref] != [params_sha256(p) for p in pool]:
        sys.exit(f"perfbench: {path} was made for other pool parameters")
    return ref


def closed_loop(bench: Bench, seconds: float, tracer=None) -> tuple[list, float]:
    """Ops 1, 2, ... back to back until `seconds` have passed.

    With a tracer, odd ops are traced and even ops not, and the loop runs
    until it has at least one of each.
    """
    ops: list = []
    start = time.perf_counter()
    i = 1
    while True:
        ops.append(bench.run_op(i, tracer if tracer is not None and i % 2 else None))
        i += 1
        if time.perf_counter() - start >= seconds and (tracer is None or i > 2):
            return ops, time.perf_counter() - start


def setup_probes(args) -> list:
    """Setup times of SETUP_REPEATS - 1 fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    if args.tiny:
        cmd.append("--tiny")
    out = []
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        out.append(json.loads(lines[-1]))
    return out


def tail(durations: list) -> tuple[float, float]:
    """The op time at the highest percentile with TAIL_BEYOND ops beyond it.

    Below 2 * TAIL_BEYOND ops that percentile would fall under the median,
    so the median is reported instead.  Returns (seconds, percentile).
    """
    d = sorted(durations)
    n = len(d)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(d), 50.0
    return d[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(ops: list, elapsed: float, setups: list) -> tuple[dict, dict]:
    durations = [op.seconds for op in ops]
    tail_s, tail_pct = tail(durations)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ops) / elapsed, "1/s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    notes = {"op_tail_percentile": tail_pct, "timed_ops": len(ops), "setup_samples_s": setups}
    return metrics, notes


def per_layer(ops: list) -> tuple[dict, dict]:
    import tracing

    traced = [op for op in ops if op.layer is not None]
    plain = [op for op in ops if op.layer is None]
    n = len(traced)
    wall = sum(op.seconds for op in traced)

    def total(kind, name):
        return sum(op.layer[kind].get(name, 0) for op in traced)

    metrics = {}
    for name in tracing.SPAN_NAMES:
        time_name = {tracing.CONFIG: "cli.config_s",
                     tracing.SERIALIZE: "cli.serialize_s"}.get(name, f"{name}.self_s")
        if name != tracing.ROOT:
            metrics[f"{name}.calls"] = (total("calls", name) / n, "calls/op")
        metrics[time_name] = (total("self_s", name) / n, "s/op")
        metrics[time_name[:-2] + "_share"] = (100.0 * total("self_s", name) / wall, "%")
    elems = total("counts", "radial.g_vec.elems")
    diag_calls = total("calls", "rotframe.channel_diag")
    metrics.update({
        "radial.g_vec.elems": (elems / n, "elems/op"),
        "radial.g_vec.distinct_ratio": (
            total("counts", "radial.g_vec.distinct") / elems if elems else 0.0, "ratio"),
        "radial.radial_apply.points": (total("counts", "radial.radial_apply.points") / n, "points/op"),
        "rotframe.channel_diag.distinct_ratio": (
            total("counts", "rotframe.channel_diag.distinct") / diag_calls if diag_calls else 0.0,
            "ratio"),
        "blade.matrix_bytes": (total("counts", "blade.matrix_bytes") / n, "B/op"),
        "limits.rows": (total("counts", "limits.rows") / n, "rows/op"),
        "cli.bytes_written": (sum(op.bytes_written for op in traced) / n, "B/op"),
    })
    traced_p50 = statistics.median(op.seconds for op in traced)
    plain_p50 = statistics.median(op.seconds for op in plain)
    metrics.update({
        "trace.ops": (n, "count"),
        "trace.spans": (sum(op.layer["spans"] for op in traced) / n, "spans/op"),
        "trace.op_p50_s": (traced_p50, "s"),
        "trace.untraced_op_p50_s": (plain_p50, "s"),
        "trace.overhead_s": (traced_p50 - plain_p50, "s"),
    })
    return metrics, {"traced_ops": n, "untraced_ops": len(plain)}


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = done.stdout.strip() or sha
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "nproc": NPROC,
        "cpu_model": cpu,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="shrink every op (harness self-test)")
    ap.add_argument("--setup-probe", action="store_true", help="set up, print the time, exit")
    args = ap.parse_args(argv)
    prepare()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, args.tiny, workdir)
        warm = bench.run_op(0)
        setup_s = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "problems": warm.problems}))
            return 0
        if args.trace:
            import tracing

            ops, elapsed = closed_loop(bench, args.seconds, tracing.Tracer())
            metrics, notes = per_layer(ops)
            problems = []
        else:
            ops, elapsed = closed_loop(bench, args.seconds)
            probes = setup_probes(args)
            metrics, notes = end_to_end(ops, elapsed, [setup_s] + [p["setup_s"] for p in probes])
            problems = [f"setup probe: {q}" for p in probes for q in p["problems"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = sum(1 for op in ops if op.problems)
    problems += [f"warm-up op: {q}" for q in warm.problems]
    problems += [f"op {op.index}: {q}" for op in ops for q in op.problems]
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "tiny": args.tiny, "provenance": provenance(args.seed), **notes,
        "elapsed_s": elapsed, "warmup_s": warm.seconds, "problems": problems,
        "ops": [{"index": op.index, "pool_index": op.pool_index, "seconds": op.seconds,
                 "problems": op.problems} for op in ops],
        "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for q in problems:
        print(f"problem: {q}")
    for k, (v, u) in metrics.items():
        print(f"{k} = {v:.6g} {u}")
    if "op_tail_percentile" in notes:
        print(f"op_tail_s is the p{notes['op_tail_percentile']:.1f} op time of "
              f"{notes['timed_ops']} timed ops")
    print(f"ops: {len(ops)} attempted, {failed} failed; record: {path.relative_to(ROOT)}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
