"""Self-test of the benchmark harness at a tiny size.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it checks that
1. the result lines of --trace 0 and --trace 1 runs carry exactly the metric
   names and units of BENCHMARK.json, with correct outputs;
2. one seed regenerates identical inputs (and another seed does not);
3. traced and untraced ops give byte-identical outputs, and the tracer
   leaves no traced function unwrapped in any rotkrein module;
4. the self times of each traced op's spans sum to its wall time within
   the tracing overhead measured on that op (at least 1 ms).
Exit status 0 when every check passes.
"""

import json
import shutil
import subprocess
import sys

import run

SEED = 7


def result_line(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(done.stderr)
    return json.loads(done.stdout.strip().splitlines()[-1])


def check_result(workload: str, spec: dict) -> list:
    errors = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        res = result_line(workload, trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        if set(res) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"trace {trace}: result keys {sorted(res)}")
        if not res["correct"] or res["failed"] or res["attempted"] < 1:
            errors.append(f"trace {trace}: correct={res['correct']} failed={res['failed']}")
        if got != want:
            diff = sorted(set(got.items()) ^ set(want.items()))
            errors.append(f"trace {trace}: metric names/units differ from BENCHMARK.json: {diff}")
    return errors


def fingerprint(wl, params, workdir) -> bytes:
    """The bytes of everything the program would receive for these params."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = wl.make_inputs(params, workdir)
    out = b""
    for tag, item in sorted(inputs.items()):
        if isinstance(item, list):
            out += json.dumps([tag, item]).encode()
        else:
            psi, p = item
            out += psi.grid.tobytes() + psi.values.tobytes() + json.dumps(p).encode()
    for f in sorted(workdir.iterdir()):
        out += f.read_bytes()
    return out


def check_inputs(name: str, workdir) -> list:
    a, b, other = (run.Bench(name, s, True, workdir) for s in (SEED, SEED, SEED + 1))
    indices = [0, 1, 2, len(a.pool) + 1]
    if [a.params(i) for i in indices] != [b.params(i) for i in indices]:
        return ["one seed drew different parameters"]
    if [a.params(i) for i in indices] == [other.params(i) for i in indices]:
        return ["two seeds drew the same parameters"]
    for i in indices:
        if fingerprint(a.wl, a.params(i)[1], workdir) != fingerprint(b.wl, b.params(i)[1], workdir):
            return [f"op {i}: one seed generated different inputs"]
    return []


def check_tracing(name: str, workdir) -> list:
    import tracing

    errors = []
    tracer = tracing.Tracer()
    tracer.install()
    for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "rotkrein"]:
        left = [a for a, v in vars(mod).items() if any(v is o for o in tracer.originals)]
        if left:
            errors.append(f"{mod.__name__} still holds unwrapped {left}")
    tracer.uninstall()
    workdir.mkdir(parents=True, exist_ok=True)
    bench = run.Bench(name, SEED, True, workdir)
    bench.run_op(0)
    for i in (1, 2):
        plain = bench.run_op(i)
        traced = bench.run_op(i, tracing.Tracer())
        if plain.problems or traced.problems:
            errors.append(f"op {i}: {plain.problems + traced.problems}")
        if plain.raw_sha256 != traced.raw_sha256:
            errors.append(f"op {i}: traced output differs from untraced output")
        span_sum = sum(traced.layer["self_s"].values())
        allowed = max(traced.seconds - plain.seconds, 1e-3)
        if abs(span_sum - traced.seconds) > allowed:
            errors.append(f"op {i}: span self times sum to {span_sum:.6f} s, "
                          f"wall {traced.seconds:.6f} s, allowed {allowed:.6f} s")
    return errors


def main() -> int:
    run.prepare()
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if names != list(workloads.WORKLOADS):
        print(f"FAIL BENCHMARK.json workloads {names} != {list(workloads.WORKLOADS)}")
        return 1
    workdir = run.OUT / "selftest"
    failed = 0
    try:
        for name in names:
            for label, check in (
                ("metric names and results", lambda: check_result(name, spec)),
                ("seeded inputs", lambda: check_inputs(name, workdir)),
                ("tracing", lambda: check_tracing(name, workdir)),
            ):
                errors = check()
                failed += bool(errors)
                print(f"{'FAIL' if errors else 'ok  '} {name}: {label}")
                for e in errors:
                    print(f"     {e}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
