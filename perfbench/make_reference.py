"""Write perfbench/reference/<workload>.json: output digests of the pool.

Run from the root of a checkout, on the commit whose outputs are accepted:

    python3 perfbench/make_reference.py blade-sweep kernel-eval ...

Every op of the pool must pass its own checks (exit status, manifest,
finite values); the digests then become what later runs must reproduce.
"""

import argparse
import json
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args(argv)
    run.prepare()
    import workloads

    for name in args.workloads:
        wl = workloads.WORKLOADS[name]
        workdir = run.OUT / f"reference-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        entries = []
        try:
            for k, params in enumerate(workloads.pool(wl, tiny=False)):
                res = wl.op(params, workdir, lambda call: call())
                if res.problems:
                    sys.exit(f"{name} pool entry {k}: {res.problems}")
                entries.append({"params_sha256": run.params_sha256(params),
                                "digest": workloads.digest(res.values)})
                print(f"{name}: entry {k} ok", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        path = run.HERE / "reference" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        body = ",\n".join(json.dumps(e) for e in entries)
        path.write_text(f'{{"workload": {json.dumps(name)},\n'
                        f' "provenance": {json.dumps(run.provenance(seed=None))},\n'
                        f' "entries": [\n{body}\n]}}\n')
        print(f"wrote {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
