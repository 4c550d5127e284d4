#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Run from the root of a source checkout (it builds through run.py).

1. Every workload, at a toy size, with --trace 0 and --trace 1, must
   pass its checks and print exactly the metrics BENCHMARK.json lists,
   each with its unit.
2. Every correctness check must trip when the benchmark corrupts the value
   that check compares (--corrupt CHECK): the run must exit non-zero,
   print "CHECK FAILED" and report "correct": false.

Exits 0 when every case behaves; prints one line per case.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
SEED = "42"  # the guard-trip check is pinned to the default seed

# (workload, trace, check): the check that must trip, and where it runs.
CORRUPTIONS = [
    ("serve-live", "0", "serve-offline"),
    ("serve-live", "1", "serve-offline"),
    ("train-model", "0", "repeat"),
    ("train-model", "0", "val-loss"),
    ("train-model", "0", "guard"),
    ("train-model", "1", "traced"),
    ("train-model", "1", "coverage"),
    ("train-cascade", "1", "pipeline"),
]


def run(workload, trace, extra=()):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", SEED, "--seconds", "1",
           "--trace", trace, "--toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result


def main():
    failures = 0

    def report(ok, what):
        nonlocal failures
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        failures += 0 if ok else 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for w in WORKLOADS:
            proc, result = run(w, trace)
            got = ({k: v.get("unit") for k, v in result["metrics"].items()}
                   if result else {})
            ok = (proc.returncode == 0 and result is not None
                  and result["correct"] is True and got == expected
                  and result["attempted"] >= 1)
            report(ok, f"{w} --trace {trace}: correct, every {key} metric "
                       "emitted with its unit")
            if not ok:
                sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])

    for w, trace, check in CORRUPTIONS:
        proc, result = run(w, trace, ("--corrupt", check))
        ok = (proc.returncode != 0 and "CHECK FAILED" in proc.stdout
              and result is not None and result["correct"] is False)
        report(ok, f"{w} --trace {trace} --corrupt {check}: the check trips")

    print(f"{failures} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
