#!/usr/bin/env python3
"""Build and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the perfbench binary and the
libraries under src/ with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), runs the workload in a child process,
forwards its output and checks that the final JSON line carries exactly
the metrics BENCHMARK.json lists for the mode. Extra flags (--toy,
--corrupt CHECK) are passed through to the binary. Exit code 0 only
when the build worked, every correctness check passed and the metric
set is complete.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
RUN_TIMEOUT_S = 170
BUILD_JOBS = "3"


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = pathlib.Path(base)
    if not path.is_absolute():
        path = ROOT / path
    return path / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure (a no-op when current) and build; returns the binary."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a checkout")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    steps = [["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(bdir), "--target", "perfbench",
              "-j", BUILD_JOBS]]
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed: " + " ".join(cmd))
    return bdir / "perfbench"


def git_sha():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def source_sha():
    """sha256 over the files that make up the measured program."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv):
    trace = None
    for i, a in enumerate(argv[:-1]):
        if a == "--trace":
            trace = argv[i + 1] == "1"
    if trace is None:
        fail("usage: run.py --workload NAME --seed N --seconds S "
             "--trace 0|1 [--toy] [--corrupt CHECK]")
    expected = expected_metrics(trace)
    binary = build()

    args = list(argv)
    if trace and "--trace-out" not in args:
        out_dir = build_dir() / "traces"
        out_dir.mkdir(parents=True, exist_ok=True)
        name = "run"
        for i, a in enumerate(args[:-1]):
            if a == "--workload":
                name = args[i + 1]
        args += ["--trace-out", str(out_dir / f"{name}.json")]
    cmd = [str(binary), *args, "--git-sha", git_sha(),
           "--source-sha", source_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        sys.stdout.write(e.stdout or "")
        fail(f"workload exceeded {RUN_TIMEOUT_S} s and was killed")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        fail(f"benchmark binary exited with {proc.returncode}")

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected)
                       if got[k] != expected[k])
        fail(f"metric set differs from BENCHMARK.json: missing {missing}, "
             f"extra {extra}, wrong unit {wrong}")


if __name__ == "__main__":
    main(sys.argv[1:])
