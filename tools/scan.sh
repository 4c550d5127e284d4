#!/bin/sh
# Determinism scan lane (DESIGN.md "Determinism contract").
#
#   tools/scan.sh           # full lane: checker self-test, clean-tree
#                           # pass against the compilation database,
#                           # seeded-violation negative check (the gate
#                           # MUST fail on the fixture), then the Clang
#                           # Static Analyzer over src/ when clang++ is
#                           # installed
#   tools/scan.sh --no-csa  # skip the Clang Static Analyzer pass
#
# The checker is tools/lint_cascade.py; here it gets the scan
# preset's compile_commands.json (-p build-scan), which is how the
# seeded fixture enters its call graph. CI's scan job runs this script
# and nothing else, so each stage below runs once.
#
# The lane is bidirectional by construction, mirroring the analyze
# preset's seeded thread-safety check: a clean tree must pass AND a
# tree seeded with tests/detcheck_violation_fixture.cc must fail. A
# gate that only ever passes is indistinguishable from a dead one.
#
# The CSA pass is result-cached on the compilation database's hash
# (.scan-stamp, same idea as CI's .tidy-stamp): if no TU or flag
# changed since a green run, the analyzer is a no-op.
set -e
cd "$(dirname "$0")/.."

# ------------------------------------------------------------------
# Stage 1: checker self-test — every rule must fire on its violating
# fixture and stay quiet on the clean one before we trust it on the
# real tree.
# ------------------------------------------------------------------
python3 tools/lint_cascade.py --self-test

# ------------------------------------------------------------------
# Stage 2: clean tree must pass. The scan preset only needs to
# *configure* — the checker and the CSA read compile_commands.json,
# no object files required.
# ------------------------------------------------------------------
cmake --preset scan -DCASCADE_SEED_DET_VIOLATION=OFF >/dev/null
python3 tools/lint_cascade.py -p build-scan -v
echo "scan.sh: clean tree passed lint_cascade"

# ------------------------------------------------------------------
# Stage 3: seeded tree must FAIL. -DCASCADE_SEED_DET_VIOLATION=ON
# puts the deliberate-violation TU into the compilation database; if
# the checker still passes, it has been silently broken.
# ------------------------------------------------------------------
cmake --preset scan -DCASCADE_SEED_DET_VIOLATION=ON >/dev/null
if python3 tools/lint_cascade.py -p build-scan > detviolation.log 2>&1; then
    echo "scan.sh: lint_cascade accepted the seeded determinism" \
         "violation — the gate is dead" >&2
    cat detviolation.log >&2
    exit 1
fi
if ! grep -q "detcheck_violation_fixture" detviolation.log; then
    echo "scan.sh: lint_cascade failed for a reason other than the" \
         "seeded fixture:" >&2
    cat detviolation.log >&2
    exit 1
fi
rm -f detviolation.log
# Restore the clean database so later tools never see the fixture.
cmake --preset scan -DCASCADE_SEED_DET_VIOLATION=OFF >/dev/null
echo "scan.sh: gate is live — seeded violation rejected"

# ------------------------------------------------------------------
# Stage 4: Clang Static Analyzer over src/ TUs, curated checkers.
# Skipped (with a notice) when clang++ is missing — CI always runs it.
# ------------------------------------------------------------------
if [ "${1:-}" = "--no-csa" ]; then
    echo "scan.sh: --no-csa; skipping the Clang Static Analyzer"
    exit 0
fi
if ! command -v clang++ >/dev/null 2>&1; then
    echo "scan.sh: clang++ not found; skipping the Clang Static" \
         "Analyzer (CI runs it)" >&2
    exit 0
fi

DB=build-scan/compile_commands.json
STAMP=.scan-stamp
HASH=$(sha256sum "$DB" | cut -d' ' -f1)
if [ -f "$STAMP" ] && [ "$(cat "$STAMP")" = "$HASH" ]; then
    echo "scan.sh: CSA cache hit ($STAMP matches $DB); skipping"
    exit 0
fi

# Re-drive each src/ TU's recorded compile command through
# `clang++ --analyze`. Checker set is curated, not "everything":
# core + C++ memory/lifetime + dead stores — classes of bug the
# sanitizers and tests can miss on untaken paths.
python3 - "$DB" <<'EOF'
import json, shlex, subprocess, sys

db_path = sys.argv[1]
checkers = "core,cplusplus,deadcode.DeadStores,unix.Malloc"
failed = 0
tus = 0
for entry in json.load(open(db_path)):
    path = entry["file"]
    if "/src/" not in path or not path.endswith((".cc", ".cpp")):
        continue
    tus += 1
    args = entry.get("arguments") or shlex.split(entry["command"])
    clean, skip = [], False
    for a in args[1:]:
        if skip:
            skip = False
            continue
        if a == "-o":
            skip = True
            continue
        if a in ("-c", path):
            continue
        clean.append(a)
    cmd = (["clang++", "--analyze", "--analyzer-output", "text",
            "-Xclang", "-analyzer-checker=" + checkers,
            "-Wno-unknown-warning-option"] + clean + [path])
    r = subprocess.run(cmd, cwd=entry.get("directory", "."),
                       capture_output=True, text=True)
    if r.returncode != 0 or "warning:" in r.stderr:
        failed += 1
        sys.stderr.write(r.stderr)
print(f"scan.sh: CSA analyzed {tus} TUs, {failed} with findings")
sys.exit(1 if failed else 0)
EOF

printf '%s' "$HASH" > "$STAMP"
echo "scan.sh: Clang Static Analyzer clean; stamp written"
