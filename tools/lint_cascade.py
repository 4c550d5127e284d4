#!/usr/bin/env python3
"""Cascade static checker: project contracts and the determinism contract.

One AST-free, stdlib-only tool for every textual invariant the
codebase documents (DESIGN.md §10 "Static analysis & concurrency
contracts" and §15 "Determinism contract"). Run with no arguments from
anywhere inside the repo; exits non-zero and prints
``file:line: [rule-id] message`` per violation.

Every C++ file under ``src/ tools/ bench/ tests/ examples/`` is read
and stripped of comments and string literals at most once; two kinds
of rule share that load:

* file-scope rules scan fixed parts of the tree;
* reachability rules walk the call graph from the functions marked
  ``CASCADE_TRAJECTORY`` (src/util/determinism.hh) and check every
  function reachable from a root. The universe is ``src/``, taken from
  ``compile_commands.json`` when ``-p BUILD`` is given (default:
  ``build/`` when it holds one), which also brings in seeded
  ``*violation_fixture*`` TUs; every ``src/`` header rides along.
  Function extents are recovered lexically, call edges by identifier
  matching (a name collision pulls in every same-named definition,
  erring towards checking more code). Observability — ``src/obs/``,
  ``util/timer.hh``, ``util/logging.hh`` — is outside the contract and
  never traversed: clocks and thread-ids there feed metrics and
  traces, never losses, gradients or serialized state.

Waivers
-------
``CASCADE_NONDET_OK("order-insensitivity argument")`` on the flagged
line or the line above is the only determinism waiver: it silences
``nondet-call``, ``unordered-iteration``, ``addr-order`` and
``unordered-reduce``. An empty reason silences nothing and is itself
reported (``empty-waiver``) wherever it appears. ``-v`` prints every
waived finding with its reason and a summary of the call graph. The
concurrency, process and I/O rules take a same-line
``cascade-lint: allow(<rule>)`` comment instead.

Rules
-----
nondet-call
    Calls to nondeterministic primitives: libc RNG (``rand``/
    ``srand``/``drand48``/...), wall clocks (``time``/``clock``/
    ``gettimeofday``/``*_clock::now``), thread and process identity
    (``this_thread::get_id``/``pthread_self``/``getpid``) and
    ``std::random_device``. Checked in trajectory-reachable code and,
    reachable or not, everywhere in ``src/core/`` and
    ``src/tensor/kernels.cc`` (the §9.2 bit-determinism TUs). Seeded
    draws go through util/rng.hh; timing belongs to the obs layer.

unordered-iteration
    Iteration (range-for or ``.begin()``) over a
    ``std::unordered_map``/``std::unordered_set``: hash-bucket order is
    unspecified and changes across standard libraries and insertion
    histories. Lookups and membership tests are fine — only iteration
    leaks the order. Checked everywhere in ``src/`` against names
    declared in the same file or in any ``src/`` header (so a member
    declared in a ``.hh`` and iterated in its ``.cc`` is seen), and in
    trajectory-reachable code against names declared anywhere in the
    universe.

addr-order
    Ordered containers keyed on raw pointers (``std::map<T*, ...>``,
    ``std::set<T*>``) in trajectory-reachable code: iteration order is
    allocation order, which no two runs share.

unordered-reduce
    ``std::reduce``/``std::transform_reduce`` and OpenMP
    ``reduction`` clauses in trajectory-reachable code: the fold order
    is unspecified, so float results differ run to run. Use
    ``std::accumulate``, ``kernels::gemm`` or ``mergeShardResults``.

empty-waiver
    A ``CASCADE_NONDET_OK("")`` with no reason, anywhere. The waiver
    *is* the documentation; an empty one is a silenced finding with
    no argument, so it silences nothing.

missing-root
    A ``CASCADE_TRAJECTORY`` marker whose function has no definition
    in the universe: a rename would silently shrink the checked
    surface to nothing.

hot-path-iostream
    ``<iostream>``/``std::cout``/``std::cerr`` in hot-path TUs
    (``src/tensor/``, ``src/core/``, ``src/util/parallel.*``):
    iostream brings static-init order dependencies and locale-sensitive
    formatting into the inner loop. Use CASCADE_LOG.

metric-name
    String literals passed to ``counter(``/``gauge(``/``histogram(``
    in ``src/ tools/ bench/`` follow the ``component.metric``
    convention (``^[a-z][a-z0-9_]*(\\.[a-z][a-z0-9_]*)+$``); a literal
    fragment of a concatenated name only has to stay inside
    ``[a-z0-9_.]``. tests/ are exempt.

raw-mutex
    ``std::mutex``/``std::lock_guard``/``std::unique_lock``/plain
    ``std::condition_variable`` in ``src/`` outside
    ``util/thread_annotations.hh``: locks must be visible to
    ``-Wthread-safety`` (AnnotatedMutex + LockGuard/UniqueLock).
    Escape: ``cascade-lint: allow(raw-mutex)``.

unguarded-mutex
    A ``src/`` file declaring an ``AnnotatedMutex`` carries at least
    one ``CASCADE_GUARDED_BY``/``CASCADE_PT_GUARDED_BY``/
    ``CASCADE_REQUIRES``, or justifies each declaration with an inline
    comment (function-local mutexes cannot be annotated).

deprecated-api
    The removed pre-kernels GEMM entry points (``matmulRaw`` and
    friends) and the removed ``graph/io.hh`` loaders
    (``loadEventsCsv`` and friends) stay removed: any reference
    anywhere is a violation, with no escape. Use ``kernels::gemm`` and
    ``Dataset::open``/``saveCsv``/``saveBinary``.

tsan-supp-justified
    Every entry in ``tools/tsan.supp`` is directly preceded by a ``#``
    justification comment.

cv-wait-predicate
    A single-argument ``cv.wait(lock)`` sits inside a ``while``/
    ``for`` loop re-checking its predicate (found on the same
    statement or through up to three enclosing blocks). Checked in
    ``src/ tools/ bench/ tests/``. Escape:
    ``cascade-lint: allow(cv-wait)``. (The project uses the explicit
    loop: the lambda-predicate overload defeats Clang's thread-safety
    analysis through the capture.)

raw-process
    ``fork``/``vfork``/``exec*``/``kill``/``raise`` in ``src/ tools/
    bench/`` outside ``src/train/shard.*``, ``tools/chaos_kill`` and
    ``tools/chaos_worker_kill``. Escape:
    ``cascade-lint: allow(raw-process)``.

unchecked-io
    Statement-position (result discarded, ``(void)`` included) calls
    to ``::write``/``::close``/``::fsync``/``::fdatasync``/
    ``::rename``/``std::rename``/``std::fclose``/``std::fwrite`` in
    ``src/ tools/ bench/`` outside ``src/util/binio.*``: the silent
    partial-write bug class. Use the checked util/binio.hh helpers or
    check the return. Escape: ``cascade-lint: allow(unchecked-io)``.

Self-test: ``lint_cascade.py --self-test`` builds a synthetic mini-repo
per case and asserts every rule fires on a violating input and stays
quiet on a clean one, that justified waivers silence and empty ones do
not, and that unreachable code is not held to the trajectory rules.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

# --------------------------------------------------------------------
# Loading: walk once, read and strip each file once
# --------------------------------------------------------------------

CXX_EXTENSIONS = (".cc", ".hh", ".cpp", ".hpp", ".h")
HEADER_EXTENSIONS = (".hh", ".hpp", ".h")
SCAN_DIRS = ("src", "tools", "bench", "tests", "examples")

# Outside the determinism contract; never part of the call graph.
OBSERVER_PATHS = ("src/obs/", "src/util/timer.hh", "src/util/logging.hh")

# Strip // and /* */ comments and string/char literals so rules fire
# on code, not on prose about the thing they forbid. String contents
# go first so a quoted "//" does not eat the line.
_COMMENT_OR_STRING = re.compile(
    r'"(?:[^"\\]|\\.)*"'
    r"|'(?:[^'\\]|\\.)*'"
    r"|//[^\n]*"
    r"|/\*.*?\*/",
    re.DOTALL,
)


def strip_comments_and_strings(text: str) -> str:
    """Blank comments/strings, preserving offsets and line numbers."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    return _COMMENT_OR_STRING.sub(blank, text)


# The waiver marker is found in code (so prose about it in a comment
# is not a waiver); its reason is read from the raw text at the same
# offset, since stripping blanks the string literal.
_WAIVER_RE = re.compile(r"\bCASCADE_NONDET_OK\s*\(")
_WAIVER_REASON_RE = re.compile(r'\s*"((?:[^"\\]|\\.)*)"')


class Source(NamedTuple):
    relpath: str
    raw: str
    code: str  # comments and string literals blanked
    raw_lines: List[str]
    code_lines: List[str]
    waivers: Dict[int, str]  # 1-based line -> reason
    unordered: Set[str]  # names declared as unordered containers

    def line_of(self, offset: int) -> int:
        return self.code.count("\n", 0, offset) + 1


def load_source(root: str, relpath: str) -> Source:
    with open(os.path.join(root, relpath), encoding="utf-8") as f:
        raw = f.read()
    code = strip_comments_and_strings(raw)
    waivers: Dict[int, str] = {}
    for m in _WAIVER_RE.finditer(code):
        reason = _WAIVER_REASON_RE.match(raw, m.end())
        if reason:
            waivers[code.count("\n", 0, m.start()) + 1] = reason.group(1)
    return Source(relpath, raw, code, raw.splitlines(), code.splitlines(),
                  waivers, _collect_unordered_names(code))


def walk_repo(root: str) -> List[str]:
    """Relative paths of every C++ file under SCAN_DIRS, sorted."""
    out: List[str] = []
    for sub in SCAN_DIRS:
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, sub)):
            dirnames[:] = [d for d in dirnames if not d.startswith(".")]
            out += [
                os.path.relpath(os.path.join(dirpath, n), root)
                for n in filenames
                if n.endswith(CXX_EXTENSIONS)
            ]
    return sorted(out)


def find_repo_root(start: str) -> str:
    d = os.path.abspath(start)
    while True:
        if os.path.isdir(os.path.join(d, ".git")) or os.path.isfile(
            os.path.join(d, "CMakePresets.json")
        ):
            return d
        parent = os.path.dirname(d)
        if parent == d:
            return os.path.abspath(start)
        d = parent


class Violation(NamedTuple):
    path: str
    line: int  # 1-based
    rule: str
    message: str
    func: str = ""  # enclosing trajectory-reachable function, if any

    def __str__(self) -> str:
        where = f" in '{self.func}'" if self.func else ""
        return f"{self.path}:{self.line}: [{self.rule}]{where} {self.message}"


# --------------------------------------------------------------------
# Function extents and the call graph (lexical)
# --------------------------------------------------------------------

_KEYWORDS = frozenset(
    """if for while switch return catch sizeof alignof decltype throw
    new delete static_assert case do else defined co_await co_return
    co_yield""".split()
)

# An identifier (possibly ::-qualified, possibly a destructor)
# directly followed by an open paren.
_CAND_RE = re.compile(
    r"([A-Za-z_~][\w]*(?:\s*::\s*[A-Za-z_~][\w]*)*)\s*\("
)

# Tokens that may legally sit between the parameter list's `)` and
# the body's `{`: cv/ref/exception/virt specifiers and a ctor-init
# list (balanced parens; this codebase uses paren-init members).
_BETWEEN_OK = re.compile(r"[\s\w:&*,()\[\]<>~.]")

_TRAJECTORY_RE = re.compile(r"\bCASCADE_TRAJECTORY\b")


class FuncDef(NamedTuple):
    name: str  # last-component name (no class/namespace prefix)
    qual: str  # as written at the definition site
    start: int  # offset of the opening brace in the stripped text
    end: int  # offset one past the closing brace


def _match_forward(code: str, pos: int, open_ch: str, close_ch: str,
                   limit: int) -> int:
    """Offset one past the bracket closing `open_ch` at `pos`, or -1."""
    depth = 0
    for i in range(pos, min(len(code), pos + limit)):
        c = code[i]
        if c == open_ch:
            depth += 1
        elif c == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return -1


def find_function_defs(code: str) -> List[FuncDef]:
    """Recover function definitions with body extents, lexically.

    A definition is NAME(params) [specifiers] [: ctor-init] { ... }
    where NAME's last component is not a control-flow keyword and the
    candidate is not a member access (`.name(` / `->name(`).
    """
    defs: List[FuncDef] = []
    for m in _CAND_RE.finditer(code):
        name = re.sub(r"\s+", "", m.group(1))
        last = name.rsplit("::", 1)[-1].lstrip("~")
        if last in _KEYWORDS or name.split("::", 1)[0] in _KEYWORDS:
            continue
        before = code[: m.start()].rstrip()
        if before.endswith(".") or before.endswith("->"):
            continue
        close = _match_forward(code, m.end() - 1, "(", ")", 20000)
        if close < 0:
            continue
        # Walk from `)` to a `{` through specifier/ctor-init territory
        # only; a `;`, `=` or anything else is not a definition.
        i = close
        depth = 0
        body = -1
        while i < len(code) and i - close < 2000:
            c = code[i]
            if depth == 0 and c == "{":
                body = i
                break
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    break
                depth -= 1
            elif depth == 0 and not _BETWEEN_OK.match(c):
                break
            i += 1
        if body < 0:
            continue
        end = _match_forward(code, body, "{", "}", 2_000_000)
        if end >= 0:
            defs.append(FuncDef(last, name, body, end))
    return defs


def _root_names(sources: List[Source]) -> Set[str]:
    """Functions marked CASCADE_TRAJECTORY, by last-component name."""
    roots: Set[str] = set()
    for src in sources:
        for m in _TRAJECTORY_RE.finditer(src.code):
            # Not a marker when it is the macro's own definition.
            bol = src.code.rfind("\n", 0, m.start()) + 1
            if src.code[bol : m.start()].lstrip().startswith("#"):
                continue
            cand = _CAND_RE.search(src.code, m.end())
            if cand:
                name = re.sub(r"\s+", "", cand.group(1)).rsplit("::", 1)[-1]
                if not name.startswith("CASCADE_"):
                    roots.add(name)
    return roots


def _call_names(code: str, start: int, end: int) -> Set[str]:
    names: Set[str] = set()
    for m in _CAND_RE.finditer(code, start, end):
        name = re.sub(r"\s+", "", m.group(1)).rsplit("::", 1)[-1]
        if name not in _KEYWORDS:
            names.add(name.lstrip("~"))
    return names


class Graph(NamedTuple):
    files: int
    functions: int
    roots: Set[str]
    missing: Set[str]  # roots with no definition
    reachable: List[Tuple[Source, FuncDef]]
    unordered: Set[str]  # unordered-container names in the universe


# --------------------------------------------------------------------
# Shared determinism patterns
# --------------------------------------------------------------------

_NONDET_CALL_RE = re.compile(
    r"(?<![\w.])(?:std\s*::\s*)?"
    r"(?:rand|srand|rand_r|random|srandom|drand48|lrand48|mrand48"
    r"|time|clock|gettimeofday|clock_gettime|getpid|gettid)\s*\("
    r"|(?:system|steady|high_resolution)_clock\s*::\s*now"
    r"|this_thread\s*::\s*get_id"
    r"|(?<![\w.])pthread_self\s*\("
    r"|(?<![\w.])random_device\b"
)

_UNORDERED_DECL_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<"
)

_ADDR_ORDER_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*"
)

_UNORDERED_REDUCE_RE = re.compile(
    r"\bstd\s*::\s*(?:reduce|transform_reduce)\s*\("
    r"|#\s*pragma\s+omp\b[^\n]*\breduction\s*\("
)


def _collect_unordered_names(code: str) -> Set[str]:
    """Names of variables/members declared as unordered containers."""
    names: Set[str] = set()
    for m in _UNORDERED_DECL_RE.finditer(code):
        close = _match_forward(code, m.end() - 1, "<", ">", 2000)
        if close < 0:
            continue
        vm = re.match(r"\s*[&*]?\s*([A-Za-z_]\w*)\s*[;={(,)]",
                      code[close : close + 200])
        if vm:
            names.add(vm.group(1))
    return names


@lru_cache(maxsize=None)
def _iteration_re(names: frozenset) -> re.Pattern:
    alt = "|".join(sorted(re.escape(n) for n in names))
    return re.compile(
        r"for\s*\([^;()]*?:\s*(?:[\w.\->]*?[.>])?(" + alt + r")\s*\)"
        r"|\b(" + alt + r")\s*\.\s*c?r?begin\s*\("
    )


def _iteration_sites(code: str, names: Set[str], start: int,
                     end: int) -> List[Tuple[int, str]]:
    """(offset, varname) of range-for / .begin() over `names`."""
    if not names:
        return []
    return [
        (m.start(), m.group(1) or m.group(2))
        for m in _iteration_re(frozenset(names)).finditer(code, start, end)
    ]


# --------------------------------------------------------------------
# The checker: one load per file, findings deduplicated per site
# --------------------------------------------------------------------


class Checker:
    def __init__(self, root: str, build_dir: Optional[str] = None):
        self.root = root
        self.build_dir = build_dir
        self.paths = walk_repo(root)
        self._sources: Dict[str, Source] = {}
        self._graph: Optional[Graph] = None
        self.found: Dict[Tuple[str, int, str], Violation] = {}
        self.waived: Dict[Tuple[str, int, str], Tuple[Violation, str]] = {}

    def load(self, relpath: str) -> Source:
        src = self._sources.get(relpath)
        if src is None:
            src = self._sources[relpath] = load_source(self.root, relpath)
        return src

    def files(self, *prefixes: str) -> List[Source]:
        return [self.load(p) for p in self.paths if p.startswith(prefixes)]

    def report(self, path: str, line: int, rule: str, message: str,
               func: str = "") -> None:
        self.found.setdefault(
            (path, line, rule), Violation(path, line, rule, message, func)
        )

    def flag(self, src: Source, offset: int, rule: str, message: str,
             func: str = "") -> None:
        """Report a determinism finding unless a waiver with a reason
        sits on its line or the line above."""
        line = src.line_of(offset)
        for ln in (line, line - 1):
            reason = src.waivers.get(ln, "")
            if reason.strip():
                self.waived.setdefault(
                    (src.relpath, line, rule),
                    (Violation(src.relpath, line, rule, message, func),
                     reason),
                )
                return
        self.report(src.relpath, line, rule, message, func)

    def spans(self, *prefixes: str) -> List[Tuple[Source, int, int, str]]:
        """(source, start, end, func) for trajectory-reachable bodies,
        then for whole files under `prefixes`."""
        out = [(s, d.start, d.end, d.qual) for s, d in self.graph().reachable]
        return out + [(s, 0, len(s.code), "") for s in self.files(*prefixes)]

    def universe(self) -> List[str]:
        """Relative paths the call graph is built from."""
        files: Set[str] = set()
        if self.build_dir:
            with open(os.path.join(self.build_dir, "compile_commands.json"),
                      encoding="utf-8") as f:
                db = json.load(f)
            for e in db:
                absf = os.path.abspath(
                    os.path.join(e.get("directory", ""), e["file"])
                )
                rel = os.path.relpath(absf, self.root)
                if (rel.startswith("src/")
                        or "violation_fixture" in os.path.basename(rel)) \
                        and rel.endswith(CXX_EXTENSIONS) \
                        and os.path.isfile(absf):
                    files.add(rel)
        else:
            files.update(p for p in self.paths if p.startswith("src/"))
        # Headers always ride along: markers and members live there.
        files.update(
            p for p in self.paths
            if p.startswith("src/") and p.endswith(HEADER_EXTENSIONS)
        )
        return sorted(
            f for f in files if not f.startswith(OBSERVER_PATHS)
        )

    def graph(self) -> Graph:
        if self._graph is not None:
            return self._graph
        sources = [self.load(p) for p in self.universe()]
        by_name: Dict[str, List[Tuple[Source, FuncDef]]] = {}
        functions = 0
        for src in sources:
            for d in find_function_defs(src.code):
                by_name.setdefault(d.name, []).append((src, d))
                functions += 1
        roots = _root_names(sources)
        reachable: List[Tuple[Source, FuncDef]] = []
        reached: Set[str] = set()
        # A ctor-init entry `m_(x)` parses as a definition sharing its
        # constructor's body; keep each body once.
        bodies: Set[Tuple[str, int]] = set()
        work = sorted(roots & by_name.keys())
        while work:
            name = work.pop()
            if name in reached:
                continue
            reached.add(name)
            for src, d in by_name[name]:
                if (src.relpath, d.start) in bodies:
                    continue
                bodies.add((src.relpath, d.start))
                reachable.append((src, d))
                work += [c for c in _call_names(src.code, d.start, d.end)
                         if c in by_name and c not in reached]
        unordered: Set[str] = set()
        for src in sources:
            unordered |= src.unordered
        self._graph = Graph(len(sources), functions, roots,
                            roots - by_name.keys(), reachable, unordered)
        return self._graph


# --------------------------------------------------------------------
# Determinism rules
# --------------------------------------------------------------------


def rule_nondet_call(ck: Checker) -> None:
    for src, start, end, func in ck.spans("src/core/",
                                          "src/tensor/kernels.cc"):
        for m in _NONDET_CALL_RE.finditer(src.code, start, end):
            prim = m.group(0).rstrip("(").strip()
            ck.flag(src, m.start(), "nondet-call",
                    f"nondeterministic primitive '{prim}' in "
                    "trajectory code; seeded draws go through "
                    "util/rng.hh, timing through the obs layer, or "
                    "waive with CASCADE_NONDET_OK(reason)", func)


def rule_unordered_iteration(ck: Checker) -> None:
    headers: Set[str] = set()
    for src in ck.files("src/"):
        if src.relpath.endswith(HEADER_EXTENSIONS):
            headers |= src.unordered
    g = ck.graph()
    # Reachable bodies see every name in the universe; whole src/
    # files see their own names plus the headers' (not every file's:
    # one TU's local set would flag another TU's same-named vector).
    scopes = [(s, d.start, d.end, d.qual, g.unordered)
              for s, d in g.reachable]
    scopes += [(s, 0, len(s.code), "", s.unordered | headers)
               for s in ck.files("src/")]
    for src, start, end, func, names in scopes:
        for off, var in _iteration_sites(src.code, names, start, end):
            ck.flag(src, off, "unordered-iteration",
                    f"iteration over unordered container '{var}' — "
                    "hash-bucket order is unspecified and breaks "
                    "bit-identical trajectories; iterate a sorted copy, "
                    "restructure, or waive with a written "
                    "CASCADE_NONDET_OK(reason)", func)


def rule_addr_order(ck: Checker) -> None:
    for src, start, end, func in ck.spans():
        for m in _ADDR_ORDER_RE.finditer(src.code, start, end):
            ck.flag(src, m.start(), "addr-order",
                    "ordered container keyed on a raw pointer — "
                    "iteration order is allocation order, which no two "
                    "runs share; key on a stable id instead", func)


def rule_unordered_reduce(ck: Checker) -> None:
    for src, start, end, func in ck.spans():
        for m in _UNORDERED_REDUCE_RE.finditer(src.code, start, end):
            ck.flag(src, m.start(), "unordered-reduce",
                    "reduction with unspecified fold order in trajectory "
                    "code; use std::accumulate, kernels::gemm, or the "
                    "fixed-shard-order merge", func)


def rule_empty_waiver(ck: Checker) -> None:
    for src in ck.files(*SCAN_DIRS):
        for line, reason in src.waivers.items():
            if not reason.strip():
                ck.report(src.relpath, line, "empty-waiver",
                          "CASCADE_NONDET_OK with an empty reason silences "
                          "nothing — the waiver IS the documentation")


def rule_missing_root(ck: Checker) -> None:
    for name in sorted(ck.graph().missing):
        ck.report("<roots>", 0, "missing-root",
                  f"CASCADE_TRAJECTORY root '{name}' has no definition in "
                  "the scanned universe — marker and definition drifted "
                  "apart")


# --------------------------------------------------------------------
# File-scope rules
# --------------------------------------------------------------------


def _scan_lines(ck: Checker, prefixes: Tuple[str, ...], pattern: re.Pattern,
                rule: str, message: str, allow: str = "",
                skip: Tuple[str, ...] = ()) -> None:
    """Report each code line under `prefixes` matching `pattern`."""
    for src in ck.files(*prefixes):
        if skip and src.relpath.startswith(skip):
            continue
        for i, (code, raw) in enumerate(zip(src.code_lines, src.raw_lines), 1):
            if pattern.search(code) and not (allow and allow in raw):
                ck.report(src.relpath, i, rule, message)


_IOSTREAM_RE = re.compile(
    r"#\s*include\s*<iostream>|\bstd::(?:cout|cerr|clog)\b"
)


def rule_hot_path_iostream(ck: Checker) -> None:
    _scan_lines(ck, ("src/tensor/", "src/core/", "src/util/parallel."),
                _IOSTREAM_RE, "hot-path-iostream",
                "iostream in a hot-path TU; use CASCADE_LOG "
                "(util/logging.hh)")


_METRIC_CALL_RE = re.compile(
    r"\b(?:counter|gauge|histogram)\s*\(\s*\"((?:[^\"\\]|\\.)*)\""
)
_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_METRIC_FRAGMENT_RE = re.compile(r"^[a-z0-9_.]+$")


def rule_metric_name(ck: Checker) -> None:
    for src in ck.files("src/", "tools/", "bench/"):
        for i, line in enumerate(src.raw_lines, 1):
            for m in _METRIC_CALL_RE.finditer(line):
                name = m.group(1)
                # A literal followed by concatenation is a fragment of
                # a dynamic name: only the charset is checkable.
                is_fragment = line[m.end():].lstrip().startswith("+") or \
                    "+" in line[: m.start()].rsplit("(", 1)[-1]
                pattern = (
                    _METRIC_FRAGMENT_RE if is_fragment else _METRIC_NAME_RE
                )
                if not pattern.match(name):
                    ck.report(src.relpath, i, "metric-name",
                              f'metric name "{name}" violates the '
                              "component.metric convention "
                              "(lowercase dotted path)")


_RAW_MUTEX_RE = re.compile(
    r"\bstd::(?:mutex|recursive_mutex|shared_mutex|timed_mutex"
    r"|lock_guard|unique_lock|scoped_lock"
    r"|condition_variable)\b(?!_any)"
)
_ALLOW_RAW_MUTEX = "cascade-lint: allow(raw-mutex)"


def rule_raw_mutex(ck: Checker) -> None:
    _scan_lines(ck, ("src/",), _RAW_MUTEX_RE, "raw-mutex",
                "raw std synchronization primitive invisible to "
                "-Wthread-safety; use AnnotatedMutex/LockGuard/"
                "UniqueLock (util/thread_annotations.hh) or justify "
                f"with '{_ALLOW_RAW_MUTEX}'",
                allow=_ALLOW_RAW_MUTEX,
                skip=("src/util/thread_annotations.hh",))


_ANNOTATED_DECL_RE = re.compile(r"\bAnnotatedMutex\s+[A-Za-z_]\w*\s*;")
_GUARD_ANNOTATION_RE = re.compile(
    r"\bCASCADE_(?:PT_)?GUARDED_BY\s*\(|\bCASCADE_REQUIRES\s*\("
)


def rule_unguarded_mutex(ck: Checker) -> None:
    for src in ck.files("src/"):
        if src.relpath.endswith("thread_annotations.hh") or \
                not _ANNOTATED_DECL_RE.search(src.code) or \
                _GUARD_ANNOTATION_RE.search(src.raw):
            continue
        # No annotation anywhere: each declaration must justify itself
        # with an inline comment (function-local mutexes cannot be
        # named by GUARDED_BY).
        for i, (code, raw) in enumerate(zip(src.code_lines, src.raw_lines), 1):
            if _ANNOTATED_DECL_RE.search(code) and "//" not in raw:
                ck.report(src.relpath, i, "unguarded-mutex",
                          "AnnotatedMutex with no CASCADE_GUARDED_BY/"
                          "CASCADE_REQUIRES in the file and no inline "
                          "justification comment — a lock that guards "
                          "nothing it can name is dead or undocumented")


_DEPRECATED_API_RE = re.compile(
    r"\bmatmul(?:TransA|TransB)?Raw\b"
    r"|\b(?:save|load)Events(?:Csv|Binary)\b"
)


def rule_deprecated_api(ck: Checker) -> None:
    _scan_lines(ck, SCAN_DIRS, _DEPRECATED_API_RE, "deprecated-api",
                "removed pre-kernels/pre-Dataset API; use kernels::gemm / "
                "kernels::gemmAcc or Dataset::open / saveCsv / saveBinary")


def rule_tsan_supp_justified(ck: Checker) -> None:
    path = os.path.join(ck.root, "tools", "tsan.supp")
    if not os.path.isfile(path):
        return
    prev_comment = False
    with open(path, encoding="utf-8") as f:
        for i, raw in enumerate(f.read().splitlines(), 1):
            line = raw.strip()
            if line.startswith("#"):
                prev_comment = True
                continue
            if line and not prev_comment:
                ck.report("tools/tsan.supp", i, "tsan-supp-justified",
                          "suppression entry without a justification "
                          "comment directly above it")
            # Consecutive entries each need their own comment.
            prev_comment = False


# Single-identifier-argument wait: `cv.wait(lock)`. The zero-argument
# future/pool `wait()` and the two-argument predicate overload
# `wait(lock, pred)` deliberately do not match.
_CV_WAIT_RE = re.compile(r"\.\s*wait\s*\(\s*[A-Za-z_]\w*\s*\)")
_ALLOW_CV_WAIT = "cascade-lint: allow(cv-wait)"
# A loop construct ending right where a block opens: `while (...) {`,
# `for (...) {` (one paren-nesting level) or `do {`.
_LOOP_BEFORE_BRACE_RE = re.compile(
    r"\b(?:while|for)\s*\((?:[^()]|\([^()]*\))*\)\s*$|\bdo\s*$"
)


def _wait_inside_loop(code: str, pos: int) -> bool:
    """True when the wait at `pos` is lexically inside a loop.

    Two accepted shapes: the loop header on the same statement
    (`while (!p) cv.wait(l);`), or the wait inside a brace block —
    walking outward through up to three enclosing blocks — whose
    opener is a `while`/`for`/`do`.
    """
    stmt_start = max(
        code.rfind(";", 0, pos),
        code.rfind("{", 0, pos),
        code.rfind("}", 0, pos),
    )
    if re.search(r"\b(?:while|for)\b", code[stmt_start + 1 : pos]):
        return True
    depth = 0
    levels = 0
    i = pos
    while i > 0 and levels < 3:
        i -= 1
        c = code[i]
        if c == "}":
            depth += 1
        elif c == "{":
            if depth:
                depth -= 1
                continue
            if _LOOP_BEFORE_BRACE_RE.search(code[max(0, i - 300) : i]):
                return True
            levels += 1
    return False


def _scan_calls(ck: Checker, prefixes: Tuple[str, ...], pattern: re.Pattern,
                rule: str, message: str, allow: str,
                skip: Tuple[str, ...] = (),
                keep: Callable[[str, re.Match], bool] = lambda c, m: True,
                ) -> None:
    """Report each match of `pattern` under `prefixes` that `keep`
    accepts and whose line lacks the `allow` comment."""
    for src in ck.files(*prefixes):
        if skip and src.relpath.startswith(skip):
            continue
        for m in pattern.finditer(src.code):
            line = src.line_of(m.start())
            if allow not in src.raw_lines[line - 1] and keep(src.code, m):
                ck.report(src.relpath, line, rule, message)


def rule_cv_wait_predicate(ck: Checker) -> None:
    _scan_calls(ck, ("src/", "tools/", "bench/", "tests/"), _CV_WAIT_RE,
                "cv-wait-predicate",
                "condition-variable wait without an enclosing predicate "
                "loop — spurious/lost wakeups resume with the condition "
                "still false; wrap in `while (!pred) cv.wait(lock);` or "
                f"justify with '{_ALLOW_CV_WAIT}'",
                _ALLOW_CV_WAIT,
                keep=lambda code, m: not _wait_inside_loop(code, m.start()))


# Process-control primitives: confined to the worker runtime and the
# chaos tools so every fork has exactly one reaper and every kill an
# audited target.
_RAW_PROCESS_RE = re.compile(
    r"\b(?:::)?(?:fork|vfork|execv|execvp|execve|execl|execlp"
    r"|kill|raise)\s*\("
)
_ALLOW_RAW_PROCESS = "cascade-lint: allow(raw-process)"


def rule_raw_process(ck: Checker) -> None:
    _scan_calls(ck, ("src/", "tools/", "bench/"), _RAW_PROCESS_RE,
                "raw-process",
                "raw process-control call outside the worker runtime / "
                "chaos-tool zones; route through train/shard.hh or "
                f"justify with '{_ALLOW_RAW_PROCESS}'",
                _ALLOW_RAW_PROCESS,
                skip=("src/train/shard.", "tools/chaos_kill",
                      "tools/chaos_worker_kill"))


# Raw durability primitives whose return value must be consumed. The
# optional (void) prefix is matched so an explicit discard is still a
# violation: silence needs the allow-comment, not a cast.
_UNCHECKED_IO_RE = re.compile(
    r"(?:\(\s*void\s*\)\s*)?"
    r"(?:::(?:write|close|fsync|fdatasync|rename)"
    r"|std::(?:rename|fclose|fwrite))\s*\("
)
_ALLOW_UNCHECKED_IO = "cascade-lint: allow(unchecked-io)"


def _statement_position(code: str, m: re.Match) -> bool:
    """The call (or its (void) cast) starts a statement: preceded by
    ';', '{', '}' or nothing. Anything else (=, if(, return, ==, ...)
    consumes the result."""
    before = code[: m.start()].rstrip()
    return not before or before[-1] in ";{}"


def rule_unchecked_io(ck: Checker) -> None:
    _scan_calls(ck, ("src/", "tools/", "bench/"), _UNCHECKED_IO_RE,
                "unchecked-io",
                "raw I/O primitive with the return value discarded — the "
                "silent-partial-write bug class; use the checked "
                "util/binio.hh helpers, check the return, or justify "
                f"with '{_ALLOW_UNCHECKED_IO}'",
                _ALLOW_UNCHECKED_IO,
                skip=("src/util/binio.",),
                keep=_statement_position)


RULES: List[Tuple[str, Callable[[Checker], None]]] = [
    ("nondet-call", rule_nondet_call),
    ("unordered-iteration", rule_unordered_iteration),
    ("addr-order", rule_addr_order),
    ("unordered-reduce", rule_unordered_reduce),
    ("empty-waiver", rule_empty_waiver),
    ("missing-root", rule_missing_root),
    ("hot-path-iostream", rule_hot_path_iostream),
    ("metric-name", rule_metric_name),
    ("raw-mutex", rule_raw_mutex),
    ("unguarded-mutex", rule_unguarded_mutex),
    ("deprecated-api", rule_deprecated_api),
    ("tsan-supp-justified", rule_tsan_supp_justified),
    ("cv-wait-predicate", rule_cv_wait_predicate),
    ("raw-process", rule_raw_process),
    ("unchecked-io", rule_unchecked_io),
]


def run(root: str, build_dir: Optional[str] = None,
        rules: Optional[Set[str]] = None) -> Checker:
    ck = Checker(root, build_dir)
    for name, fn in RULES:
        if rules is None or name in rules:
            fn(ck)
    return ck


# --------------------------------------------------------------------
# Self-test: every rule fires on a synthetic violation and stays quiet
# on a clean counterpart. Guards the checker against regex rot.
# --------------------------------------------------------------------

_PRELUDE = """
#define CASCADE_TRAJECTORY
#define CASCADE_NONDET_OK(reason)
"""

_TABLE_LOOP = """
#include <unordered_map>
std::unordered_map<int, int> table_;
int sum() {
    int s = 0;
    %s
    for (const auto &kv : table_) s += kv.second;
    return s;
}
"""

# (rule — None means "any rule" —, must fire?, {relpath: content})
_CASES: List[Tuple[Optional[str], bool, Dict[str, str]]] = [
    # Always-checked determinism TU: fires with no root at all.
    ("nondet-call", True,
     {"src/core/victim.cc": "int f() { return rand(); }\n"}),
    ("nondet-call", False,
     {"src/core/victim.cc": "int f() { return 4; }\n"}),
    # Reachable through a call edge from a root.
    ("nondet-call", True, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() { return helper(); }
int helper() { return rand(); }
"""}),
    ("nondet-call", False, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() { return helper(); }
int helper() { return 4; }
"""}),
    # Unreachable from every root: not trajectory code.
    ("nondet-call", False, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() { return 1; }
int deadCode() { return rand(); }
"""}),
    # Same-file declaration, no root.
    ("unordered-iteration", True, {"src/tgnn/victim.cc": _TABLE_LOOP % ""}),
    ("unordered-iteration", False, {"src/tgnn/victim.cc": _TABLE_LOOP
                                    % 'CASCADE_NONDET_OK("sorted first")'}),
    # Reachable from a root; a lookup is not iteration.
    ("unordered-iteration", True, {"src/victim.cc": _PRELUDE + """
#include <unordered_map>
std::unordered_map<int, int> table_;
CASCADE_TRAJECTORY
int stepRoot() {
    int s = 0;
    for (const auto &kv : table_) s += kv.second;
    return s;
}
"""}),
    ("unordered-iteration", False, {"src/victim.cc": _PRELUDE + """
#include <unordered_map>
std::unordered_map<int, int> table_;
CASCADE_TRAJECTORY
int stepRoot() { return table_.count(3); }
"""}),
    # A member declared in a header and iterated in its .cc, no root.
    ("unordered-iteration", True, {
        "src/tgnn/box.hh": "#include <unordered_map>\n"
                           "struct Box { std::unordered_map<int, int> "
                           "boxes_; int total() const; };\n",
        "src/tgnn/box.cc": "int Box::total() const {\n"
                           "    int s = 0;\n"
                           "    for (const auto &kv : boxes_) s += kv.second;\n"
                           "    return s;\n}\n",
    }),
    # Another .cc's local unordered name does not leak into this one.
    ("unordered-iteration", False, {
        "src/graph/a.cc": "#include <unordered_set>\n"
                          "bool seen(int v) { std::unordered_set<int> "
                          "touched; return touched.count(v); }\n",
        "src/graph/b.cc": "#include <vector>\n"
                          "int sum() { std::vector<int> touched; int s = 0;\n"
                          "    for (int t : touched) s += t;\n"
                          "    return s; }\n",
    }),
    # A justified waiver silences the reachable finding completely.
    (None, False, {"src/victim.cc": _PRELUDE + """
#include <unordered_map>
std::unordered_map<int, int> table_;
CASCADE_TRAJECTORY
int stepRoot() {
    int s = 0;
    CASCADE_NONDET_OK("int addition is commutative")
    for (const auto &kv : table_) s += kv.second;
    return s;
}
"""}),
    ("addr-order", True, {"src/victim.cc": _PRELUDE + """
#include <map>
CASCADE_TRAJECTORY
int stepRoot() {
    std::map<int *, int> by_addr;
    return by_addr.size();
}
"""}),
    ("addr-order", False, {"src/victim.cc": _PRELUDE + """
#include <map>
CASCADE_TRAJECTORY
int stepRoot() {
    std::map<long, int> by_id;
    return by_id.size();
}
"""}),
    ("unordered-reduce", True, {"src/victim.cc": _PRELUDE + """
#include <numeric>
CASCADE_TRAJECTORY
float stepRoot(float *a, float *b) {
    return std::reduce(a, b, 0.0f);
}
"""}),
    ("unordered-reduce", False, {"src/victim.cc": _PRELUDE + """
#include <numeric>
CASCADE_TRAJECTORY
float stepRoot(float *a, float *b) {
    return std::accumulate(a, b, 0.0f);
}
"""}),
    ("empty-waiver", True, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() {
    CASCADE_NONDET_OK("")
    return rand();
}
"""}),
    ("empty-waiver", False, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() {
    CASCADE_NONDET_OK("seed constant under test harness")
    return rand();
}
"""}),
    # An empty waiver outside any root is reported and silences nothing.
    ("empty-waiver", True, {"src/tgnn/victim.cc": _TABLE_LOOP
                            % 'CASCADE_NONDET_OK("")'}),
    ("unordered-iteration", True, {"src/tgnn/victim.cc": _TABLE_LOOP
                                   % 'CASCADE_NONDET_OK("")'}),
    # An empty waiver inside a root is reported even if it waives nothing.
    ("empty-waiver", True, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot() {
    CASCADE_NONDET_OK("")
    return 1;
}
"""}),
    ("missing-root", True, {"src/victim.hh": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot();
"""}),
    ("missing-root", False, {"src/victim.cc": _PRELUDE + """
CASCADE_TRAJECTORY
int stepRoot();
int stepRoot() { return 1; }
"""}),
    ("hot-path-iostream", True, {"src/tensor/victim.cc":
        "#include <iostream>\nvoid f() { std::cout << 1; }\n"}),
    ("hot-path-iostream", False, {"src/tensor/victim.cc": "void f() {}\n"}),
    ("metric-name", True, {"src/obs/victim.cc":
        'void f(R &r) { r.counter("BadName").add(1); }\n'}),
    ("metric-name", False, {"src/obs/victim.cc":
        'void f(R &r) { r.counter("good.name").add(1); }\n'}),
    ("raw-mutex", True, {"src/util/victim.cc":
        "#include <mutex>\nstd::mutex m;\n"}),
    ("raw-mutex", False, {"src/util/victim.cc":
        "#include <mutex> // cascade-lint: allow(raw-mutex) ok\n"}),
    ("unguarded-mutex", True, {"src/util/victim.cc":
        "AnnotatedMutex lonely_;\n"}),
    ("unguarded-mutex", False, {"src/util/victim.cc":
        "AnnotatedMutex lonely_; // guards the frob cache (local)\n"}),
    ("deprecated-api", True, {"src/nn/victim.cc":
        "void f() { matmulTransARaw(a, b, c); }\n"
        "bool g() { return loadEventsCsv(seq, path); }\n"}),
    ("deprecated-api", False, {"src/nn/victim.cc":
        "void f() { kernels::gemm(a, b, c); }\n"
        "bool g() { return Dataset::open(path) != nullptr; }\n"}),
    ("tsan-supp-justified", True, {"tools/tsan.supp":
        "race:cascade::Unexplained\n"}),
    ("tsan-supp-justified", False, {"tools/tsan.supp":
        "# justified: false positive, see PR 5\nrace:cascade::Ok\n"}),
    ("cv-wait-predicate", True, {"src/util/victim.cc":
        "void f() { UniqueLock l(m_); cv_.wait(l); }\n"}),
    ("cv-wait-predicate", False, {"src/util/victim.cc":
        "void f() { UniqueLock l(m_); while (!ready_) cv_.wait(l); }\n"}),
    ("raw-process", True, {"src/util/victim.cc":
        "void f() { ::kill(pid, 9); }\n"}),
    ("raw-process", False, {"src/util/victim.cc":
        "void f() { group.shutdown(); }\n"}),
    ("unchecked-io", True, {"src/train/victim.cc":
        "void f() { std::rename(a, b); }\n"}),
    ("unchecked-io", False, {"src/train/victim.cc":
        "void f() { if (std::rename(a, b) != 0) die(); }\n"}),
]


def self_test() -> int:
    import shutil
    import tempfile

    failures: List[str] = []
    for rule, fires, files in _CASES:
        tmp = tempfile.mkdtemp(prefix="lint_cascade_selftest_")
        try:
            for relpath, content in files.items():
                target = os.path.join(tmp, relpath)
                os.makedirs(os.path.dirname(target), exist_ok=True)
                with open(target, "w", encoding="utf-8") as f:
                    f.write(content)
            found = [v for v in run(tmp).found.values()
                     if rule is None or v.rule == rule]
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        where = ", ".join(files)
        if fires and not found:
            failures.append(f"{rule}: did not fire on violation ({where})")
        if not fires and found:
            failures.append(f"{rule or 'any rule'}: false positive on "
                            f"clean input: {found[0]}")
    for name, _ in RULES:
        directions = {fires for rule, fires, _ in _CASES if rule == name}
        if directions != {True, False}:
            failures.append(f"{name}: not tested in both directions")
    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK: {len(RULES)} rules fire and stay quiet over "
          f"{len(_CASES)} cases, waivers honored, unreachable code ignored")
    return 0


def main(argv: List[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "-p",
        dest="build_dir",
        metavar="BUILD",
        default=None,
        help="build dir holding compile_commands.json for the call graph "
        "(like clang-tidy -p); default: build/ if it holds one, else "
        "a plain src/ tree scan",
    )
    ap.add_argument("--rule", action="append", default=None,
                    help="run only the named rule(s); repeatable")
    ap.add_argument("--list-rules", action="store_true",
                    help="print rule ids and exit")
    ap.add_argument("--self-test", action="store_true",
                    help="verify every rule on synthetic inputs")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="print waived findings (with reasons) and a "
                    "call-graph summary")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name, _ in RULES:
            print(name)
        return 0
    if args.self_test:
        return self_test()

    known = {name for name, _ in RULES}
    unknown = set(args.rule or ()) - known
    for r in sorted(unknown):
        print(f"unknown rule: {r}", file=sys.stderr)
    if unknown:
        return 2

    root = find_repo_root(os.path.dirname(os.path.abspath(__file__)))
    build_dir = args.build_dir
    if build_dir is None:
        if os.path.isfile(os.path.join(root, "build", "compile_commands.json")):
            build_dir = os.path.join(root, "build")
    elif not os.path.isfile(os.path.join(build_dir, "compile_commands.json")):
        print(f"lint_cascade: no compile_commands.json under {build_dir}",
              file=sys.stderr)
        return 2

    ck = run(root, build_dir, set(args.rule) if args.rule else None)
    if args.verbose:
        for v, reason in sorted(ck.waived.values()):
            print(f"waived: {v} — {reason}")
        g = ck.graph()
        print(f"lint_cascade: {g.files} files in the call graph, "
              f"{g.functions} functions, {len(g.roots)} roots, "
              f"{len(g.reachable)} reachable, {len(ck.waived)} waived")
    violations = sorted(ck.found.values())
    for v in violations:
        print(v)
    if violations:
        print(f"lint_cascade: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
