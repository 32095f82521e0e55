#!/usr/bin/env python3
"""ZLB protocol-invariant linter — the purely LEXICAL rules.

Four regex rules over the C++ sources, each protecting an invariant
that is visible in the program text itself. Invariants that need real
dataflow — epoch-bound signing bytes, encode/decode wire symmetry,
interprocedural lock-order and blocking-under-lock — live in the
semantic analyzer, tools/analyze/zlb_analyze.py, which replaced this
linter's old `epoch-signing`, `encode-pair` and `io-under-lock` rules.

  raw-mutex        Raw std::mutex / std::lock_guard / std::unique_lock /
                   std::condition_variable outside the annotated
                   common/mutex.hpp wrappers escapes the clang
                   -Wthread-safety analysis (the wrappers carry the
                   capability attributes; the std types do not).
  nondet-iter      Iterating a std::unordered_map/unordered_set in a
                   protocol-visible path (src/consensus, src/zlb,
                   src/bm, src/asmr) leaks hash-table order into
                   proposals/votes/snapshots and breaks the replay
                   determinism the model checker depends on.
  wall-clock       std::chrono::{system,steady,high_resolution}_clock
                   outside the src/net and src/common shims reads real
                   time from inside the protocol; route it through
                   common/clock.hpp so the scheduler owns time.
  obs-clock        Two prongs guarding the observability layer's
                   determinism contract. (a) src/obs/ may take time
                   only through the injected common::Clock — C-level
                   time APIs (time, gettimeofday, clock_gettime, ...)
                   there would make spans recorded under a sim or
                   ManualClock schedule nondeterministic. (b) No
                   fingerprint() body may touch observability state
                   (obs::, tracer_, metrics_): metrics must never feed
                   the model checker's visited-state keys.

Vetted exceptions live in an allowlist file (see --allow):

  raw-mutex:<path-suffix>     file allowed to use std primitives
  nondet-iter:<path-suffix>   iteration provably canonicalized (e.g.
                              sorted immediately after collection)
  wall-clock:<path-suffix>    additional sanctioned clock shim
  obs-clock:<path-suffix>     obs file allowed to read time directly

Exit status: 0 = clean, 1 = findings, 2 = usage error. Findings print
as `file:line: [rule] message` so editors and CI annotate them.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

RAW_MUTEX = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|shared_mutex|"
    r"lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(_any)?)\b"
)
# `} name(...)` / `Type name(args) ... {` style definition headers. The
# last path component of a qualified name is the lookup key: the call
# graph below resolves bare calls by that component, which is
# deliberately merge-happy (any same-named definition satisfies the
# search) — the rule must never false-positive on real code.
FUNC_DEF = re.compile(
    r"([A-Za-z_][\w:]*)\s*\(([^;{}]*)\)\s*"
    r"((?:const|noexcept|override|final|mutable|->\s*[\w:<>&*, ]+)\s*)*\{"
)

UNORDERED_DECL = re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<")
ITER_BEGIN = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*c?r?(?:begin|end)\s*\(")
# Range-for only: a classic `for (init; cond; step)` cannot match
# because neither capture may cross a `;`.
RANGE_FOR = re.compile(r"\bfor\s*\(([^;{}]*?):([^;{}]*?)\)")
# Paths where iteration order is protocol-visible (feeds proposals,
# votes, decided state, or ledger application).
PROTOCOL_DIRS = ("src/consensus/", "src/zlb/", "src/bm/", "src/asmr/")
WALL_CLOCK = re.compile(
    r"\b(?:std::chrono::)?(system_clock|steady_clock|high_resolution_clock)\b")
# The sanctioned homes for real time: the live transport's event loop
# and the common/clock.hpp injectable shim.
CLOCK_SHIM_DIRS = ("src/net/", "src/common/")
# The observability layer must stay deterministic under sim/ManualClock
# schedules: time enters only through the injected common::Clock.
OBS_CLOCK_DIRS = ("src/obs/",)
# C-level time sources the chrono-based wall-clock rule cannot see.
# Longest alternatives first so e.g. clock_gettime wins over clock.
OBS_TIME_API = re.compile(
    r"\b(?:std::|::)?(clock_gettime|timespec_get|gettimeofday|"
    r"localtime_r|localtime|gmtime_r|gmtime|mktime|ftime|clock|time)"
    r"\s*\(")
# Observability state that must never reach a fingerprint() body.
OBS_IN_FINGERPRINT = re.compile(r"\b(?:obs::\w+|tracer_|metrics_)\b")

COMMENT_BLOCK = re.compile(r"/\*.*?\*/", re.S)
COMMENT_LINE = re.compile(r"//[^\n]*")
STRING_LIT = re.compile(r'"(?:\\.|[^"\\])*"')
CHAR_LIT = re.compile(r"'(?:\\.|[^'\\])*'")


def strip_noise(text: str) -> str:
    """Blanks comments/strings, preserving newlines for line numbers."""

    def blank(m: re.Match) -> str:
        return re.sub(r"[^\n]", " ", m.group(0))

    for pat in (COMMENT_BLOCK, COMMENT_LINE, STRING_LIT, CHAR_LIT):
        text = pat.sub(blank, text)
    return text


def body_at(text: str, open_brace: int) -> str:
    depth = 0
    for i in range(open_brace, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[open_brace : i + 1]
    return text[open_brace:]


class Finding:
    def __init__(self, path: Path, line: int, rule: str, msg: str):
        self.path, self.line, self.rule, self.msg = path, line, rule, msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def load_allowlist(path: Path | None) -> dict[str, set[str]]:
    allow: dict[str, set[str]] = {}
    if path is None or not path.exists():
        return allow
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        rule, _, token = line.partition(":")
        allow.setdefault(rule.strip(), set()).add(token.strip())
    return allow


def allowed_file(allow: dict[str, set[str]], rule: str, path: Path) -> bool:
    posix = path.as_posix()
    return any(posix.endswith(suffix) for suffix in allow.get(rule, ()))


def rule_raw_mutex(files: dict[Path, str],
                   allow: dict[str, set[str]]) -> list[Finding]:
    findings = []
    for path, text in files.items():
        if allowed_file(allow, "raw-mutex", path):
            continue
        for m in RAW_MUTEX.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                path, line, "raw-mutex",
                f"std::{m.group(1)} bypasses the annotated zlb::Mutex/"
                "MutexLock wrappers (invisible to -Wthread-safety)"))
    return findings


def unordered_container_names(files: dict[Path, str]) -> set[str]:
    """Identifiers declared anywhere with an unordered container type.

    Deliberately merge-happy, like the call graph: a vector that merely
    shares a name with an unordered member elsewhere can false-positive,
    which is what the allowlist is for — a missed nondeterministic
    iteration is the expensive direction.
    """
    names: set[str] = set()
    for text in files.values():
        for m in UNORDERED_DECL.finditer(text):
            i = m.end() - 1  # at the '<'
            depth = 0
            while i < len(text):
                if text[i] == "<":
                    depth += 1
                elif text[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            dm = re.match(r"[&\s]*([A-Za-z_]\w*)", text[i + 1 : i + 160])
            if dm:
                names.add(dm.group(1))
    return names


def rule_nondet_iter(files: dict[Path, str],
                     allow: dict[str, set[str]]) -> list[Finding]:
    names = unordered_container_names(files)
    findings = []
    for path, text in files.items():
        posix = path.as_posix()
        if not any(d in posix for d in PROTOCOL_DIRS):
            continue
        if allowed_file(allow, "nondet-iter", path):
            continue
        for m in RANGE_FOR.finditer(text):
            idents = re.findall(r"[A-Za-z_]\w*", m.group(2))
            if idents and idents[-1] in names:
                line = text.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    path, line, "nondet-iter",
                    f"range-for over unordered container {idents[-1]}: "
                    "hash-table order leaks into protocol-visible state "
                    "and breaks replay determinism"))
        seen_lines: set[int] = set()
        for m in ITER_BEGIN.finditer(text):
            if m.group(1) in names:
                line = text.count("\n", 0, m.start()) + 1
                if line in seen_lines:
                    continue  # .begin() and .end() share a line
                seen_lines.add(line)
                findings.append(Finding(
                    path, line, "nondet-iter",
                    f"{m.group(1)}.begin()/end() iterates an unordered "
                    "container in a protocol-visible path; sort the "
                    "result or use an ordered container"))
    return findings


def rule_wall_clock(files: dict[Path, str],
                    allow: dict[str, set[str]]) -> list[Finding]:
    findings = []
    for path, text in files.items():
        posix = path.as_posix()
        if any(d in posix for d in CLOCK_SHIM_DIRS):
            continue
        if allowed_file(allow, "wall-clock", path):
            continue
        for m in WALL_CLOCK.finditer(text):
            line = text.count("\n", 0, m.start()) + 1
            findings.append(Finding(
                path, line, "wall-clock",
                f"{m.group(1)} outside the src/net|src/common clock "
                "shims; route time through common/clock.hpp so the "
                "scheduler (and model checker) owns it"))
    return findings


def rule_obs_clock(files: dict[Path, str],
                   allow: dict[str, set[str]]) -> list[Finding]:
    findings = []
    for path, text in files.items():
        posix = path.as_posix()
        if (any(d in posix for d in OBS_CLOCK_DIRS)
                and not allowed_file(allow, "obs-clock", path)):
            for m in OBS_TIME_API.finditer(text):
                line = text.count("\n", 0, m.start()) + 1
                findings.append(Finding(
                    path, line, "obs-clock",
                    f"{m.group(1)}() reads time directly inside src/obs/; "
                    "metrics and spans must take time only through the "
                    "injected common/clock.hpp so traces stay "
                    "deterministic under sim schedules and zlb_mc"))
        # Prong (b), all paths: metric/tracer state inside fingerprint()
        # would leak schedule-dependent observability values into the
        # model checker's visited-state keys.
        for m in FUNC_DEF.finditer(text):
            if m.group(1).split("::")[-1] != "fingerprint":
                continue
            body = body_at(text, m.end() - 1)
            om = OBS_IN_FINGERPRINT.search(body)
            if om:
                line = text.count("\n", 0, m.end() - 1 + om.start()) + 1
                findings.append(Finding(
                    path, line, "obs-clock",
                    f"fingerprint() touches observability state "
                    f"({om.group(0)}): metrics must never feed the model "
                    "checker's visited-state keys"))
    return findings


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", action="append", required=True,
                    help="directory tree to lint (repeatable)")
    ap.add_argument("--allow", type=Path, default=None,
                    help="allowlist file (rule:token lines)")
    ap.add_argument("--rule", action="append", default=None,
                    help="run only these rules (default: all)")
    args = ap.parse_args()

    files: dict[Path, str] = {}
    for root in args.root:
        root_path = Path(root)
        if not root_path.is_dir():
            print(f"zlb_lint: no such directory: {root}", file=sys.stderr)
            return 2
        for path in sorted(root_path.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                files[path] = strip_noise(path.read_text(errors="replace"))
    allow = load_allowlist(args.allow)

    rules = {
        "raw-mutex": lambda: rule_raw_mutex(files, allow),
        "nondet-iter": lambda: rule_nondet_iter(files, allow),
        "wall-clock": lambda: rule_wall_clock(files, allow),
        "obs-clock": lambda: rule_obs_clock(files, allow),
    }
    selected = args.rule or list(rules)
    unknown = [r for r in selected if r not in rules]
    if unknown:
        print(f"zlb_lint: unknown rule(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for rule in selected:
        findings.extend(rules[rule]())
    for f in findings:
        print(f)
    if findings:
        print(f"zlb_lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
