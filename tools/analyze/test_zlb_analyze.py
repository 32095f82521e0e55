#!/usr/bin/env python3
"""Self-test for zlb_analyze.py.

Mirrors tools/lint/test_zlb_lint.py, covering how a semantic analyzer
rots:
  1. Each known-bad fixture must FAIL with exactly its checker — a
     checker that stops firing is a silent hole in CI. Each known-good
     fixture must PASS — a resolution gap that starts false-positing
     on it would do the same on src/.
  2. The real src/ tree must PASS with the checked-in allowlist and
     golden schema — a checker that starts false-positing would get
     the analyzer deleted.
  3. The wire schema must round-trip: extraction is deterministic,
     matches the committed golden, and a mutated golden is DETECTED
     (the drift diff is load-bearing, not decorative).
  4. The allowlist must be load-bearing (the vetted lock-blocking
     exception in LiveNode::run fires without it).

Runs standalone (`python3 tools/analyze/test_zlb_analyze.py`) and under
ctest; prints one ok/FAIL line per case and exits non-zero on any
failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
ANALYZE = HERE / "zlb_analyze.py"
ALLOW = HERE / "zlb_analyze_allow.txt"
GOLDEN = HERE / "wire_schema.golden.json"

FIXTURES = {
    "lock_cycle": "lock-order",
    "epoch_unbound": "epoch-taint",
    "unchecked_decode": "bounded-decode",
    "schema_drift": "wire-schema",
    "blocking_lock": "lock-blocking",
    "blocking_unique_ptr": "lock-blocking",
    "blocking_inline": "lock-blocking",
    "blocking_commit_path": "lock-blocking",
    "blocking_stream": "lock-blocking",
    "blocking_pread": "lock-blocking",
}

# Known-good: lock-held code the analyzer must resolve precisely.
CLEAN_FIXTURES = ["typed_receivers"]

ALL_CHECKERS = sorted(set(FIXTURES.values()))


def run_analyze(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ANALYZE), *args],
        capture_output=True, text=True, check=False)


def main() -> int:
    failures = 0

    for fixture, checker in sorted(FIXTURES.items()):
        root = HERE / "fixtures" / fixture
        proc = run_analyze("--root", str(root), "--frontend", "python")
        tagged = f"[{checker}]" in proc.stdout
        if proc.returncode == 1 and tagged:
            print(f"ok   fixture {fixture}: fails with [{checker}]")
        else:
            failures += 1
            print(f"FAIL fixture {fixture}: expected exit 1 with "
                  f"[{checker}], got exit {proc.returncode}\n"
                  f"{proc.stdout}{proc.stderr}")

        # The fixture must fail for its own reason only — a second
        # checker tripping on fixture code means it is too eager.
        other = [c for c in ALL_CHECKERS
                 if c != checker and f"[{c}]" in proc.stdout]
        if other:
            failures += 1
            print(f"FAIL fixture {fixture}: unrelated checker(s) fired: "
                  f"{', '.join(other)}")

    for fixture in CLEAN_FIXTURES:
        root = HERE / "fixtures" / fixture
        proc = run_analyze("--root", str(root), "--frontend", "python")
        if proc.returncode == 0:
            print(f"ok   fixture {fixture}: clean")
        else:
            failures += 1
            print(f"FAIL fixture {fixture}: expected exit 0, got exit "
                  f"{proc.returncode}\n{proc.stdout}{proc.stderr}")

    # 2. src/ clean with allowlist + golden (exactly the CI invocation).
    proc = run_analyze("--root", str(REPO / "src"),
                       "--frontend", "python",
                       "--allow", str(ALLOW),
                       "--schema-golden", str(GOLDEN),
                       "--warn-unused-allow")
    if proc.returncode == 0:
        print("ok   src/ clean with allowlist + golden schema")
    else:
        failures += 1
        print(f"FAIL src/ not clean (exit {proc.returncode}):\n"
              f"{proc.stdout}{proc.stderr}")

    # 3a. Schema round-trip: regenerating into a temp file must
    # reproduce the committed golden byte-for-byte (deterministic
    # extraction; a mismatch means the golden is stale).
    with tempfile.TemporaryDirectory() as td:
        regen = Path(td) / "regen.json"
        proc = run_analyze("--root", str(REPO / "src"),
                           "--frontend", "python",
                           "--allow", str(ALLOW),
                           "--checker", "wire-schema",
                           "--schema-golden", str(regen),
                           "--write-golden")
        if proc.returncode == 0 and regen.exists() and \
                json.loads(regen.read_text()) == \
                json.loads(GOLDEN.read_text()):
            print("ok   schema round-trip: regeneration matches golden")
        else:
            failures += 1
            print("FAIL schema regeneration differs from committed "
                  f"golden (exit {proc.returncode}) — re-run with "
                  "--write-golden and review the wire change")

        # 3b. Drift detection: a golden with one mutated field width
        # must produce a wire-schema finding.
        mutated = json.loads(GOLDEN.read_text())
        key = sorted(mutated["records"])[0]
        slot = sorted(mutated["records"][key])[0]
        mutated["records"][key][slot] = \
            mutated["records"][key][slot] + ["u8"]
        bad = Path(td) / "mutated.json"
        bad.write_text(json.dumps(mutated))
        proc = run_analyze("--root", str(REPO / "src"),
                           "--frontend", "python",
                           "--allow", str(ALLOW),
                           "--checker", "wire-schema",
                           "--schema-golden", str(bad))
        if proc.returncode == 1 and "[wire-schema]" in proc.stdout:
            print("ok   golden drift is detected")
        else:
            failures += 1
            print(f"FAIL mutated golden not detected "
                  f"(exit {proc.returncode})\n{proc.stdout}")

    # 4. The allowlist must be load-bearing: without it the vetted
    # startup-recovery I/O under LiveNode's mutexes has to fire.
    proc = run_analyze("--root", str(REPO / "src"),
                       "--frontend", "python",
                       "--checker", "lock-blocking")
    if proc.returncode == 1 and "[lock-blocking]" in proc.stdout \
            and "LiveNode::run" in proc.stdout:
        print("ok   allowlist is load-bearing for lock-blocking")
    else:
        failures += 1
        print("FAIL expected LiveNode::run lock-blocking finding without "
              f"the allowlist, got exit {proc.returncode}")

    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
