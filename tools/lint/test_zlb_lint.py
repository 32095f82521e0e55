#!/usr/bin/env python3
"""Self-test for zlb_lint.py.

Two halves, mirroring how a linter rots:
  1. Each known-bad fixture must FAIL with exactly its rule (a rule
     that stops firing is a silent hole in CI).
  2. The real src/ tree must PASS with the checked-in allowlist (a
     rule that starts false-positives would get the linter deleted).

Runs standalone (`python3 tools/lint/test_zlb_lint.py`) and under
ctest; prints one ok/FAIL line per case and exits non-zero on any
failure.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
LINT = HERE / "zlb_lint.py"
ALLOW = HERE / "zlb_lint_allow.txt"

FIXTURES = {
    "raw_mutex": "raw-mutex",
    "nondet_iter": "nondet-iter",
    "wall_clock": "wall-clock",
    "obs_clock": "obs-clock",
}


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), *args],
        capture_output=True, text=True, check=False)


def main() -> int:
    failures = 0

    for fixture, rule in sorted(FIXTURES.items()):
        root = HERE / "fixtures" / fixture
        proc = run_lint("--root", str(root))
        tagged = f"[{rule}]" in proc.stdout
        if proc.returncode == 1 and tagged:
            print(f"ok   fixture {fixture}: fails with [{rule}]")
        else:
            failures += 1
            print(f"FAIL fixture {fixture}: expected exit 1 with "
                  f"[{rule}], got exit {proc.returncode}\n"
                  f"{proc.stdout}{proc.stderr}")

        # The fixture must fail for its own reason only — a second
        # rule tripping on fixture code means that rule is too eager.
        other = [r for r in FIXTURES.values()
                 if r != rule and f"[{r}]" in proc.stdout]
        if other:
            failures += 1
            print(f"FAIL fixture {fixture}: unrelated rule(s) fired: "
                  f"{', '.join(other)}")

    proc = run_lint("--root", str(REPO / "src"), "--allow", str(ALLOW))
    if proc.returncode == 0:
        print("ok   src/ clean with allowlist")
    else:
        failures += 1
        print(f"FAIL src/ not clean (exit {proc.returncode}):\n"
              f"{proc.stdout}{proc.stderr}")

    # The allowlist must be load-bearing: without it the raw-mutex
    # exception for common/mutex.hpp has to fire.
    proc = run_lint("--root", str(REPO / "src"), "--rule", "raw-mutex")
    if proc.returncode == 1 and "[raw-mutex]" in proc.stdout:
        print("ok   allowlist is load-bearing for raw-mutex")
    else:
        failures += 1
        print("FAIL expected raw-mutex findings without the allowlist, "
              f"got exit {proc.returncode}")

    if failures:
        print(f"{failures} failure(s)", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
