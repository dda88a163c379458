#!/usr/bin/env python3
"""Self-test for tools/lint/check_invariants.py (run by ctest).

Each fixture tree under testdata/ seeds exactly one violation class; the
linter must flag it (non-zero exit, the expected rule id and needle in the
output). The clean fixture and the real repository tree must both pass.
Plain python3 on purpose — the container has no pytest and the check must
run everywhere ctest does.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINTER = HERE / "check_invariants.py"
REPO_ROOT = HERE.parent.parent

# fixture dir -> (rule to scope to, substring expected in the output)
EXPECTED_VIOLATIONS = {
    "raw_io": ("raw-io", "raw file write"),
    "fault_undoc": ("fault-points", '"ghost/point" is not documented'),
    "fault_dup": ("fault-points", '"dup/point" is introduced from multiple'),
    "metric_undoc": ("metric-names", '"mystery/thing" is missing'),
    "guard_bad": ("include-guards", "INFUSERKI_UTIL_THING_H_"),
    "rng_time": ("rng-determinism", "wall-clock time"),
    "arch_drift": ("arch-file-map", '"src/util/gone.cc" does not exist'),
    "batch_metric_drift": (
        "batching-metrics", '"serve/batch_size" but the §6 metric table'),
    "overload_metric_drift": (
        "overload-metrics", '"serve/brownout_level" but the §6 metric table'),
    "mutex_raw": ("raw-mutex", "raw std::mutex-family primitive"),
    "mutex_unguarded": ("mutex-guards", '"mu_" has no GUARDED_BY'),
    "lock_order_drift": ("lock-order", '"Ghost::mu_"'),
    "column_limit": ("column-limit", "wide.cc:7: [column-limit] 80 columns"),
}


def run_linter(root, only=None):
    cmd = [sys.executable, str(LINTER), "--root", str(root)]
    if only:
        cmd += ["--only", only]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


def main():
    failures = []

    for fixture, (rule, needle) in sorted(EXPECTED_VIOLATIONS.items()):
        root = HERE / "testdata" / fixture
        if not root.is_dir():
            failures.append(f"{fixture}: fixture directory missing")
            continue
        # Scoped run: the seeded rule alone must fire.
        code, out = run_linter(root, only=rule)
        if code != 1:
            failures.append(
                f"{fixture}: expected exit 1 from --only {rule}, got {code}\n{out}")
        elif needle not in out:
            failures.append(
                f"{fixture}: output missing {needle!r}:\n{out}")
        # Full run: the violation must also surface without scoping.
        code, out = run_linter(root)
        if code != 1 or f"[{rule}]" not in out:
            failures.append(
                f"{fixture}: full run did not report [{rule}] (exit {code})\n{out}")

    code, out = run_linter(HERE / "testdata" / "clean")
    if code != 0:
        failures.append(f"clean fixture: expected exit 0, got {code}\n{out}")

    code, out = run_linter(REPO_ROOT)
    if code != 0:
        failures.append(f"real tree: expected exit 0, got {code}\n{out}")

    if failures:
        print("lint_selftest: FAIL", file=sys.stderr)
        for failure in failures:
            print("  -", failure, file=sys.stderr)
        return 1
    print(f"lint_selftest: OK ({len(EXPECTED_VIOLATIONS)} violation fixtures, "
          "clean fixture, real tree)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
