"""Regenerate ``pinned.json``: the default-seed outputs the benchmark
checks suite_build and adapt_loop against.

Run from the repository root, only when a change to the program is
meant to change its seeded outputs::

    python3 perfbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from workloads import DEFAULT_SEED, FULL, WORKLOADS, Checks  # noqa: E402


def main() -> int:
    pinned = {}
    for name in WORKLOADS:
        workload = WORKLOADS[name](DEFAULT_SEED, FULL, None)
        checks = Checks()
        workload.setup(checks)
        workload.check(workload.run_pass(), checks)
        if checks.failures:
            print("\n".join(checks.failures), file=sys.stderr)
            return 1
        pinned[name] = workload.first_pass
    (HERE / "pinned.json").write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
