#!/usr/bin/env python3
"""Run one benchmark measurement from the root of a checkout::

    python3 perfbench/run.py --workload hotspot --seed 1 --seconds 10 --trace 0

Prints every metric with its unit, then one JSON object as the last
line.  Exits 1 when a correctness gate fails and 2 when the package
sources are missing.
"""

from __future__ import annotations

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
