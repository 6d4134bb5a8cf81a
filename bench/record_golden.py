"""Record the reference-set outputs that every benchmark run compares with.

    python3 bench/record_golden.py

Run once at the commit whose outputs are the reference; it rewrites
bench/golden.json.  Integer outputs are compared exactly, floats to 1e-12.
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402


def main():
    golden = {name: cls(workloads.GOLDEN_SEED).reference()
              for name, cls in workloads.WORKLOADS.items()}
    (BENCH / "golden.json").write_text(json.dumps(golden) + "\n")


if __name__ == "__main__":
    main()
