"""How the carve's work grows with the node count, counted, not timed.

    python tests/carve_growth.py

For 16, 32, 64, 128 and 256 nodes it prints the line events per job of
`helpers.line_events_per_job` (one instance draining 1-node 4-core jobs,
16 per node) and the exponent log2(count(2n) / count(n)) of each
doubling. `test_hiersched.py` checks the 16 -> 32 exponent against
`CARVE_GROWTH_BOUND` with the same function. Counts repeat exactly from
run to run. The 256-node point traces 4,096 jobs; the whole script took
about 7 minutes on a 2-vCPU machine, so it is a script, not a tier-1
test.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import line_events_per_job  # noqa: E402

NODES = (16, 32, 64, 128, 256)


def main() -> int:
    print(f"{'nodes':>5} {'events/job':>12} {'exponent':>9}")
    previous = None
    for nodes in NODES:
        count = line_events_per_job(nodes)
        growth = "" if previous is None else f"{math.log2(count / previous):9.4f}"
        print(f"{nodes:5d} {count:12.2f} {growth}", flush=True)
        previous = count
    return 0


if __name__ == "__main__":
    sys.exit(main())
