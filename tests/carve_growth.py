"""How the carve's work grows with the node count, counted, not timed.

    python tests/carve_growth.py

For 8, 16, 32, 64, 128 and 256 nodes it prints the line events per job
c(n) of `helpers.line_events_per_job` (one instance draining 1-node
4-core jobs, 16 per node), the exponent log2(c(n) / c(n/2)) of each
doubling, and the q of c(n) = a + b*n + q*n^2 through n/4, n/2 and n
(`helpers.quadratic_term`). `test_hiersched.py` checks the q at 32 nodes
against `CARVE_QUADRATIC_BOUND` and c(32) against `CARVE_EVENTS_32_BOUND`
with the same functions. Counts repeat exactly from run to run. The
256-node point traces 4,096 jobs; the whole script took about 7 minutes
on a 2-vCPU machine, so it is a script, not a tier-1 test.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from helpers import line_events_per_job, quadratic_term  # noqa: E402

NODES = (8, 16, 32, 64, 128, 256)


def main() -> int:
    print(f"{'nodes':>5} {'events/job':>12} {'exponent':>9} {'q':>9}")
    counts = {}
    for nodes in NODES:
        counts[nodes] = line_events_per_job(nodes)
        previous = counts.get(nodes // 2)
        growth = f"{math.log2(counts[nodes] / previous):9.4f}" if previous else ""
        fit = {n: counts[n] for n in (nodes // 4, nodes // 2, nodes) if n in counts}
        q = f"{quadratic_term(fit):9.5f}" if len(fit) == 3 else ""
        print(f"{nodes:5d} {counts[nodes]:12.2f} {growth:>9} {q}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
