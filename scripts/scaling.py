#!/usr/bin/env python3
"""Print the median `find_circuit` time on large graphs, by n and |S|.

    python3 scripts/scaling.py

For each n in 100, 400 and 1600 it builds five cubic graphs (`cubic_graph`
of `perfbench/workloads.py`, imported read-only) and five
`random_connected(n, 4n)` graphs, all from one `random.Random(7)`, and draws
one prescribed set of each size in 8 and 32 for each graph.  Each call is
timed in CPU time as the best of three runs, and each cell of the table is
the median over its five graphs.  On a cubic graph every vertex of the
circuit keeps one leftover edge, so nearly every extension contracts a
detached component that is most of G: the cost grows as |S| times m.  The
last line is a SHA-256 over every answer, hashed as
`scripts/answer_digest.py` does, so two checkouts can be compared on it.
Run it from the root of a source checkout: the program comes from `src/`.
"""
import hashlib
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "scripts"))

from answer_digest import answer_key  # noqa: E402
from circuitcover import find_circuit, random_connected  # noqa: E402
from workloads import cubic_graph  # noqa: E402

SIZES = (100, 400, 1600)
SET_SIZES = (8, 32)
GRAPHS = 5  # per cell
REPEAT = 3  # runs per call; the best counts
SEED = 7
FAMILIES = {
    "cubic": cubic_graph,
    "random_connected(n, 4n)": lambda n, rng: random_connected(
        n, 4 * n, 1, seed=rng.randrange(1 << 30)
    ).graph,
}


def main() -> int:
    rng = random.Random(SEED)
    sha = hashlib.sha256()
    header = [f"{family}, |S| = {k}" for family in FAMILIES for k in SET_SIZES]
    print("| n | " + " | ".join(header) + " |")
    print("|---" * (len(header) + 1) + "|")
    for n in SIZES:
        cells = []
        for build in FAMILIES.values():
            graphs = [build(n, rng) for _ in range(GRAPHS)]
            for k in SET_SIZES:
                times = []
                for g in graphs:
                    s = rng.sample(range(g.m), k)
                    best = float("inf")
                    for _ in range(REPEAT):
                        t0 = time.process_time()
                        out = find_circuit(g, s)
                        best = min(best, time.process_time() - t0)
                    times.append(best)
                    sha.update(repr(answer_key(out)).encode())
                cells.append(f"{1000 * statistics.median(times):.1f} ms")
        print(f"| {n} | " + " | ".join(cells) + " |")
    print(f"answers sha256={sha.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
