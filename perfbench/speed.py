"""Machine-speed probe: each measured CPU time is scaled to a reference speed.

The host is shared, and the speed of its cores moves by up to 30% over
seconds as neighbours load the caches and the sibling hyperthread; CPU
time does not leave that out.  `Speed` times a fixed probe every
PROBE_EVERY_S of the run, a unit-capacity max flow on a fixed graph in
plain Python (dicts, a deque, breadth-first search: the kind of work the
program does), and scales each measured interval by
PROBE_REF_MS / (median time of the probes within WINDOW_S of its end).
The probe shares no code with the program, so a faster program does not
make it faster.
"""
from __future__ import annotations

import bisect
import random
import statistics
from collections import deque
from time import perf_counter, process_time

# median CPU time of one probe on the machine the benchmark was sized on
# (2 vCPUs, CPython 3.11); it fixes the unit of every scaled time
PROBE_REF_MS = 1.04
PROBE_EVERY_S = 0.05
WINDOW_S = 1.0
PAIRS = ((0, 1), (2, 3), (4, 5))


def _probe_graph(n=60, m=240, seed=1):
    rng = random.Random(seed)
    adj = {v: {} for v in range(n)}
    for v in range(1, n):
        u = rng.randrange(v)
        adj[u][v] = adj[v][u] = 1
    while sum(map(len, adj.values())) < 2 * m:
        u, v = rng.sample(range(n), 2)
        adj[u][v] = adj[v][u] = 1
    return adj


PROBE_GRAPH = _probe_graph()


def max_flow(adj, s, t) -> int:
    """Edmonds-Karp on an undirected graph with unit capacities."""
    res = {u: dict(nbrs) for u, nbrs in adj.items()}
    flow = 0
    while True:
        parent = {s: None}
        queue = deque([s])
        while queue and t not in parent:
            u = queue.popleft()
            for v, c in res[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if t not in parent:
            return flow
        v = t
        while parent[v] is not None:
            u = parent[v]
            res[u][v] -= 1
            res[v][u] += 1
            v = u
        flow += 1


def probe() -> None:
    for s, t in PAIRS:
        max_flow(PROBE_GRAPH, s, t)


class Speed:
    def __init__(self):
        self.at = []  # wall time of each probe, ascending
        self.cpu = []  # its CPU time
        self.last = float("-inf")
        self.memo = {}  # (lo, hi) probe index range -> factor

    def maybe_probe(self) -> None:
        """Time the probe if PROBE_EVERY_S has passed since the last one."""
        now = perf_counter()
        if now - self.last < PROBE_EVERY_S:
            return
        t0 = process_time()
        probe()
        self.cpu.append(process_time() - t0)
        self.at.append(now)
        self.last = now

    def factor(self, at: float) -> float:
        """PROBE_REF_MS over the median probe within WINDOW_S of `at`
        (of the whole run when none is that close)."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        if (lo, hi) not in self.memo:
            near = self.cpu[lo:hi] or self.cpu
            self.memo[lo, hi] = PROBE_REF_MS / 1000 / statistics.median(near)
        return self.memo[lo, hi]

    def median_ms(self) -> float:
        return statistics.median(self.cpu) * 1000
