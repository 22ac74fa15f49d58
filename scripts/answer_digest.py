#!/usr/bin/env python3
"""Print a SHA-256 over every answer of a benchmark workload.

    python3 scripts/answer_digest.py --workload find_cubic --seeds 1,2,3 --blocks 26

Runs the calls of blocks 0..N-1 of the workload's corpus (see
`perfbench/workloads.py`, imported read-only) for each seed in turn and
hashes each answer: a circuit as its walk vertices and edges, a cut as its
sorted side, sorted boundary and size (`check` calls give `min_odd_cut`'s
cut, or none).  Two checkouts answer alike on the corpus exactly when they
print the same digest; the call count says how many answers went in.
Run it from the root of a source checkout: the program comes from `src/`.
"""
import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from circuitcover import Trail, find_circuit, min_odd_cut  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def answer_key(out) -> tuple:
    if out is None:
        return ("N",)
    if isinstance(out, Trail):
        return ("T", out.vertices, out.edges)
    return ("C", sorted(out.side), sorted(out.boundary), out.size)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", required=True, help="comma-separated, e.g. 1,2,3")
    ap.add_argument("--blocks", type=int, required=True, help="blocks 0..N-1 per seed")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    digest = hashlib.sha256()
    calls = 0
    for seed in (int(s) for s in args.seeds.split(",")):
        built = workload.build(seed)
        for b in range(args.blocks):
            for gi, s in built.block(b):
                g = built.graphs[gi]
                out = find_circuit(g, s) if workload.primary == "find" else min_odd_cut(g)
                digest.update(repr(answer_key(out)).encode())
                calls += 1
    print(f"{args.workload} seeds={args.seeds} blocks={args.blocks} calls={calls} "
          f"sha256={digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
