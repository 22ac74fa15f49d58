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

    python3 scripts/answer_digest.py --all

runs the four reference corpora below in one process, prints one line per
workload and exits 1 when any digest differs from its reference value.
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


# workload -> (seeds, blocks, calls, sha256) of the answers every change
# meant to keep them must reproduce
REFERENCE = {
    "sweep_small": ("1,2,3", 1, 31914,
                    "f340c97250c1065537f38d43dd4b19210dd9048720d3dd62588c63effc163a4d"),
    "find_dense": ("1,2,3", 6, 306,
                   "4108a6b1b9ffbab737041445d3561ee8cc281999e9b40cad9e5313137a993f27"),
    "find_cubic": ("1,2,3", 26, 858,
                   "ae609d719366b85a00ef6fb04e128149f7d55e3eed84a6b105fcdf656a65a0de"),
    "check": ("1,2,3", 4, 192,
              "f0a38eaded068671050d82a6b667cae3de55b4cc7c9a94231f5070aeb340b773"),
}


def answer_key(out) -> tuple:
    if out is None:
        return ("N",)
    if isinstance(out, Trail):
        return ("T", out.vertices, out.edges)
    return ("C", sorted(out.side), sorted(out.boundary), out.size)


def digest(name: str, seeds: str, blocks: int) -> tuple[int, str]:
    """Call count and SHA-256 over the answers of blocks 0..blocks-1 of the
    workload's corpus for each seed in turn."""
    workload = WORKLOADS[name]
    sha = hashlib.sha256()
    calls = 0
    for seed in (int(s) for s in seeds.split(",")):
        built = workload.build(seed)
        for b in range(blocks):
            for gi, s in built.block(b):
                g = built.graphs[gi]
                out = find_circuit(g, s) if workload.primary == "find" else min_odd_cut(g)
                sha.update(repr(answer_key(out)).encode())
                calls += 1
    return calls, sha.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--all", action="store_true",
                    help="check every reference corpus against its recorded digest")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seeds", help="comma-separated, e.g. 1,2,3")
    ap.add_argument("--blocks", type=int, help="blocks 0..N-1 per seed")
    args = ap.parse_args(argv)
    if args.all:
        if args.workload or args.seeds or args.blocks is not None:
            ap.error("--all takes no --workload, --seeds or --blocks")
        runs = [(name, seeds, blocks, (calls, sha))
                for name, (seeds, blocks, calls, sha) in REFERENCE.items()]
    elif args.workload and args.seeds and args.blocks is not None:
        runs = [(args.workload, args.seeds, args.blocks, None)]
    else:
        ap.error("give --all, or all of --workload, --seeds and --blocks")
    status = 0
    for name, seeds, blocks, want in runs:
        got = digest(name, seeds, blocks)
        verdict = ""
        if want is not None:
            verdict = " same" if got == want else " DIFFERS"
            status = max(status, int(got != want))
        print(f"{name} seeds={seeds} blocks={blocks} calls={got[0]} sha256={got[1]}{verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main())
