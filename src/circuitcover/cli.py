"""Command-line front end.

Exit codes: 0 when a circuit (or positive verdict) is produced, 2 when the
answer is a certificate or negative verdict, 1 on errors.  All randomness
sits behind an explicit --seed.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path

from . import __version__
from .certificates import ints, result_fault
from .cuts import CutCertificate, edge_connectivity, min_odd_cut
from .errors import BadEdgeId, BadParam, Exhausted, TooLarge
from .finder import find_circuit
from .generators import (
    NamedInstance,
    double_clique,
    gk_lower_witness,
    ladder,
    random_connected,
    two_cycles_bridge,
)
from .graphio import (
    circuit_result,
    cut_result,
    infeasible_result,
    read_graph,
    write_instance,
)
from .graphs import Graph, edge_ids
from .jaeger import EvenExtension, extend_to_even_subgraph
from .oracle import (
    check_parity_monotonicity,
    feasible_by_bruteforce,
    min_components_even_extension,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CERTIFICATE = 2


def _parse_edges(raw: str, g: Graph) -> frozenset:
    try:
        ids = [int(part) for part in raw.split(",") if part != ""]
    except ValueError:
        raise BadEdgeId(f"cannot parse edge list {raw!r}") from None
    return edge_ids(g, ids)


def _report(args, payload: dict, lines=None) -> None:
    """Print a command's report unless --quiet: with --json, the payload on
    one line; else the text lines, by default `key: value` for each field
    but the command and its timings."""
    if args.quiet:
        return
    if args.json:
        lines = [json.dumps(payload, sort_keys=True)]
    elif lines is None:
        lines = [f"{k}: {v}" for k, v in payload.items() if k not in ("command", "timings")]
    for line in lines:
        print(line)


def cmd_check(args) -> int:
    if args.k < 0:
        raise BadParam(f"--k must be nonnegative, got {args.k}")
    g = read_graph(args.graph)
    t0 = time.perf_counter()
    cert = min_odd_cut(g)
    universal = cert is None or cert.size > args.k
    report = {
        "command": "check",
        "label": Path(args.graph).stem,
        "verdicts": {"universal_up_to_k": universal},
        "timings": {"min_odd_cut_s": round(time.perf_counter() - t0, 6)},
        "min_odd_cut": None if cert is None else cert.to_json(),
    }
    if cert is None:
        lines = ["min odd cut: none; circuit-universal for every k"]
    else:
        lines = [
            f"min odd cut: size {cert.size}, side {sorted(cert.side)}",
            f"circuit-universal up to k={args.k}: {'holds' if universal else 'fails'}",
        ]
    _report(args, report, lines)
    return EXIT_OK if universal else EXIT_CERTIFICATE


def cmd_find(args) -> int:
    g = read_graph(args.graph)
    s = _parse_edges(args.edges, g)
    t0 = time.perf_counter()
    outcome = find_circuit(g, s)
    elapsed = round(time.perf_counter() - t0, 6)
    is_cut = isinstance(outcome, CutCertificate)
    payload = cut_result(outcome) if is_cut else circuit_result(outcome)
    payload["prescribed"] = sorted(s)
    if args.certify:
        # the payload as printed, so this checks exactly what verify reads
        payload["certified"] = not result_fault(g.n, g.edges, payload, s)
    if is_cut and args.oracle_fallback:
        try:
            payload["oracle_feasible"] = feasible_by_bruteforce(g, s) is not None
        except TooLarge:
            pass  # past the oracle's guard: the certificate stands alone
    payload["timings"] = {"find_s": elapsed}
    _report(args, payload)
    return EXIT_CERTIFICATE if is_cut else EXIT_OK


def cmd_oracle(args) -> int:
    g = read_graph(args.graph)
    s = _parse_edges(args.edges, g)
    witness = feasible_by_bruteforce(g, s)
    if witness is None:
        _report(args, infeasible_result("oracle"))
        return EXIT_CERTIFICATE
    _report(args, circuit_result(witness, method="oracle"))
    return EXIT_OK


def cmd_verify(args) -> int:
    g = read_graph(args.graph)
    s = _parse_edges(args.edges, g) if args.edges else None
    raw = sys.stdin.read() if args.result == "-" else Path(args.result).read_text()
    try:
        data = json.loads(raw)
    except RecursionError:
        raise ValueError("result JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("result must be a JSON object")
    s, mismatch = _prescribed(g, s, data)
    reason = result_fault(g.n, g.edges, data, s) or mismatch
    _report(args, {"verified": not reason, "reason": reason})
    return EXIT_CERTIFICATE if reason else EXIT_OK


def _prescribed(g, edges: frozenset | None, data: dict) -> tuple[frozenset | None, str]:
    """The prescribed set S to check a result against, and why the result
    fails even when it holds for S, or "".

    S is --edges when given, else the `prescribed` ids that find records in
    its result.  A result whose ids lie outside the graph or differ from
    --edges is rejected.
    """
    if "prescribed" not in data:
        return edges, ""
    recorded = frozenset(ints(data, "prescribed"))
    if not all(0 <= e < g.m for e in recorded):
        return edges, "prescribed edge id out of range"
    if edges is not None and edges != recorded:
        return edges, f"--edges {sorted(edges)} differs from the prescribed {sorted(recorded)}"
    return recorded, ""


def cmd_generate(args) -> int:
    inst = _build_instance(args)
    gpath, jpath = write_instance(inst, args.out)
    if not args.quiet:
        print(gpath)
        print(jpath)
    return EXIT_OK


# family -> generator and the names of its integer parameters
_FAMILIES = {
    "ladder": (ladder, ("r",)),
    "double-clique": (double_clique, ("l",)),
    "two-cycles-bridge": (two_cycles_bridge, ("p", "q")),
    "gk-witness": (gk_lower_witness, ("k",)),
    "random": (random_connected, ("n", "m")),
}


def _build_instance(args) -> NamedInstance:
    make, names = _FAMILIES[args.family]
    if len(args.params) != len(names):
        raise BadParam(f"{args.family} needs params: {' '.join(names)}")
    if args.family == "random":
        if args.seed is None:
            raise BadParam("random generation requires --seed")
        return make(*args.params, args.min_odd_cut, args.seed)
    return make(*args.params)


def _experiment_ladder(args) -> dict:
    """Rung sets of the ladder extend to even subgraphs whose component
    count is exactly ceil(|S|/2), yet no circuit covers them."""
    verdicts = {}
    failures = 0
    for r in args.r:
        inst = ladder(r)
        g = inst.graph
        rungs = list(range(r))
        failures_r = 0
        for size in range(3, r):
            for s in combinations(rungs, size):
                s_set = frozenset(s)
                ext = extend_to_even_subgraph(g, s_set)
                comps = min_components_even_extension(g, s_set)
                outcome = find_circuit(g, s_set)
                ok = (
                    isinstance(ext, EvenExtension)
                    and comps == math.ceil(size / 2)
                    and isinstance(outcome, CutCertificate)
                    and outcome.size == 3
                )
                if not ok:
                    failures_r += 1
        verdicts[f"r={r}"] = "ok" if failures_r == 0 else "FAIL"
        failures += failures_r
    verdicts["failures"] = failures
    return verdicts


def _experiment_gk(args) -> dict:
    """The three small witnesses: extendable to an even subgraph, yet
    circuit-infeasible, at their stated edge connectivity."""
    verdicts = {}
    cases = [
        ("g(2)>1", two_cycles_bridge(3, 3), 1),
        ("g(3)>2", NamedInstance(ladder(4).graph, frozenset({0, 1, 2}), "ladder-4-three-rungs"), 2),
        ("g(4)>3", gk_lower_witness(4), 3),
    ]
    failures = 0
    for name, inst, want_conn in cases:
        g, s = inst.graph, inst.prescribed
        conn = edge_connectivity(g)
        extendable = isinstance(extend_to_even_subgraph(g, s), EvenExtension)
        feasible = feasible_by_bruteforce(g, s) is not None
        ok = conn == want_conn and extendable and not feasible
        verdicts[name] = {
            "edge_connectivity": conn,
            "jaeger_extendable": extendable,
            "oracle_feasible": feasible,
            "confirmed": ok,
        }
        if not ok:
            failures += 1
    verdicts["failures"] = failures
    return verdicts


def _experiment_corollary(args) -> dict:
    """Feasibility for every (2k-1)-set implies it for every 2k-set."""
    verdicts = {}
    failures = 0
    checked = 0
    for path in args.graphs:
        g = read_graph(path)
        if g.m > 12:
            continue
        for k in (1, 2):
            try:
                ok = check_parity_monotonicity(g, k)
            except TooLarge:
                continue
            checked += 1
            if not ok:
                failures += 1
                verdicts[f"{Path(path).stem}-k{k}"] = "FAIL"
    verdicts["checked"] = checked
    verdicts["failures"] = failures
    return verdicts


# experiment name -> the function that runs it and returns its verdicts,
# a "failures" count among them
_EXPERIMENTS = {
    "ladder": _experiment_ladder,
    "gk-witness": _experiment_gk,
    "corollary": _experiment_corollary,
}


def cmd_experiment(args) -> int:
    verdicts = _EXPERIMENTS[args.name](args)
    report = {"command": "experiment", "label": args.name, "verdicts": verdicts, "timings": {}}
    _report(args, report)
    return EXIT_OK if verdicts["failures"] == 0 else EXIT_CERTIFICATE


class _Parser(argparse.ArgumentParser):
    """Usage errors raise BadParam, so `main` reports them as one error line
    with exit code 1; exit code 2 stays the certificate's.  Subparsers are
    built from the same class."""

    def error(self, message):
        raise BadParam(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="circuitcover",
        description=(
            "Find a circuit through prescribed edges or certify an odd cut; "
            "plus even-subgraph extension, minimum odd cuts, a brute-force "
            "oracle, and instance generators."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="minimum odd cut and the universal verdict")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=0)
    _output_flags(p, with_json=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("find", help="circuit through --edges or an odd-cut certificate")
    p.add_argument("graph")
    p.add_argument("--edges", required=True, help="comma-separated edge ids, e.g. 0,3,7")
    p.add_argument("--certify", action="store_true", help="re-verify the result")
    p.add_argument(
        "--oracle-fallback",
        action="store_true",
        help="on a certificate, also report per-set oracle feasibility",
    )
    _output_flags(p)
    p.set_defaults(func=cmd_find)

    p = sub.add_parser("oracle", help="exhaustive feasibility for --edges")
    p.add_argument("graph")
    p.add_argument("--edges", required=True)
    _output_flags(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="check a result JSON against a graph")
    p.add_argument("graph")
    p.add_argument("--edges", default="")
    p.add_argument("--result", required=True, help="result file or - for stdin")
    _output_flags(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write an instance family to files")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--min-odd-cut", type=int, default=1)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("experiment", help="reproduce the witness experiments")
    p.add_argument("name", choices=list(_EXPERIMENTS))
    p.add_argument("--r", type=int, nargs="*", default=[4, 5, 6])
    p.add_argument("--graphs", nargs="*", default=[], help="graph files for corollary")
    _output_flags(p, with_json=True)
    p.set_defaults(func=cmd_experiment)
    return parser


def _output_flags(p, with_json: bool = False) -> None:
    """--quiet, and --json for the commands with a text and a JSON report
    (check, experiment); find, oracle and verify print only JSON, so their
    `json` is always on.  generate prints only text and takes just --quiet."""
    if with_json:
        p.add_argument("--json", action="store_true", help="machine-readable output only")
    else:
        p.set_defaults(json=True)
    p.add_argument("--quiet", action="store_true")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, Exhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
