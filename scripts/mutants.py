#!/usr/bin/env python3
"""Apply one-line mutations to a copy of the program and report which ones
the tests catch.

    python3 scripts/mutants.py

Each row of MUTANTS names a file of the checkout, a text that must occur in
it exactly once, the text that replaces it, and the tests expected to kill
the mutant.  The script copies `src/`, `tests/` and `pyproject.toml` to a
temporary directory and first runs the named tests there unmutated: a
mutant counts as killed only by tests that pass on the program as it is.
Then, for each row, it applies the mutation, runs `python -m pytest -x` on
the row's tests with the copy's `src/` on PYTHONPATH, prints `killed` when
a test fails and `survived` when they all pass, and restores the file.  It
exits 1 when a mutant survives or a run errs, 2 when the unmutated tests
fail.  It needs only the standard library and pytest, and is not part of
the test suite.  Later changes add their mutations as rows of the table.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    what: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


CRITERION_1 = "tests/test_acceptance.py::test_criterion_1_oracle_equivalence"
DETACHED = "tests/test_finder.py::TestDetachedCase"
BRIDGE_PATH = "tests/test_cuts.py::TestBridgePath"
CLASSES = "tests/test_cuts.py::TestBoundClasses"
FULL_SEARCH = "tests/test_cuts.py::TestFlowNetwork::test_max_flow_matches_the_full_search"
VERIFY_CUT = "tests/test_cli.py::TestVerifyCut"
TRAIL_FAULTS = "tests/test_finder.py::TestTrailFaultsAreCoherenceFaults"
INPUT_RULES = "tests/test_graphs.py::TestInputRules"

MUTANTS = [
    Mutant(
        "odd-cut scan takes a cut at the bound",
        "src/circuitcover/cuts.py",
        "capacity[v] < bound]",
        "capacity[v] <= bound]",
        (CRITERION_1,),
    ),
    Mutant(
        "lowlink DFS ignores back edges to the root",
        "src/circuitcover/graphs.py",
        "if d < low[v]:",
        "if 0 < d < low[v]:",
        (CRITERION_1, f"{BRIDGE_PATH}::test_atlas_agrees_with_brute_force"),
    ),
    Mutant(
        "the bridge path takes the largest side, not the smallest",
        "src/circuitcover/cuts.py",
        "side = min((sorted(order[lo:hi]) for lo, hi in runs.values()), default=None)",
        "side = max((sorted(order[lo:hi]) for lo, hi in runs.values()), default=None)",
        (
            f"{BRIDGE_PATH}::test_odd_cut_matches_the_bound_two_tree",
            f"{BRIDGE_PATH}::test_atlas_agrees_with_brute_force",
        ),
    ),
    Mutant(
        "the bridge path swallows bound 4",
        "src/circuitcover/cuts.py",
        "if bound == 2:",
        "if bound <= 4:",
        (
            "tests/test_cuts.py::TestHasOddCutLeq::test_ladder_thresholds",
            "tests/test_cuts.py::TestBelowSmallestOddDegree::test_two_halves_agree_with_networkx",
        ),
    ),
    Mutant(
        "the class step merges at k - 1",
        "src/circuitcover/cuts.py",
        "if ry >= k:",
        "if ry >= k - 1:",
        (
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_on_the_atlas",
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_below_both_bounds",
        ),
    ),
    Mutant(
        "the class step counts each row entry twice",
        "src/circuitcover/cuts.py",
        "ry = r[y] = r[y] + 1",
        "ry = r[y] = r[y] + 2",
        (
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_on_the_atlas",
            f"{CLASSES}::test_one_class_is_bound_connected",
        ),
    ),
    Mutant(
        "the class step's second-start test misses a second component at vertex 1",
        "src/circuitcover/cuts.py",
        "if not top and x:",
        "if not top and x > 1:",
        ("tests/test_cuts.py::TestConnectivityFromTheClassStep",),
    ),
    Mutant(
        "the tree skips a pair whose classes differ",
        "src/circuitcover/cuts.py",
        "if label[s] == label[t]:",
        "if label[s] == label[t] or s == g.n - 1:",
        (
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_on_the_atlas",
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_below_both_bounds",
        ),
    ),
    Mutant(
        "the tree's flow supplies one unit short of the bound",
        "src/circuitcover/cuts.py",
        "net.max_flow({s: bound}, {t: bound})",
        "net.max_flow({s: bound - 1}, {t: bound})",
        (
            f"{CLASSES}::test_tree_matches_the_flow_only_tree_on_the_atlas",
            "tests/test_cuts.py::TestPinnedCutAnswers::test_answers_match_the_pinned_digest",
        ),
    ),
    Mutant(
        "near keeps the largest arc id",
        "src/circuitcover/graphs.py",
        "near.get(u, e) >= e",
        "near.get(u, e) <= e",
        (FULL_SEARCH,),
    ),
    Mutant(
        "a source that is a target in near is stepped past instead of returned",
        "src/circuitcover/graphs.py",
        "if demand.get(v):",
        "if demand.get(v) and v not in near:",
        (FULL_SEARCH,),
    ),
    Mutant(
        "find_circuit lets a cut of size |S| + 1 through",
        "src/circuitcover/finder.py",
        "result.size > len(s_list):",
        "result.size > len(s_list) + 1:",
        ("tests/test_finder.py::TestFindCircuit::test_a_certificate_beyond_the_bound_is_caught",),
    ),
    Mutant(
        "the detached case lifts a cut unchecked",
        "src/circuitcover/finder.py",
        "if cert.boundary != outcome.boundary or not cert.odd:",
        "if False:",
        (f"{DETACHED}::test_a_certificate_that_does_not_lift_is_an_internal_fault",),
    ),
    Mutant(
        "the DFS hands out every bridge as comp's boundary",
        "src/circuitcover/graphs.py",
        "tuple(sorted(boundary))",
        "tuple(sorted(bridges))",
        ("tests/test_graphs.py::TestBridges::test_components_partition_the_non_bridges",),
    ),
    Mutant(
        "the DFS cuts a nested run out of comp again",
        "src/circuitcover/graphs.py",
        "if hi <= i:",
        "if True:",
        ("tests/test_graphs.py::TestBridges::test_components_partition_the_non_bridges",),
    ),
    Mutant(
        "the contraction takes an edge without exactly one end in w",
        "src/circuitcover/graphs.py",
        "if (a in wset) == (b in wset):",
        "if False:",
        (
            "tests/test_graphs.py::TestContraction::test_an_edge_without_one_end_in_w_is_rejected",
            f"{DETACHED}::test_a_bad_component_is_an_internal_fault",
        ),
    ),
    Mutant(
        "the contraction makes parallel edges at a shared outside end",
        "src/circuitcover/graphs.py",
        "if x in ends:",
        "if False:",
        (
            "tests/test_graphs.py::TestContraction::test_matches_the_checked_build",
            f"{DETACHED}::test_a_bad_component_is_an_internal_fault",
        ),
    ),
    Mutant(
        "the segment walk skips the detour cut",
        "src/circuitcover/segments.py",
        "if len(set(run)) == len(run):",
        "if True:",
        ("tests/test_segments.py::TestOneWalk",),
    ),
    Mutant(
        "reroute_descent skips its entry check",
        "src/circuitcover/hopping.py",
        "    check_coherent(q, state, seg)\n    guard = q.n + q.m + 1",
        "    guard = q.n + q.m + 1",
        ("tests/test_hopping.py::TestCoherenceChecks::test_a_corrupt_initial_trail_is_caught",),
    ),
    Mutant(
        "the B step reroutes on A's reach",
        "src/circuitcover/hopping.py",
        "_reroute(_mirror(q), state.b, state.a, seg)",
        "_reroute(_mirror(q), state.a, state.b, seg)",
        ("tests/test_hopping.py::TestDerivedSubtrails",),
    ),
    Mutant(
        "C1 reads the end's level from A's reach",
        "src/circuitcover/hopping.py",
        "b_next = state.b.level(q.m + 1)",
        "b_next = state.a.level(q.m + 1)",
        ("tests/test_hopping.py::TestInitialCoherentTrail",),
    ),
    Mutant(
        "verify takes an even boundary",
        "src/circuitcover/certificates.py",
        "if len(boundary) % 2 == 0:",
        "if False:",
        (f"{VERIFY_CUT}::test_even_boundary_claimed_odd_rejected",),
    ),
    Mutant(
        "verify lets a cut of size |S| + 1 through",
        "src/circuitcover/certificates.py",
        "len(boundary) > bound:",
        "len(boundary) > bound + 1:",
        (f"{VERIFY_CUT}::test_cut_one_edge_past_the_bound_rejected",),
    ),
    Mutant(
        "the checker takes an open walk",
        "src/circuitcover/certificates.py",
        "if walk[0] != walk[-1]:",
        "if False:",
        (
            "tests/test_certificates.py::"
            "test_agrees_with_the_library_on_every_answer_and_its_corruptions",
        ),
    ),
    Mutant(
        "the trail check takes a step that only leaves from its edge",
        "src/circuitcover/certificates.py",
        "if not ((a == u and b == v) or (a == v and b == u)):",
        "if not (a == u or a == v):",
        ("tests/test_graphs.py::TestValidateTrail::test_table",),
    ),
    Mutant(
        "the trail check lets a repeated edge through",
        "src/circuitcover/certificates.py",
        "if len(set(edge_walk)) != len(edge_walk):",
        "if False:",
        (f"{TRAIL_FAULTS}::test_flow_walks_that_repeat_an_edge",),
    ),
    Mutant(
        "the flow's trail goes unchecked",
        "src/circuitcover/finder.py",
        "fault = trail_fault(g.n, g.edges, walk.vertices, walk.edges)",
        'fault = ""',
        (f"{TRAIL_FAULTS}::test_flow_walks_off_the_graph",),
    ),
    Mutant(
        "bridge_case returns its circuit unchecked",
        "src/circuitcover/hopping.py",
        "fault = circuit_fault(g.n, g.edges, circuit.vertices, circuit.edges, ())",
        'fault = ""',
        (
            "tests/test_hopping.py::TestBridgeCase::"
            "test_a_circuit_off_the_graph_is_a_coherence_fault",
        ),
    ),
    Mutant(
        "the brute-force minimum odd cut takes an even cut",
        "src/circuitcover/cuts.py",
        "if size % 2 == 0:",
        "if False:",
        ("tests/test_oracle.py::TestAtlasTheorem",),
    ),
    Mutant(
        "edge_ids lets id m through",
        "src/circuitcover/graphs.py",
        "max(ids) >= g.m",
        "max(ids) > g.m",
        (f"{INPUT_RULES}::test_every_edge_id_caller_names_the_smallest_bad_id",),
    ),
    Mutant(
        "parse_graph names the first edge's line",
        "src/circuitcover/graphio.py",
        "lines[eid]",
        "lines[0]",
        ("tests/test_cli.py::TestGraphFormat::test_each_fault_names_its_own_line",),
    ),
]


def _pytest(copy: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=copy, env=env, capture_output=True).returncode


def main() -> int:
    for i, m in enumerate(MUTANTS, 1):
        count = (ROOT / m.file).read_text().count(m.old)
        if count != 1:
            print(f"{i}. {m.what}: the old text occurs {count} times in {m.file}")
            return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        named = sorted({t for m in MUTANTS for t in m.tests})
        if _pytest(copy, named) != 0:
            print("the named tests fail on the unmutated program:", *named, sep="\n  ")
            return 2
        status = 0
        for i, m in enumerate(MUTANTS, 1):
            path = copy / m.file
            text = path.read_text()
            path.write_text(text.replace(m.old, m.new))
            try:
                code = _pytest(copy, m.tests)
            finally:
                path.write_text(text)
            # pytest exits 1 when a test failed; any other failure is no kill
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            status = max(status, int(code != 1))
            print(f"{i}. {verdict}: {m.what}")
    return status


if __name__ == "__main__":
    sys.exit(main())
