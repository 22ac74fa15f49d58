"""The benchmark's checkers catch corrupted answers; the tracer rebinds
every import of a wrapped function and puts each one back; the speed probe
scales each time by the probes near it.

    python3 -m pytest perfbench
"""
import sys
from pathlib import Path

import pytest

import checkers
import speed

SRC = Path(__file__).resolve().parent.parent / "src"

# two triangles {0,1,2} and {3,4,5} joined by the bridge 6 = (2,3)
EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
N = 6
CIRCUIT = ((0, 1, 2, 0), (0, 1, 2))  # vertices, edge ids
BRIDGE_CUT = ((3, 4, 5), (6,))  # side, boundary


def test_correct_answers_pass():
    assert checkers.circuit_fault(EDGES, {0, 2}, *CIRCUIT) is None
    assert checkers.cut_fault(N, EDGES, *BRIDGE_CUT, limit=1) is None


@pytest.mark.parametrize("vertices, walk, prescribed, reason", [
    ((0, 1, 2), (0, 1), {0}, "not closed"),
    ((0, 1, 2, 0), (0, 1, 1), {0}, "repeats an edge"),
    ((0, 1, 2, 0), (0, 3, 2), {0}, "does not follow"),
    ((0, 1, 2, 0), (0, 1, 9), {0}, "does not exist"),
    ((0, 1, 2, 0), (0, 1, 2), {0, 6}, "not covered"),
    ((0, 1, 0), (0, 0), {0}, "repeats an edge"),  # there and back on one edge
    ((0, 1, 2, 0), (0, 1), {0}, "one more vertex"),
    ((0,), (), {0}, "empty"),
])
def test_corrupted_circuits_are_caught(vertices, walk, prescribed, reason):
    found = checkers.circuit_fault(EDGES, prescribed, vertices, walk)
    assert found is not None and reason in found


@pytest.mark.parametrize("side, boundary, limit, reason", [
    ((3, 4, 5), (6, 0), 2, "does not match"),
    ((3, 4, 5), (), 1, "does not match"),
    ((), (), 1, "side has 0"),
    (tuple(range(N)), (), 1, "side has 6"),
    ((4, 5), (3, 4, 5), 3, "does not match"),
    ((5,), (4, 5), 3, "even"),
    ((2, 3), (1, 2, 3, 5), 5, "even"),
    ((0,), (0, 2), 1, "even"),
    ((1, 2), (0, 2, 6), 2, "exceeds 2"),
    ((7,), (), 1, "out of range"),
])
def test_corrupted_certificates_are_caught(side, boundary, limit, reason):
    found = checkers.cut_fault(N, EDGES, side, boundary, limit)
    assert found is not None and reason in found


def test_references_agree():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    square = [(0, 1), (1, 2), (2, 3), (3, 0)]
    for n, edges, want in ((N, EDGES, 1), (4, k4, 3), (4, square, None)):
        assert checkers.min_odd_cut_brute(n, edges) == want
        assert checkers.min_odd_cut_networkx(n, edges) == want


def test_check_catches_a_cut_above_the_minimum():
    sys.path.insert(0, str(SRC))
    from run import Bench
    from workloads import WORKLOADS

    bench = Bench(WORKLOADS["check"])
    bench.plain = [(N, EDGES)]
    bench.check_sizes = [(0, 1), (0, 3)]  # the bridge, then a valid odd cut of 3
    bench.finish_checks()
    assert bench.failed == 1


def test_tracer_rebinds_every_import_and_restores_it():
    sys.path.insert(0, str(SRC))
    from circuitcover import finder, graphs
    from circuitcover.graphs import Graph
    from tracer import Recorder, Tracer, _resolve

    original = graphs.bridges_and_2ec_components
    assert finder.bridges_and_2ec_components is original
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        assert finder.bridges_and_2ec_components is not original
        assert graphs.bridges_and_2ec_components is finder.bridges_and_2ec_components
        g = Graph.from_edges(N, EDGES)
        out = finder.find_circuit(g, {0, 3})
    finally:
        tracer.uninstall()
    assert finder.bridges_and_2ec_components is original
    assert not hasattr(graphs.FlowNetwork.max_flow, "__wrapped__")
    assert tracer.absent == []
    assert _resolve("cuts._no_such_function") is None
    assert _resolve("graphs.NoSuchClass.max_flow") is None
    assert rec.calls["finder.find_circuit"] == 1
    assert rec.counts["finder.outcome.certificate"] == 1
    assert type(out).__name__ == "CutCertificate"
    assert rec.self_ns["finder.find_circuit"] > 0


def test_probe_flow_is_right():
    k4 = {u: {v: 1 for v in range(4) if v != u} for u in range(4)}
    assert speed.max_flow(k4, 0, 1) == 3
    assert speed.max_flow(speed.PROBE_GRAPH, 0, 1) > 0


def test_speed_scales_by_the_probes_near_each_time():
    ref = speed.PROBE_REF_MS / 1000
    sp = speed.Speed()
    sp.at, sp.cpu = [0.0, 0.5, 10.0], [ref, ref, 2 * ref]
    assert sp.factor(0.2) == pytest.approx(1.0)
    assert sp.factor(10.2) == pytest.approx(0.5)  # a probe twice as slow halves the time
    assert sp.factor(5.0) == pytest.approx(1.0)  # none within the window: the run's median
