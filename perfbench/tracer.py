"""Spans and counts around circuitcover's public functions.

The tracer rebinds module and class attributes from outside, so the program
is not edited and untraced runs pay nothing.  `finder` and `hopping` import
names from `graphs`, so every `circuitcover.*` module attribute bound to a
wrapped function is rebound, not just the defining one.  A name that no
longer exists is reported as absent.
"""
from __future__ import annotations

import functools
import json
import sys
import weakref
from collections import Counter
from time import perf_counter_ns

# wrapped with a span: calls, self time and the children entered
SPANS = (
    "finder.find_circuit",
    "finder.extend_circuit",
    "segments.normalize_circuit",
    "segments.segment",
    "graphs.bridges_and_2ec_components",
    "graphs.euler_circuit",
    "graphs.contract_subgraph",
    "graphs.two_edge_disjoint_paths",
    "graphs.FlowNetwork.max_flow",
    "graphs.verify_circuit",
    "hopping.bridge_case",
    "hopping.hopping_fixpoint",
    "hopping.initial_coherent_trail",
    "hopping.reroute_descent",
    "cuts.min_odd_cut",
    "cuts.gomory_hu_tree",
    "cuts.CutCertificate.is_valid_for",
    "generators.random_connected",
    "graphio.parse_graph",
)
# wrapped with a bare counter: wrapped name -> count name
COUNTERS = {"graphs.Graph.__post_init__": "graphs.Graph.constructions"}
# counts read from the spans.  arcs_added is read from the network at each
# max_flow call, each arc once per network, rather than by wrapping
# add_undirected, which would put a wrapper on every edge of every network.
DERIVED = (
    "graphs.FlowNetwork.arcs_added",
    "finder.case.covered",
    "finder.case.splice",
    "finder.case.bridge",
    "finder.case.detached",
    "finder.outcome.circuit",
    "finder.outcome.certificate",
    "hopping.bridge_case.certificates",
)
COUNT_NAMES = tuple(COUNTERS.values()) + DERIVED
MAX_KEPT_SPANS = 20000


def _is_certificate(out) -> bool:
    return type(out).__name__ == "CutCertificate"


def _extend_case(children) -> str:
    """Which branch an extend_circuit call took, from the spans it entered."""
    children = children or ()
    if "graphs.contract_subgraph" in children:
        return "detached"
    if "hopping.bridge_case" in children:
        return "bridge"
    if "graphs.bridges_and_2ec_components" in children:
        return "splice"
    return "covered"


class Recorder:
    """Per-name call counts, self times and counts; optionally the spans."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.stack = []  # open frames: [span id, child ns, child names or None]
        self.spans = []  # (id, parent id, request, name, start ns, end ns)
        self.keep_spans = False
        self.request = 0
        self._next_id = 0
        self._arcs_seen = weakref.WeakKeyDictionary()  # network -> arcs counted

    def _observe(self, name, args, out, children):
        counts = self.counts
        if name == "finder.extend_circuit":
            counts["finder.case." + _extend_case(children)] += 1
        elif name == "finder.find_circuit":
            counts["finder.outcome." + ("certificate" if _is_certificate(out) else "circuit")] += 1
        elif name == "hopping.bridge_case" and _is_certificate(out):
            counts["hopping.bridge_case.certificates"] += 1
        elif name == "graphs.FlowNetwork.max_flow":
            net = args[0]
            arcs = len(getattr(net, "to", ()))  # 0 once networks store arcs otherwise
            counts["graphs.FlowNetwork.arcs_added"] += arcs - self._arcs_seen.get(net, 0)
            self._arcs_seen[net] = arcs

    def span(self, name, fn):
        calls, self_ns, stack, spans = self.calls, self.self_ns, self.stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0, None]
            self._next_id += 1
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                calls[name] += 1
                self_ns[name] += t1 - t0 - frame[1]
                if parent is not None:
                    parent[1] += t1 - t0
                    if parent[2] is None:
                        parent[2] = set()
                    parent[2].add(name)
                if self.keep_spans and len(spans) < MAX_KEPT_SPANS:
                    spans.append((frame[0], parent and parent[0], self.request, name, t0, t1))
            self._observe(name, args, out, frame[2])
            return out

        return wrapper

    def counter(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def write_spans(self, path, phase, mode="a"):
        with open(path, mode) as fh:
            for sid, parent, req, name, t0, t1 in self.spans:
                fh.write(json.dumps({
                    "phase": phase, "id": sid, "parent": parent, "request": req,
                    "name": name, "start_ns": t0, "end_ns": t1,
                }) + "\n")


def _resolve(dotted):
    """(owner, attribute, original) for 'module.func' or 'module.Class.attr',
    or None when the name no longer exists."""
    module_name, *path = dotted.split(".")
    owner = sys.modules.get("circuitcover." + module_name)
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    if isinstance(owner, type):
        original = owner.__dict__.get(path[-1])
    else:
        original = getattr(owner, path[-1], None)
    if not callable(original):
        return None
    return owner, path[-1], original


class Tracer:
    """Installs a recorder's wrappers; `uninstall` restores the originals."""

    def __init__(self, recorder: Recorder):
        self.absent = []
        self._wrappers = []  # (owner, attr, original, wrapper)
        for dotted in SPANS + tuple(COUNTERS):
            found = _resolve(dotted)
            if found is None:
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            if dotted in COUNTERS:
                wrapper = recorder.counter(COUNTERS[dotted], original)
            else:
                wrapper = recorder.span(dotted, original)
            self._wrappers.append((owner, attr, original, wrapper))
        self._patched = []

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "circuitcover" or name.startswith("circuitcover."))
        ]
        for owner, attr, original, wrapper in self._wrappers:
            if isinstance(owner, type):
                self._patch(owner, attr, original, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def uninstall(self):
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
