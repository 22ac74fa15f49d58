"""Closed-loop benchmark of circuitcover's find_circuit and min_odd_cut.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  One process, one thread, one call at a time: each call waits for
the previous one to return.  The run attempts whole blocks of calls until
`--seconds` have passed, checks every answer with the independent
checkers in `checkers.py`, and prints one JSON object as the last line.

With `--trace 0` the metrics are the end-to-end ones.  Times are CPU times
of this process (`time.process_time`), each scaled to a reference machine
speed by the probe in `speed.py`: the program is single-threaded and does
no I/O, so on an unloaded machine a call's CPU time is its wall time within
a few percent, while on a shared host CPU time leaves out the spells in
which other tenants hold the core, and the probe takes out the spells in
which they slow it.  The line before the result gives the unscaled values.
With `--trace 1` each block runs once untraced and once traced, and the metrics are the
per-layer counts and self times of the traced blocks, per primary call
(per set-up for `generators.*` and `graphio.*`), plus the tracing overhead:
traced call time over untraced call time on the same blocks.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from array import array
from pathlib import Path
from time import perf_counter, process_time

import checkers
from speed import Speed
from tracer import COUNT_NAMES, SPANS, Recorder, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run, and at least SETUP_MIN_S of them; the median is reported
SETUP_MIN_S = 1.0
TRACE_DIR = ROOT / "perfbench" / "traces"
SETUP_LAYERS = ("generators.", "graphio.")


def load_program():
    """Import circuitcover from this checkout's source tree, or exit 1."""
    package = SRC / "circuitcover"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import circuitcover

    if Path(circuitcover.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported circuitcover from {circuitcover.__file__}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload])
    result = bench.run_traced(args) if args.trace else bench.run_timed(args)
    print(json.dumps(result))
    return 0


class Bench:
    def __init__(self, workload):
        from circuitcover import cuts, finder, graphio, graphs

        self.w = workload
        self.cuts, self.finder, self.graphio, self.graphs = cuts, finder, graphio, graphs
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.check_sizes = []  # (graph index, certificate size) for `check`

    # -- set-up -------------------------------------------------------------

    def setup(self, seed):
        """Build the corpus, round-trip every graph through the text format
        and make one warm-up call outside the timed loop; returns the CPU
        seconds taken.  The warm-up prescribes only the first edge of the
        first call: with the whole set its cost hung on the seed's first
        draw and moved `setup_s` by up to 0.07 s between seeds."""
        t0 = process_time()
        built = self.w.build(seed)
        graphs = []
        for g in built.graphs:
            back = self.graphio.parse_graph(self.graphio.format_graph(g))
            if back.n != g.n or back.edges != g.edges:
                raise RuntimeError("graph changed in the text round trip")
            graphs.append(back)
        gi, s = built.block(0)[0]
        self.primary(graphs[gi], s and s[:1])
        elapsed = process_time() - t0
        self.built, self.corpus = built, graphs
        self.plain = [(g.n, g.edges) for g in graphs]
        return elapsed

    # -- one call -----------------------------------------------------------

    def primary(self, g, s):
        if self.w.primary == "find":
            return self.finder.find_circuit(g, s)
        return self.cuts.min_odd_cut(g)

    def self_verify(self, g, s, out) -> bool:
        if isinstance(out, self.graphs.Trail):
            return bool(self.graphs.verify_circuit(g, out, s))
        return out.is_valid_for(g)

    def fault(self, gi, s, out):
        """Independent check of one answer; None when it is correct.

        A certificate's size <= |S| test also covers the theorem's direction
        (without an odd cut of size <= |S| the answer must be a circuit):
        a certificate that passes is such a cut.
        """
        n, edges = self.plain[gi]
        if isinstance(out, self.graphs.Trail):
            if s is None:
                return "min_odd_cut returned a trail"
            return checkers.circuit_fault(edges, s, out.vertices, out.edges)
        if not isinstance(out, self.cuts.CutCertificate):
            return f"unexpected answer {type(out).__name__}"
        limit = len(edges) if s is None else len(s)
        found = checkers.cut_fault(n, edges, out.side, out.boundary, limit)
        if s is None and found is None:
            self.check_sizes.append((gi, len(out.boundary)))
        return found

    def record_fault(self, gi, s, reason):
        self.failed += 1
        self.faults.setdefault(reason, (gi, s))

    def run_block(self, calls, lat, ver, recorder=None, speed=None):
        """One whole block of calls: time each call and the program's own
        verification of its answer in CPU time, then check the answer
        independently.  With `speed`, probe the machine between calls."""
        for gi, s in calls:
            g = self.corpus[gi]
            self.attempted += 1
            if recorder is not None:
                recorder.request += 1
            try:
                t0 = process_time()
                out = self.primary(g, s)
                t1 = process_time()
                verified = out is not None and self.self_verify(g, s, out)
                t2 = process_time()
            except Exception as exc:  # a raising call is a failed call
                self.record_fault(gi, s, f"{type(exc).__name__}: {exc}")
                continue
            end = perf_counter()
            if speed is not None:
                speed.maybe_probe()
            lat.add(end, t1 - t0)
            if out is None:
                self.record_fault(gi, s, "min_odd_cut returned None")
                continue
            ver.add(end, t2 - t1)
            reason = self.fault(gi, s, out) or (None if verified else "program's own verification rejected its answer")
            if reason:
                self.record_fault(gi, s, reason)

    def finish_checks(self):
        """Deferred check for `check`: certificate size equals the minimum
        T-odd cut from networkx, computed once per graph."""
        reference = {}
        for gi, size in self.check_sizes:
            if gi not in reference:
                reference[gi] = checkers.min_odd_cut_networkx(*self.plain[gi])
            if size != reference[gi]:
                self.record_fault(gi, None, f"cut size {size} is not the minimum {reference[gi]}")

    def result(self, metrics):
        for reason, (gi, s) in self.faults.items():
            print(f"FAILED graph {gi} S={s}: {reason}", file=sys.stderr)
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    # -- runs ---------------------------------------------------------------

    def run_timed(self, args):
        speed = Speed()
        setups = Samples()
        while len(setups.cpu) < SETUPS or math.fsum(setups.cpu) < SETUP_MIN_S:
            elapsed = self.setup(args.seed)
            setups.add(perf_counter(), elapsed)
            speed.maybe_probe()
        lat, ver = Samples(), Samples()
        blocks = 0
        start, start_cpu = perf_counter(), process_time()
        while True:
            self.run_block(self.built.block(blocks), lat, ver, speed=speed)
            blocks += 1
            if perf_counter() - start >= args.seconds:
                break
        cpu_share = (process_time() - start_cpu) / (perf_counter() - start)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.finish_checks()
        pct = self.w.tail_percentile
        tail_index = max(math.ceil(pct / 100 * len(lat.cpu)) - 1, 0)
        print(
            f"{self.w.name}: {len(lat.cpu)} timed calls in {blocks} blocks; "
            f"call_ms_tail is p{pct} ({len(lat.cpu) - 1 - tail_index} calls beyond it); "
            f"setup_s is the median of {len(setups.cpu)} set-ups; "
            f"the timed loop had {cpu_share:.0%} of a core; "
            f"{len(speed.cpu)} probes, median {speed.median_ms():.4f} ms"
        )

        def values(scale):
            calls = sorted(lat.scaled(scale))
            return {
                "setup_s": (statistics.median(setups.scaled(scale)), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "calls_per_s": (len(calls) / math.fsum(calls), "1/s"),
                "call_ms_p50": (statistics.median(calls) * 1000, "ms"),
                "call_ms_tail": (calls[tail_index] * 1000, "ms"),
                "verify_ms_p50": (statistics.median(ver.scaled(scale)) * 1000, "ms"),
            }

        print("unscaled " + json.dumps({name: v for name, (v, _) in values(lambda at: 1.0).items()}))
        return self.result({name: {"value": v, "unit": unit} for name, (v, unit) in values(speed.factor).items()})

    def run_traced(self, args):
        setup_rec = Recorder()
        setup_rec.keep_spans = True
        tracer = Tracer(setup_rec)
        tracer.install()
        try:
            self.setup(args.seed)
        finally:
            tracer.uninstall()
        rec = Recorder()
        rec.keep_spans = True  # spans of the first traced block only
        tracer = Tracer(rec)
        plain_lat, traced_lat, ver = Samples(), Samples(), Samples()
        for b in range(max(1, round(args.seconds / self.w.pair_seconds))):
            calls = self.built.block(b)
            # alternate which of the pair goes first, so warm-up and drift
            # fall on both sides of the overhead ratio
            for traced in ((False, True) if b % 2 == 0 else (True, False)):
                if not traced:
                    self.run_block(calls, plain_lat, ver)
                    continue
                tracer.install()
                try:
                    self.run_block(calls, traced_lat, ver, rec)
                finally:
                    tracer.uninstall()
                rec.keep_spans = False
        self.finish_checks()
        TRACE_DIR.mkdir(exist_ok=True)
        trace_path = TRACE_DIR / f"{self.w.name}-seed{args.seed}.jsonl"
        setup_rec.write_spans(trace_path, "setup", mode="w")
        rec.write_spans(trace_path, "calls")
        if tracer.absent:
            print(f"absent (reported as 0): {', '.join(tracer.absent)}")
        calls = len(traced_lat.cpu)
        metrics = {}
        for name in SPANS:
            per_setup = name.startswith(SETUP_LAYERS)
            source, per, suffix = (setup_rec, 1, "") if per_setup else (rec, calls, "/call")
            metrics[f"{name}.calls"] = {"value": source.calls[name] / per, "unit": "count" + suffix}
            metrics[f"{name}.self_ms"] = {"value": source.self_ns[name] / 1e6 / per, "unit": "ms" + suffix}
        for name in COUNT_NAMES:
            metrics[name] = {"value": rec.counts[name] / calls, "unit": "count/call"}
        overhead = math.fsum(traced_lat.cpu) / math.fsum(plain_lat.cpu)
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "x"}
        print(f"{self.w.name}: {calls} traced calls; spans of the first traced block in {trace_path.relative_to(ROOT)}")
        return self.result(metrics)


class Samples:
    """Measured CPU seconds, each with the wall time it ended at."""

    def __init__(self):
        self.at, self.cpu = array("d"), array("d")

    def add(self, at, cpu):
        self.at.append(at)
        self.cpu.append(cpu)

    def scaled(self, scale):
        return [cpu * scale(at) for at, cpu in zip(self.at, self.cpu)]


if __name__ == "__main__":
    sys.exit(main())
