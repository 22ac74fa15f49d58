"""Text format for graphs plus JSON shapes for results and instances.

Graph files: first line `n m`, then m lines `u v` with 0-based endpoints;
`#` starts a comment; the edge id is the 0-based position among edge lines.
"""
from __future__ import annotations

import json
from pathlib import Path

from .cuts import CutCertificate
from .errors import ParseError
from .generators import NamedInstance
from .graphs import Graph, Trail


def parse_graph(text: str) -> Graph:
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise ParseError("expected header `n m`", lineno)
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise ParseError("header values must be integers", lineno) from None
            if min(header) < 0:
                raise ParseError("header values must be non-negative", lineno)
            continue
        if len(parts) != 2:
            raise ParseError("expected edge line `u v`", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", lineno) from None
        if len(edges) >= header[1]:
            raise ParseError("more edge lines than declared", lineno)
        if u == v:
            raise ParseError("self-loops are not allowed", lineno)
        if not (0 <= u < header[0] and 0 <= v < header[0]):
            raise ParseError("endpoint out of range", lineno)
        edges.append((u, v))
    if header is None:
        raise ParseError("empty file", 1)
    if len(edges) != header[1]:
        raise ParseError(f"declared {header[1]} edges, found {len(edges)}", 1)
    try:
        return Graph.from_edges(header[0], edges)
    except ValueError as exc:
        raise ParseError(str(exc), 1) from None


def read_graph(path: str | Path) -> Graph:
    return parse_graph(Path(path).read_text())


def format_graph(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def write_instance(inst: NamedInstance, directory: str | Path) -> tuple[Path, Path]:
    """Write `<label>.graph` and a `<label>.json` sidecar; byte-stable."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    gpath = directory / f"{inst.label}.graph"
    jpath = directory / f"{inst.label}.json"
    gpath.write_text(format_graph(inst.graph))
    sidecar = {"label": inst.label, "prescribed": sorted(inst.prescribed)}
    jpath.write_text(json.dumps(sidecar, sort_keys=True, indent=2) + "\n")
    return gpath, jpath


def circuit_result(t: Trail, method: str | None = None) -> dict:
    out = {
        "status": "circuit",
        "walk": list(t.vertices),
        "edge_walk": list(t.edges),
    }
    if method:
        out["method"] = method
    return out


def cut_result(cert: CutCertificate) -> dict:
    return {"status": "odd-cut", **cert.to_json()}


def infeasible_result(method: str) -> dict:
    return {"status": "infeasible", "method": method}

