"""Exporting ct-graphs: JSON archives and Graphviz DOT.

A serialized ct-graph is self-contained: the interned location names,
per-level location and stay columns, the CSR edges with conditioned
probabilities, and the source distribution.  The JSON form feeds
downstream tooling (and the Lahar-style warehousing the paper points
to); the DOT form is for eyeballing small graphs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Union

from repro.errors import GraphExportError

__all__ = ["flatgraph_to_dict", "save_ctgraph", "ctgraph_to_dot"]

PathLike = Union[str, Path]


def _require_flat_form(graph: object, exporter: str) -> None:
    """Raise unless ``graph`` exposes the columnar (flat) graph surface.

    Duck-typed on the column attributes rather than ``isinstance`` so
    mmap-backed views (:class:`~repro.store.MappedCTGraph`) and
    :class:`~repro.core.flatgraph.FlatCTGraph` are both accepted.
    """
    if not all(hasattr(graph, name) for name in
               ("location_names", "locations", "stays", "edge_offsets",
                "edge_children", "edge_probabilities",
                "source_probabilities")):
        raise GraphExportError(
            f"{exporter} wants a ct-graph (FlatCTGraph or a MappedCTGraph "
            f"view), got {type(graph).__name__}")


def flatgraph_to_dict(graph) -> Dict:
    """The JSON-ready representation of a ct-graph.

    Accepts :class:`~repro.core.flatgraph.FlatCTGraph` or any
    column-compatible view (an mmap-backed
    :class:`~repro.store.MappedCTGraph` works unchanged).  The layout
    mirrors the in-memory columns — per-level arrays rather than per-node
    records — so the archive is a direct JSON transliteration of the
    ``.ctg`` binary sections (stays stay ``None``, not ``-1``).
    """
    _require_flat_form(graph, "flatgraph_to_dict")

    def as_list(column) -> list:
        # ndarray / memoryview columns: .tolist() yields plain Python
        # scalars (a bare list() would leak numpy int32 into the JSON).
        return column.tolist() if hasattr(column, "tolist") else list(column)

    duration = graph.duration
    return {
        "format": "rfid-ctg/flatgraph@1",
        "duration": duration,
        "location_names": list(graph.location_names),
        "locations": [as_list(graph.locations[tau])
                      for tau in range(duration)],
        "stays": [as_list(graph.stays[tau]) for tau in range(duration)],
        "edge_offsets": [as_list(graph.edge_offsets[tau])
                         for tau in range(duration - 1)],
        "edge_children": [as_list(graph.edge_children[tau])
                          for tau in range(duration - 1)],
        "edge_probabilities": [as_list(graph.edge_probabilities[tau])
                               for tau in range(duration - 1)],
        "source_probabilities": as_list(graph.source_probabilities),
    }


def save_ctgraph(graph, path: PathLike) -> None:
    """Write a ct-graph archive (``rfid-ctg/flatgraph@1``) as JSON."""
    Path(path).write_text(json.dumps(flatgraph_to_dict(graph)))


def ctgraph_to_dot(graph, max_nodes: int = 400) -> str:
    """A Graphviz DOT rendering of the graph (small graphs only).

    Nodes get dense ids level by level and are labelled with timestep,
    location and stay; sources are filled and carry their conditioned
    probability.  Raises ``ValueError`` for graphs above ``max_nodes`` —
    DOT output for huge graphs helps nobody.
    """
    _require_flat_form(graph, "ctgraph_to_dot")
    if graph.num_nodes > max_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes; DOT export is capped at "
            f"{max_nodes} (raise max_nodes explicitly if you mean it)")
    names = graph.location_names
    stays = graph.stays
    # Dense node id of node ``i`` of level ``tau``: bases[tau] + i.
    bases = [0]
    for tau in range(graph.duration):
        bases.append(bases[-1] + len(graph.locations[tau]))
    lines = ["digraph ctgraph {", "  rankdir=LR;", "  node [shape=box];"]
    for tau in range(graph.duration):
        lids = graph.locations[tau]
        for i in range(len(lids)):
            stay = "⊥" if stays[tau][i] is None else str(stays[tau][i])
            label = f"t={tau}\\n{names[lids[i]]}\\nstay={stay}"
            extra = ""
            if tau == 0:
                extra = (", style=filled, fillcolor=lightblue, xlabel=\""
                         f"{float(graph.source_probabilities[i]):.3f}\"")
            lines.append(f'  n{bases[tau] + i} [label="{label}"{extra}];')
    for tau in range(graph.duration - 1):
        offsets = graph.edge_offsets[tau]
        children = graph.edge_children[tau]
        probabilities = graph.edge_probabilities[tau]
        for i in range(len(graph.locations[tau])):
            for e in range(offsets[i], offsets[i + 1]):
                lines.append(
                    f'  n{bases[tau] + i} -> n{bases[tau + 1] + children[e]} '
                    f'[label="{float(probabilities[e]):.3f}"];')
    lines.append("}")
    return "\n".join(lines)
