"""The binary graph store vs pickle: write, cold load, warm queries.

Three claims about the ``.ctg`` format (``repro.store``) are measured
and — in a full run — gated, on the wide kernel workload the other
benches share (96 locations per level, thousands of edges per level):

* **write** — ``build_ct_graph``'s direct store sink
  (``CleaningOptions(output=...)``: the backward sweep's ndarrays are
  written straight into the ``.ctg`` layout) must beat the conventional
  persistence pipeline end-to-end (engine → flat tuple materialisation
  → ``pickle.dumps`` → file);
* **cold load** — ``load_ctg(path, mmap=True)`` serves a query-ready
  graph view from a cold start at least **5x** faster than unpickling
  the equivalent ``FlatCTGraph`` (the mmap load is O(header + section
  table); unpickling is O(nodes + edges) tuple construction);
* **warm queries** — a ``QuerySession`` over the mmap-backed view must
  answer a six-query analysis bundle *identically* to one over the
  in-memory graph (bit-identical on the python backend, floats within
  1e-12 relative on the numpy backend), at comparable latency
  (``mmap_query_penalty`` records the ratio; it is reported, not gated).

Emits a machine-readable ``BENCH_store.json``.  Usage::

    python benchmarks/bench_store.py                      # full run
    python benchmarks/bench_store.py --smoke              # CI-sized
    python benchmarks/bench_store.py --smoke --backend numpy
    python benchmarks/bench_store.py --check BENCH_store.json

``--check`` validates an existing result file and exits non-zero on
problems.  ``parity`` must be true in any payload; the write and
cold-load speedup gates apply to full (non-smoke) payloads only —
smoke workloads are too small for stable ratios, so CI asserts the
schema and parity there and the tracked ``BENCH_store.json`` carries
the gated full-size numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
import tempfile
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.queries.session import QuerySession
from repro.store import load_ctg

from bench_queries import KERNEL_WIDTH, make_wide_instance

SCHEMA_VERSION = 1

DURATION = 1600
SMOKE_DURATION = 96

#: The full-run gate: a cold mmap load must be at least this much
#: faster than ``pickle.loads`` of the equivalent flat graph.
COLD_LOAD_GATE = 5.0


def _best_of(repeats: int, build: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - started)
    return best


def _bundle(session: QuerySession, names: Sequence[str],
            duration: int) -> Dict[str, object]:
    """The six-query warm analysis bundle (mirrors bench_queries)."""
    mid = duration // 2
    return {
        "entropy": session.entropy_profile(),
        "expected": session.expected_visit_counts(),
        "marginal": session.location_marginal(mid),
        "visit": session.visit_probability(names[5]),
        "span": session.span_probability(
            names[7], mid, min(mid + 40, duration - 1)),
        "first": session.first_visit_distribution(names[3]),
    }


def _values_agree(left: object, right: object, exact: bool) -> bool:
    if exact:
        return left == right
    if isinstance(left, float) and isinstance(right, float):
        return math.isclose(left, right, rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(left, dict) and isinstance(right, dict):
        return (set(left) == set(right)
                and all(_values_agree(left[key], right[key], exact)
                        for key in left))
    if isinstance(left, (list, tuple)) and isinstance(right, (list, tuple)):
        return (len(left) == len(right)
                and all(_values_agree(a, b, exact)
                        for a, b in zip(left, right)))
    return left == right


def run(duration: int, repeats: int, backend: str,
        smoke: bool) -> Dict[str, object]:
    """Execute the comparison; returns the JSON-serialisable payload."""
    lsequence, constraints, names = make_wide_instance(duration)
    with tempfile.TemporaryDirectory(prefix="bench_store_") as root:
        ctg_path = os.path.join(root, "graph.ctg")
        pickle_path = os.path.join(root, "graph.pickle")

        # -- write: engine -> tuples -> pickle  vs  engine -> .ctg ------
        def pickle_pipeline():
            graph = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(materialize="flat", backend=backend))
            with open(pickle_path, "wb") as handle:
                pickle.dump(graph, handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            return graph

        def store_pipeline():
            view = build_ct_graph(
                lsequence, constraints,
                CleaningOptions(backend=backend, output=ctg_path))
            view.close()

        flat = pickle_pipeline()
        store_pipeline()
        pickle_write_seconds = _best_of(repeats, pickle_pipeline)
        store_write_seconds = _best_of(repeats, store_pipeline)
        pickle_bytes = os.path.getsize(pickle_path)
        ctg_bytes = os.path.getsize(ctg_path)

        # -- cold load: pickle.loads  vs  load_ctg(mmap=True) -----------
        blob = open(pickle_path, "rb").read()
        pickle_load_seconds = _best_of(repeats,
                                       lambda: pickle.loads(blob))
        cold_views: List[object] = []

        def mmap_load():
            view = load_ctg(ctg_path, mmap=True)
            cold_views.append(view)  # keep alive; closed after timing
            return view

        mmap_load_seconds = _best_of(repeats, mmap_load)

        # -- warm queries off the mmap: parity + latency -----------------
        view = load_ctg(ctg_path, mmap=True)
        exact = backend == "python"
        memory_bundle = _bundle(QuerySession(flat, backend=backend),
                                names, duration)
        mapped_bundle = _bundle(QuerySession(view, backend=backend),
                                names, duration)
        parity = (view.materialize() == flat
                  and all(_values_agree(memory_bundle[key],
                                        mapped_bundle[key], exact)
                          for key in memory_bundle))
        memory_query_seconds = _best_of(
            repeats, lambda: _bundle(QuerySession(flat, backend=backend),
                                     names, duration))
        mmap_query_seconds = _best_of(
            repeats, lambda: _bundle(QuerySession(view, backend=backend),
                                     names, duration))
        view.close()
        for cold in cold_views:
            cold.close()

    return {
        "benchmark": "bench_store",
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "cpu_count": os.cpu_count() or 1,
        "repeats": repeats,
        "backend": backend,
        "smoke": smoke,
        "workload": {
            "generator": "wide periodic kernel workload",
            "width": KERNEL_WIDTH,
            "duration": duration,
            "nodes": flat.num_nodes,
            "edges": flat.num_edges,
        },
        "sizes": {
            "ctg_bytes": ctg_bytes,
            "pickle_bytes": pickle_bytes,
            "flat_estimate_bytes": flat.estimate_size_bytes(),
        },
        "write": {
            "pickle_seconds": pickle_write_seconds,
            "store_seconds": store_write_seconds,
            "speedup": pickle_write_seconds / store_write_seconds,
        },
        "cold_load": {
            "pickle_seconds": pickle_load_seconds,
            "mmap_seconds": mmap_load_seconds,
            "speedup": pickle_load_seconds / mmap_load_seconds,
        },
        "warm_queries": {
            "memory_seconds": memory_query_seconds,
            "mmap_seconds": mmap_query_seconds,
            "mmap_query_penalty": mmap_query_seconds / memory_query_seconds,
        },
        "parity": parity,
    }


def validate_payload(payload: Dict[str, object]) -> List[str]:
    """Schema + gate check of a ``BENCH_store.json`` payload."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    def timing_block(name: str, fields: Sequence[str]) -> Optional[Dict]:
        block = payload.get(name)
        if not isinstance(block, dict):
            problems.append(f"{name} block missing")
            return None
        for field in fields:
            value = block.get(field)
            if not (isinstance(value, float) and value > 0.0):
                problems.append(f"{name}.{field} must be a positive float")
                return None
        return block

    expect(payload.get("benchmark") == "bench_store",
           "benchmark name missing or wrong")
    expect(payload.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    expect(payload.get("backend") in BACKENDS,
           f"backend must be one of {BACKENDS}")
    expect(isinstance(payload.get("smoke"), bool), "smoke must be a bool")
    workload = payload.get("workload")
    expect(isinstance(workload, dict)
           and isinstance(workload.get("duration"), int)
           and workload["duration"] > 0
           and isinstance(workload.get("nodes"), int)
           and workload["nodes"] > 0
           and isinstance(workload.get("edges"), int)
           and workload["edges"] > 0,
           "workload must describe duration/nodes/edges")
    sizes = payload.get("sizes")
    expect(isinstance(sizes, dict)
           and isinstance(sizes.get("ctg_bytes"), int)
           and sizes["ctg_bytes"] > 0
           and isinstance(sizes.get("pickle_bytes"), int)
           and sizes["pickle_bytes"] > 0,
           "sizes must record positive ctg_bytes/pickle_bytes")
    write = timing_block("write", ("pickle_seconds", "store_seconds",
                                   "speedup"))
    cold = timing_block("cold_load", ("pickle_seconds", "mmap_seconds",
                                      "speedup"))
    timing_block("warm_queries", ("memory_seconds", "mmap_seconds",
                                  "mmap_query_penalty"))
    expect(payload.get("parity") is True,
           "parity must be true — the mmap-served QuerySession diverged "
           "from the in-memory answers")
    if payload.get("smoke") is False:
        if cold is not None:
            expect(cold["speedup"] >= COLD_LOAD_GATE,
                   f"cold mmap load must be >= {COLD_LOAD_GATE}x faster "
                   f"than unpickling (measured {cold['speedup']:.2f}x)")
        if write is not None:
            expect(write["speedup"] > 1.0,
                   "the engine's direct .ctg write must beat the "
                   "engine -> tuples -> pickle pipeline end-to-end "
                   f"(measured {write['speedup']:.2f}x)")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=int, default=DURATION)
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats per path")
    parser.add_argument("--backend", choices=BACKENDS, default="python",
                        help="cleaning/query backend on both sides")
    parser.add_argument("--out", default="BENCH_store.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI workload (96 steps, 2 repeats; "
                             "perf gates off, schema + parity only)")
    parser.add_argument("--check", metavar="FILE",
                        help="validate an existing result file and exit")
    args = parser.parse_args(argv)

    if args.check:
        with open(args.check) as handle:
            payload = json.load(handle)
        problems = validate_payload(payload)
        for problem in problems:
            print(f"SCHEMA: {problem}", file=sys.stderr)
        if not problems:
            gates = ("smoke: schema + parity only"
                     if payload["smoke"] else "full gates")
            print(f"{args.check}: well-formed ({gates}; cold load "
                  f"{payload['cold_load']['speedup']:.2f}x, write "
                  f"{payload['write']['speedup']:.2f}x, parity ok)")
        return 1 if problems else 0

    if args.smoke:
        args.duration, args.repeats = SMOKE_DURATION, 2

    payload = run(args.duration, args.repeats, args.backend, args.smoke)
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print(f"SELF-CHECK: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    sizes, write = payload["sizes"], payload["write"]
    cold, warm = payload["cold_load"], payload["warm_queries"]
    print(f"workload: {payload['workload']['duration']} steps x "
          f"{payload['workload']['width']} locations, "
          f"{payload['workload']['edges']} edges")
    print(f"sizes: .ctg {sizes['ctg_bytes']:>10} B   "
          f"pickle {sizes['pickle_bytes']:>10} B")
    print(f"write: pickle {write['pickle_seconds'] * 1000:8.1f} ms  "
          f".ctg {write['store_seconds'] * 1000:8.1f} ms "
          f"({write['speedup']:.2f}x)")
    print(f"cold load: pickle {cold['pickle_seconds'] * 1000:8.1f} ms  "
          f"mmap {cold['mmap_seconds'] * 1000:8.2f} ms "
          f"({cold['speedup']:.2f}x)")
    print(f"warm bundle: memory {warm['memory_seconds'] * 1000:8.1f} ms  "
          f"mmap {warm['mmap_seconds'] * 1000:8.1f} ms "
          f"(penalty {warm['mmap_query_penalty']:.2f}x), parity ok")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
