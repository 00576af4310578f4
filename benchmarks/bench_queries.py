"""Oracle node DPs vs. the production ``QuerySession``: parity and speed.

Every query has one production implementation, the
:class:`repro.queries.session.QuerySession` method over the flat
columns.  This bench holds it *bit-identical* to the independent
``CTNode``-walking DPs the tests keep as their oracle
(``tests/reference_queries.py``) — every statement's value compared
across the legs — and records how much faster production answers a
realistic analysis session: clean one long periodic l-sequence, then ask
eleven questions of it (marginals, entropy, visit/first-visit/span, a
pattern match, the MAP trajectory and the top-10 trajectories).

* **node leg** — the test oracle end to end: the reference builder
  (``tests/reference_builder.py``) cleans to its ``CTNode`` graph, and
  each statement is answered by the oracle DPs (``execute_reference`` of
  ``tests/reference_queries.py``);
* **flat leg** — production end to end: the default ``build_ct_graph``
  call (the flat columns are its only output), all statements answered
  through one shared :class:`~repro.queries.session.QuerySession` via
  ``repro.queries.ql.execute``.

Since schema v5 the node leg builds with the oracle builder, because
production no longer materialises ``CTNode`` objects at all; its timing
therefore covers the oracle build plus the oracle queries, where v4
timed the production build plus the oracle queries.  ``speedup`` is the
whole-pipeline ratio of the two legs.  Also records
``estimate_size_bytes()`` for both forms.

Because the node leg is the independent oracle, ``parity`` compares
production against a second implementation, not the session against
itself.

Since schema v3 the sweep carries a **backend axis** (``--backend``, the
flat pipeline's ``QuerySession(backend=...)``) and a **kernel block**: a
wide periodic workload (thousands of edges per level) cleaned once, then
a six-query analysis bundle timed on a python session vs a numpy session
sharing pre-built ``GraphViews`` (the one-off ndarray conversion cost is
reported separately as ``view_build_seconds`` — a real session amortises
it across every query).  ``kernel_speedup`` is the bundle-time ratio;
``parity`` holds the two bundles to the documented tolerance gate
(discrete structure exact, floats to 1e-12 relative) and ``--check``
hard-gates it.  With ``--backend numpy`` the main sweep's node-vs-flat
``parity`` uses the same gate; on the default python backend it stays
bit-exact equality.

Emits a machine-readable ``BENCH_queries.json`` so successive commits
can be compared.  Usage::

    python benchmarks/bench_queries.py                    # full sweep
    python benchmarks/bench_queries.py --smoke            # CI-sized
    python benchmarks/bench_queries.py --smoke --backend numpy
    python benchmarks/bench_queries.py --check BENCH_queries.json

``--check`` validates an existing result file against the schema and
exits non-zero on problems — that (and only that) is what CI asserts:
the recorded speedups are hardware- and load-dependent numbers for
humans to judge, not gates for containers to flake on.  ``parity``
must be true in any payload.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import kernels
from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.queries import ql
from repro.queries.session import QuerySession

# The node leg is the test oracle, which lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference_builder import build_ct_graph_reference  # noqa: E402
from tests.reference_queries import execute_reference  # noqa: E402

#: v4: the node leg answers through the test oracle.  v5: the node leg
#: also builds through the test oracle (see the module docstring).
SCHEMA_VERSION = 5

#: The ``bench_engine``/``bench_scaling`` workload: DU + LT + TT all
#: bind, keeping the cleaned graphs branchy enough that queries have
#: real mass to aggregate.
CONSTRAINTS = ConstraintSet([
    Unreachable("A", "C"), Unreachable("C", "A"),
    Latency("B", 3),
    TravelingTime("A", "D", 4), TravelingTime("D", "A", 4),
])

_PHASES = (
    {"A": 0.4, "B": 0.4, "C": 0.2},
    {"B": 0.6, "D": 0.4},
    {"B": 0.5, "C": 0.3, "D": 0.2},
    {"A": 0.5, "B": 0.5},
)

DURATIONS = (400, 800, 1600)
TOP_K = 10

#: The kernel block's wide workload (mirrors ``bench_engine``): 96
#: locations per level so the session sweeps face thousands of edges
#: per level and the ndarray kernels have real work to win on.
KERNEL_WIDTH = 96
KERNEL_DURATION = 1600
KERNEL_SMOKE_DURATION = 96


def make_instance(duration: int) -> LSequence:
    """The periodic ambiguous l-sequence the other benches use."""
    return LSequence([dict(_PHASES[tau % len(_PHASES)])
                      for tau in range(duration)])


def make_wide_instance(duration: int, width: int = KERNEL_WIDTH):
    """The kernel block's wide workload (same shape as bench_engine's)."""
    names = [f"L{i:02d}" for i in range(width)]
    rows = []
    for tau in range(duration):
        weights = [1.0 + ((i * 7 + tau * 3) % 13) / 13.0
                   for i in range(width)]
        total = sum(weights)
        rows.append({name: w / total
                     for name, w in zip(names, weights)})
    constraints = ConstraintSet([Unreachable(names[0], names[1]),
                                 Unreachable(names[2], names[3])])
    return LSequence(rows), constraints, names


def statements(duration: int) -> List[str]:
    """The eleven-statement analysis session asked of each graph."""
    mid = duration // 2
    return [
        f"STAY {mid}",
        "ENTROPY",
        "EXPECTED",
        "VISIT B",
        "VISIT D",
        "FIRST C",
        "FIRST D",
        f"SPAN B {mid} {min(mid + 4, duration - 1)}",
        "MATCH ? B[2] ? D[1] ?",
        "BEST",
        f"TOP {TOP_K}",
    ]


def _node_pipeline(lsequence: LSequence,
                   session_statements: Sequence[str]) -> Tuple[list, int]:
    """Clean with the oracle builder, answer via the oracle's node DPs."""
    graph = build_ct_graph_reference(lsequence, CONSTRAINTS)
    results = [execute_reference(graph, statement)
               for statement in session_statements]
    return results, graph.estimate_size_bytes()


def _flat_pipeline(lsequence: LSequence,
                   session_statements: Sequence[str],
                   backend: str) -> Tuple[list, int]:
    """Clean with production, answer via one ``QuerySession``."""
    graph = build_ct_graph(lsequence, CONSTRAINTS,
                           CleaningOptions(backend=backend))
    session = QuerySession(graph, backend=backend)
    results = [ql.execute(session, statement)
               for statement in session_statements]
    return results, graph.estimate_size_bytes()


def _values_agree(node_value: object, flat_value: object,
                  exact: bool) -> bool:
    """Whether two statement answers agree under the backend's contract.

    Python backend: bit-exact equality.  Numpy backend: the documented
    tolerance gate — container shapes, key sets and orders exact, every
    float within 1e-12 relative (1e-12 absolute for clamped zeros).
    """
    if exact:
        return node_value == flat_value
    if isinstance(node_value, float) and isinstance(flat_value, float):
        return math.isclose(node_value, flat_value,
                            rel_tol=1e-12, abs_tol=1e-12)
    if isinstance(node_value, dict) and isinstance(flat_value, dict):
        # Key *sets* are pinned; insertion order may differ (the numpy
        # reductions emit in location-id order, the loops in node order).
        return (set(node_value) == set(flat_value)
                and all(_values_agree(node_value[key], flat_value[key],
                                      exact)
                        for key in node_value))
    if (isinstance(node_value, (list, tuple))
            and isinstance(flat_value, (list, tuple))):
        return (len(node_value) == len(flat_value)
                and all(_values_agree(a, b, exact)
                        for a, b in zip(node_value, flat_value)))
    return node_value == flat_value


def _best_of(repeats: int, build: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        build()
        best = min(best, time.perf_counter() - started)
    return best


def _kernel_bundle(session: QuerySession, names: Sequence[str],
                   duration: int) -> Dict[str, object]:
    """The kernel block's analysis bundle: every vectorised sweep once.

    Forces the alpha pass (marginal/entropy/expected), the max-product
    suffix pass, and the visit/span restricted flows — exactly the
    sweeps the kernels replace.  The suffix pass is triggered directly
    (private, but this bench lives in the same repo) rather than through
    ``top_k_trajectories``: the heap expansion is python on both
    backends, a large shared constant that would only blur what is being
    measured; ``bench_engine`` and the main sweep above already cover
    end-to-end pipelines.  Only the first suffix row is materialised for
    the parity compare — the pass is bit-exact, so one row pins it.
    """
    mid = duration // 2
    return {
        "entropy": session.entropy_profile(),
        "expected": session.expected_visit_counts(),
        "marginal": session.location_marginal(mid),
        "visit": session.visit_probability(names[5]),
        "span": session.span_probability(
            names[7], mid, min(mid + 40, duration - 1)),
        "suffix_head": list(session._best_suffixes()[0]),
    }


def run_kernel(duration: int, repeats: int) -> Dict[str, object]:
    """The kernel block: python vs warm-views numpy session bundles."""
    lsequence, constraints, names = make_wide_instance(duration)
    graph = build_ct_graph(lsequence, constraints,
                           CleaningOptions(backend="auto"))
    levels = max(1, duration - 1)
    block: Dict[str, object] = {
        "measured": False,
        "width": KERNEL_WIDTH,
        "duration": duration,
        "edges": graph.num_edges,
        "edges_per_level": graph.num_edges / levels,
        "python_seconds": _best_of(
            repeats,
            lambda: _kernel_bundle(QuerySession(graph, backend="python"),
                                   names, duration)),
        "view_build_seconds": None,
        "numpy_seconds": None,
        "kernel_speedup": None,
        "parity": None,
    }
    if not kernels.numpy_available():
        return block

    started = time.perf_counter()
    views = kernels.GraphViews(graph)
    for tau in range(duration - 1):
        views.edge_level(tau)
    for tau in range(duration):
        views.level_lids(tau)
    views.source
    view_build_seconds = time.perf_counter() - started

    def numpy_bundle() -> Dict[str, object]:
        session = QuerySession(graph, backend="numpy")
        # Fresh session, shared warm views: a real analysis session
        # converts the columns once and amortises them across queries;
        # the conversion cost is reported separately above.
        session._views = views
        return _kernel_bundle(session, names, duration)

    oracle = _kernel_bundle(QuerySession(graph, backend="python"),
                            names, duration)
    vectorized = numpy_bundle()
    parity = all(_values_agree(oracle[key], vectorized[key], exact=False)
                 for key in oracle)
    numpy_seconds = _best_of(repeats, numpy_bundle)
    block.update({
        "measured": True,
        "view_build_seconds": view_build_seconds,
        "numpy_seconds": numpy_seconds,
        "kernel_speedup": block["python_seconds"] / numpy_seconds,
        "parity": parity,
    })
    return block


def run(durations: Sequence[int], repeats: int, backend: str,
        kernel_duration: int, kernel_repeats: int) -> Dict[str, object]:
    """Execute the sweep; returns the JSON-serialisable payload."""
    results: List[Dict[str, object]] = []
    parity = True
    exact = backend == "python"
    for duration in durations:
        lsequence = make_instance(duration)
        session_statements = statements(duration)
        node_results, node_size = _node_pipeline(
            lsequence, session_statements)
        flat_results, flat_size = _flat_pipeline(
            lsequence, session_statements, backend)
        parity = parity and all(
            _values_agree(node, flat.value, exact)
            for node, flat in zip(node_results, flat_results))
        node_seconds = _best_of(
            repeats, lambda: _node_pipeline(lsequence, session_statements))
        flat_seconds = _best_of(
            repeats, lambda: _flat_pipeline(lsequence, session_statements,
                                            backend))
        results.append({
            "duration": duration,
            "statements": len(session_statements),
            "node_seconds": node_seconds,
            "flat_seconds": flat_seconds,
            "speedup": node_seconds / flat_seconds,
            "node_size_bytes": node_size,
            "flat_size_bytes": flat_size,
        })

    kernel = run_kernel(kernel_duration, kernel_repeats)
    parity = parity and kernel["parity"] is not False

    headline = results[-1]
    return {
        "benchmark": "bench_queries",
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "cpu_count": os.cpu_count() or 1,
        "repeats": repeats,
        "backend": backend,
        "workload": {
            "generator": "periodic 4-phase ambiguous readings",
            "durations": list(durations),
            "statements": statements(int(durations[-1])),
            "constraints": [repr(c) for c in CONSTRAINTS],
        },
        "speedup": headline["speedup"],
        "kernel_speedup": kernel["kernel_speedup"],
        "parity": parity,
        "kernel": kernel,
        "results": results,
    }


def validate_payload(payload: Dict[str, object]) -> List[str]:
    """Schema check of a ``BENCH_queries.json`` payload; [] when valid."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(payload.get("benchmark") == "bench_queries",
           "benchmark name missing or wrong")
    expect(payload.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    expect(isinstance(payload.get("cpu_count"), int),
           "cpu_count must be an int")
    expect(isinstance(payload.get("repeats"), int)
           and payload["repeats"] >= 1, "repeats must be an int >= 1")
    workload = payload.get("workload")
    expect(isinstance(workload, dict)
           and isinstance(workload.get("durations"), list)
           and workload["durations"]
           and isinstance(workload.get("statements"), list)
           and len(workload.get("statements") or ()) >= 8
           and isinstance(workload.get("constraints"), list),
           "workload must describe durations/statements (>= 8)/constraints")
    expect(isinstance(payload.get("speedup"), float)
           and payload["speedup"] > 0.0,
           "speedup must be a positive float")
    expect(payload.get("backend") in BACKENDS,
           f"backend must be one of {BACKENDS}")
    expect(payload.get("parity") is True,
           "parity must be true — the QuerySession answers diverged from "
           "the oracle node DPs")
    kernel = payload.get("kernel")
    if not isinstance(kernel, dict):
        problems.append("kernel block missing")
    else:
        expect(isinstance(kernel.get("width"), int) and kernel["width"] > 0
               and isinstance(kernel.get("duration"), int)
               and kernel["duration"] > 0
               and isinstance(kernel.get("edges"), int)
               and kernel["edges"] > 0
               and isinstance(kernel.get("edges_per_level"), float)
               and kernel["edges_per_level"] > 0.0
               and isinstance(kernel.get("python_seconds"), float)
               and kernel["python_seconds"] > 0.0
               and isinstance(kernel.get("measured"), bool),
               "kernel block malformed")
        if kernel.get("measured"):
            expect(isinstance(kernel.get("numpy_seconds"), float)
                   and kernel["numpy_seconds"] > 0.0
                   and isinstance(kernel.get("view_build_seconds"), float)
                   and kernel["view_build_seconds"] > 0.0
                   and isinstance(kernel.get("kernel_speedup"), float)
                   and kernel["kernel_speedup"] > 0.0,
                   "measured kernel block needs positive numpy timings "
                   "and speedup")
            expect(kernel.get("parity") is True,
                   "kernel parity must be true — the numpy session "
                   "bundle diverged from the python oracle")
            expect(payload.get("kernel_speedup")
                   == kernel.get("kernel_speedup"),
                   "top-level kernel_speedup disagrees with the kernel "
                   "block")
        else:
            expect(payload.get("kernel_speedup") is None,
                   "kernel_speedup must be null when the kernel block "
                   "was not measured")
    results = payload.get("results")
    expect(isinstance(results, list) and bool(results),
           "results must be a non-empty list")
    if isinstance(results, list) and results:
        if isinstance(workload, dict):
            expect(len(results) == len(workload.get("durations") or ()),
                   "results length disagrees with workload.durations")
        for entry in results:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("duration"), int)
                    and entry["duration"] > 0
                    and isinstance(entry.get("statements"), int)
                    and entry["statements"] >= 8
                    and isinstance(entry.get("node_seconds"), float)
                    and entry["node_seconds"] > 0.0
                    and isinstance(entry.get("flat_seconds"), float)
                    and entry["flat_seconds"] > 0.0
                    and isinstance(entry.get("speedup"), float)
                    and entry["speedup"] > 0.0
                    and isinstance(entry.get("node_size_bytes"), int)
                    and isinstance(entry.get("flat_size_bytes"), int)):
                problems.append(f"malformed result entry: {entry!r}")
                continue
            if entry["flat_size_bytes"] >= entry["node_size_bytes"]:
                problems.append(
                    f"duration {entry['duration']}: flat form "
                    f"({entry['flat_size_bytes']} B) must be smaller "
                    f"than node form ({entry['node_size_bytes']} B)")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", type=int, nargs="+",
                        default=list(DURATIONS))
    parser.add_argument("--repeats", type=int, default=5,
                        help="best-of-N timing repeats per path")
    parser.add_argument("--backend", choices=BACKENDS, default="python",
                        help="sweep backend of the flat pipeline's "
                             "QuerySession (the kernel block always "
                             "compares python vs numpy)")
    parser.add_argument("--kernel-duration", type=int,
                        default=KERNEL_DURATION,
                        help="duration of the kernel block's wide "
                             "workload")
    parser.add_argument("--kernel-repeats", type=int, default=3,
                        help="best-of-N bundles per backend in the "
                             "kernel block")
    parser.add_argument("--out", default="BENCH_queries.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI workload (one 60-step object, "
                             "2 repeats, short kernel block)")
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
            kernel = payload.get("kernel_speedup")
            kernel_text = (f", kernel {kernel:.2f}x" if kernel
                           else ", kernel not measured")
            print(f"{args.check}: well-formed (speedup "
                  f"{payload['speedup']:.2f}x, parity ok{kernel_text})")
        return 1 if problems else 0

    if args.smoke:
        args.durations, args.repeats = [60], 2
        args.kernel_duration = KERNEL_SMOKE_DURATION
        args.kernel_repeats = 2

    payload = run(args.durations, args.repeats, args.backend,
                  args.kernel_duration, args.kernel_repeats)
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print(f"SELF-CHECK: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    for entry in payload["results"]:
        print(f"duration {entry['duration']:>5}: "
              f"node {entry['node_seconds'] * 1000:7.1f} ms  "
              f"flat {entry['flat_seconds'] * 1000:7.1f} ms "
              f"({entry['speedup']:.2f}x)  "
              f"size {entry['node_size_bytes']:>9} B -> "
              f"{entry['flat_size_bytes']:>9} B")
    kernel = payload["kernel"]
    if kernel["measured"]:
        print(f"kernel ({kernel['width']} locations x "
              f"{kernel['duration']} steps, "
              f"{kernel['edges_per_level']:.0f} edges/level): bundle "
              f"{kernel['python_seconds'] * 1000:7.1f} ms -> "
              f"{kernel['numpy_seconds'] * 1000:7.1f} ms "
              f"({kernel['kernel_speedup']:.2f}x; views built once in "
              f"{kernel['view_build_seconds'] * 1000:.1f} ms), parity ok")
    else:
        print("kernel: numpy unavailable, block not measured")
    print(f"headline: {payload['speedup']:.2f}x on "
          f"{payload['results'][-1]['duration']} steps x "
          f"{payload['results'][-1]['statements']} statements, "
          f"parity ok")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
