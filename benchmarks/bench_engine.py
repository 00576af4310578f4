"""Reference oracle vs. ``build_ct_graph``: single-object speedup.

``build_ct_graph`` (interned states, memoised transitions, columnar
sweep — :mod:`repro.core.engine`) must be *bit-identical* to the
reference builder that ``tests/reference_builder.py`` keeps as the test
oracle — this bench both asserts that (flat-form graph equality, stats
counters included) and records how much faster it is on the
long-duration periodic workloads of ``bench_scaling``:

* **reference** — ``build_ct_graph_reference``, the printed Algorithm 1
  over :class:`~repro.core.ctgraph.CTNode` objects;
* **compact (cold)** — the default ``build_ct_graph(ls, cs)`` call, timed
  end to end with a fresh transition cache per build: the single-object
  cost a CLI ``clean`` pays;
* **compact (warm)** — the same call through one shared
  :class:`~repro.runtime.plan.SharedCleaningPlan`, the steady-state cost
  a ``clean_many`` worker pays after the first object of a batch.

Each duration gates the default call: it must never be more than
``ROUTING_SLACK``× slower than the oracle — recorded per entry as
``default_ok`` and gated by ``--check``.

Since schema v3 the sweep carries a **backend axis** (``--backend``, the
flat-materialised build re-timed under ``CleaningOptions(backend=...)``)
and a **kernel block**: a wide periodic workload (``KERNEL_WIDTH``
locations, so each edge level carries thousands of edges) cleaned to
flat form under both sweep backends.  ``kernel_speedup`` is the ratio of
``CleaningStats.sweep_seconds`` — the backward survival sweep proper,
the slice the numpy kernels (:mod:`repro.core.kernels`) actually
replace; ``build_speedup`` is the honest whole-build ratio, which is
structurally capped by tuple materialisation (the flat graph stores
tuples, and converting ndarrays back is linear in edges).  The block's
``parity`` field asserts the two builds are *bit-identical* — flat-form
equality, stats counters included — and ``--check`` hard-gates it.

Emits a machine-readable ``BENCH_engine.json`` so successive commits can
be compared.  Usage::

    python benchmarks/bench_engine.py                    # full sweep
    python benchmarks/bench_engine.py --smoke            # CI-sized
    python benchmarks/bench_engine.py --smoke --backend numpy
    python benchmarks/bench_engine.py --check BENCH_engine.json

``--check`` validates an existing result file against the schema and
exits non-zero on problems — that (and only that) is what CI asserts:
the recorded speedups are hardware- and load-dependent numbers for
humans to judge, not gates for containers to flake on.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.core import kernels
from repro.core.algorithm import BACKENDS, CleaningOptions, build_ct_graph
from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.runtime.plan import SharedCleaningPlan

# The reference leg is the test oracle, which lives with the tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.reference_builder import build_ct_graph_reference  # noqa: E402

SCHEMA_VERSION = 4

#: How much slower than the oracle the default call may be before
#: ``default_ok`` flips false.  Generous enough to absorb timing noise
#: on short objects, tight enough to catch a default path that loses to
#: the direct transcription.
ROUTING_SLACK = 1.3

#: The ``bench_scaling`` workload: DU + LT + TT all bind, and the TT
#: constraints keep the departure filter (and so the mask-widened
#: transition keys) on the hot path.
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

#: The kernel block's wide workload: this many locations per level, all
#: candidates everywhere, so each edge level carries thousands of edges
#: and the level sweep (not the python interpreter's per-level overhead)
#: dominates.  96 locations at duration 1600 is ~9.2k edges per level.
KERNEL_WIDTH = 96
KERNEL_DURATION = 1600
KERNEL_SMOKE_DURATION = 96


def make_instance(duration: int) -> LSequence:
    """The periodic l-sequence ``bench_scaling`` sweeps."""
    return LSequence([dict(_PHASES[tau % len(_PHASES)])
                      for tau in range(duration)])


def make_wide_instance(duration: int,
                       width: int = KERNEL_WIDTH):
    """The kernel block's workload: wide levels, mild pruning.

    Weights vary deterministically with position and time so no two
    levels are trivially uniform; the two DU constraints prune a little
    without collapsing the level width.
    """
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
    return LSequence(rows), constraints


def _flat(graph) -> Dict[str, object]:
    """The graph's flat (pickle) form minus the stats/timing block."""
    state = graph.__getstate__()
    return {key: value for key, value in state.items() if key != "stats"}


def _best_of(repeats: int, build) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        build()
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
    return best


def _timed_builds(repeats: int, build):
    """Best-of wall/sweep seconds over ``repeats`` builds, plus a graph."""
    best_wall = float("inf")
    best_sweep = float("inf")
    graph = None
    for _ in range(repeats):
        started = time.perf_counter()
        graph = build()
        best_wall = min(best_wall, time.perf_counter() - started)
        best_sweep = min(best_sweep, graph.stats.sweep_seconds)
    return best_wall, best_sweep, graph


def run_kernel(duration: int, repeats: int) -> Dict[str, object]:
    """The kernel block: python vs numpy flat builds of the wide workload."""
    lsequence, constraints = make_wide_instance(duration)
    python_options = CleaningOptions(materialize="flat", backend="python")
    numpy_options = CleaningOptions(materialize="flat", backend="numpy")
    python_build, python_sweep, oracle = _timed_builds(
        repeats, lambda: build_ct_graph(lsequence, constraints,
                                        python_options))
    levels = max(1, duration - 1)
    block: Dict[str, object] = {
        "measured": False,
        "width": KERNEL_WIDTH,
        "duration": duration,
        "edges": oracle.num_edges,
        "edges_per_level": oracle.num_edges / levels,
        "python_build_seconds": python_build,
        "python_sweep_seconds": python_sweep,
        "numpy_build_seconds": None,
        "numpy_sweep_seconds": None,
        "build_speedup": None,
        "kernel_speedup": None,
        "parity": None,
    }
    if not kernels.numpy_available():
        return block
    numpy_build, numpy_sweep, vectorized = _timed_builds(
        repeats, lambda: build_ct_graph(lsequence, constraints,
                                        numpy_options))
    block.update({
        "measured": True,
        "numpy_build_seconds": numpy_build,
        "numpy_sweep_seconds": numpy_sweep,
        "build_speedup": python_build / numpy_build,
        "kernel_speedup": python_sweep / numpy_sweep,
        # Bit-identical flat forms, stats counters included (timing
        # fields are excluded from CleaningStats equality).
        "parity": (vectorized == oracle
                   and vectorized.stats == oracle.stats),
    })
    return block


def run(durations: Sequence[int], repeats: int, backend: str,
        kernel_duration: int, kernel_repeats: int) -> Dict[str, object]:
    flat_options = CleaningOptions(materialize="flat", backend=backend)
    results: List[Dict[str, object]] = []
    all_identical = True
    all_default_ok = True
    for duration in durations:
        lsequence = make_instance(duration)

        def reference():
            return build_ct_graph_reference(lsequence, CONSTRAINTS)

        def default():
            return build_ct_graph(lsequence, CONSTRAINTS)

        reference_graph = reference()
        compact_graph = default()
        flat_graph = build_ct_graph(lsequence, CONSTRAINTS, flat_options)
        identical = (_flat(reference_graph) == _flat(compact_graph)
                     and reference_graph.stats == compact_graph.stats
                     and flat_graph == compact_graph.to_flat())
        all_identical = all_identical and identical

        reference_seconds = _best_of(repeats, reference)
        compact_seconds = _best_of(repeats, default)
        default_ok = compact_seconds <= ROUTING_SLACK * reference_seconds
        if not default_ok:
            # A low-repeat run on a loaded machine can spike one side's
            # best-of; re-time both harder before failing the gate
            # (best-of only improves with more samples).
            reference_seconds = min(reference_seconds,
                                    _best_of(max(repeats * 3, 5), reference))
            compact_seconds = min(compact_seconds,
                                  _best_of(max(repeats * 3, 5), default))
            default_ok = (compact_seconds
                          <= ROUTING_SLACK * reference_seconds)
        all_default_ok = all_default_ok and default_ok
        plan = SharedCleaningPlan(CONSTRAINTS)
        build_ct_graph(lsequence, CONSTRAINTS, plan=plan)
        warm_seconds = _best_of(
            repeats, lambda: build_ct_graph(lsequence, CONSTRAINTS,
                                            plan=plan))
        flat_seconds = _best_of(
            repeats, lambda: build_ct_graph(lsequence, CONSTRAINTS,
                                            flat_options))

        stats = compact_graph.stats
        results.append({
            "duration": duration,
            "nodes": reference_graph.num_nodes,
            "edges": reference_graph.num_edges,
            "reference_seconds": reference_seconds,
            "compact_seconds": compact_seconds,
            "compact_warm_seconds": warm_seconds,
            "flat_seconds": flat_seconds,
            "backend": kernels.resolve_backend(
                backend, reference_graph.num_edges / max(1, duration - 1)),
            "speedup": reference_seconds / compact_seconds,
            "warm_speedup": reference_seconds / warm_seconds,
            "forward_seconds": stats.forward_seconds,
            "backward_seconds": stats.backward_seconds,
            "identical_output": identical,
            "default_ok": default_ok,
        })

    kernel = run_kernel(kernel_duration, kernel_repeats)
    all_identical = all_identical and kernel["parity"] is not False

    headline = results[-1]
    return {
        "benchmark": "bench_engine",
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "cpu_count": os.cpu_count(),
        "repeats": repeats,
        "backend": backend,
        "workload": {
            "generator": "synthetic-phase4",
            "durations": list(durations),
            "constraints": [str(c) for c in CONSTRAINTS],
        },
        # The headline number: cold single-object speedup at the longest
        # duration of the sweep (best-of-``repeats`` on both sides).
        "speedup": headline["speedup"],
        "warm_speedup": headline["warm_speedup"],
        # The kernel headline: sweep-proper python/numpy ratio on the
        # wide workload (None when numpy is unavailable).
        "kernel_speedup": kernel["kernel_speedup"],
        "identical_output": all_identical,
        "default_ok": all_default_ok,
        "kernel": kernel,
        "results": results,
    }


def validate_payload(payload: Dict[str, object]) -> List[str]:
    """Schema check of a ``BENCH_engine.json`` payload; [] when valid."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(payload.get("benchmark") == "bench_engine",
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
           and isinstance(workload.get("constraints"), list),
           "workload must describe durations/constraints")
    for key in ("speedup", "warm_speedup"):
        expect(isinstance(payload.get(key), float) and payload[key] > 0.0,
               f"{key} must be a positive float")
    expect(payload.get("backend") in BACKENDS,
           f"backend must be one of {BACKENDS}")
    expect(payload.get("identical_output") is True,
           "identical_output must be true — build_ct_graph diverged "
           "from the reference builder")
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
               and isinstance(kernel.get("python_build_seconds"), float)
               and kernel["python_build_seconds"] > 0.0
               and isinstance(kernel.get("python_sweep_seconds"), float)
               and kernel["python_sweep_seconds"] > 0.0
               and isinstance(kernel.get("measured"), bool),
               "kernel block malformed")
        if kernel.get("measured"):
            expect(isinstance(kernel.get("kernel_speedup"), float)
                   and kernel["kernel_speedup"] > 0.0
                   and isinstance(kernel.get("build_speedup"), float)
                   and kernel["build_speedup"] > 0.0
                   and isinstance(kernel.get("numpy_build_seconds"), float)
                   and kernel["numpy_build_seconds"] > 0.0
                   and isinstance(kernel.get("numpy_sweep_seconds"), float)
                   and kernel["numpy_sweep_seconds"] > 0.0,
                   "measured kernel block needs positive numpy timings "
                   "and speedups")
            expect(kernel.get("parity") is True,
                   "kernel parity must be true — the numpy flat build "
                   "diverged from the python oracle")
            expect(payload.get("kernel_speedup")
                   == kernel.get("kernel_speedup"),
                   "top-level kernel_speedup disagrees with the kernel "
                   "block")
        else:
            expect(payload.get("kernel_speedup") is None,
                   "kernel_speedup must be null when the kernel block "
                   "was not measured")
    expect(payload.get("default_ok") is True,
           "default_ok must be true — the default build_ct_graph call "
           f"was more than {ROUTING_SLACK}x slower than the oracle")
    results = payload.get("results")
    if isinstance(results, list) and results:
        if isinstance(workload, dict):
            expect(len(results) == len(workload.get("durations") or ()),
                   "results length disagrees with workload.durations")
        for entry in results:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("duration"), int)
                    and entry["duration"] > 0
                    and isinstance(entry.get("reference_seconds"), float)
                    and entry["reference_seconds"] > 0.0
                    and isinstance(entry.get("compact_seconds"), float)
                    and entry["compact_seconds"] > 0.0
                    and isinstance(entry.get("compact_warm_seconds"), float)
                    and entry["compact_warm_seconds"] > 0.0
                    and isinstance(entry.get("flat_seconds"), float)
                    and entry["flat_seconds"] > 0.0
                    and entry.get("backend") in ("python", "numpy")
                    and entry.get("identical_output") is True
                    and entry.get("default_ok") is True):
                problems.append(f"malformed results entry: {entry!r}")
                break
    else:
        problems.append("results must be a non-empty list")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--durations", type=int, nargs="+",
                        default=list(DURATIONS))
    parser.add_argument("--repeats", type=int, default=7,
                        help="best-of-N timing repeats per build")
    parser.add_argument("--backend", choices=BACKENDS, default="auto",
                        help="sweep backend for the flat-build axis "
                             "(the kernel block always compares python "
                             "vs numpy)")
    parser.add_argument("--kernel-duration", type=int,
                        default=KERNEL_DURATION,
                        help="duration of the kernel block's wide "
                             "workload")
    parser.add_argument("--kernel-repeats", type=int, default=3,
                        help="best-of-N builds per backend in the "
                             "kernel block")
    parser.add_argument("--out", default="BENCH_engine.json")
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
                  f"{payload['speedup']:.2f}x cold, "
                  f"{payload['warm_speedup']:.2f}x warm"
                  f"{kernel_text})")
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
              f"reference {entry['reference_seconds'] * 1000:7.1f} ms  "
              f"compact {entry['compact_seconds'] * 1000:7.1f} ms "
              f"({entry['speedup']:.2f}x)  "
              f"warm {entry['compact_warm_seconds'] * 1000:7.1f} ms "
              f"({entry['warm_speedup']:.2f}x)  "
              f"flat[{entry['backend']}] "
              f"{entry['flat_seconds'] * 1000:7.1f} ms")
    kernel = payload["kernel"]
    if kernel["measured"]:
        print(f"kernel ({kernel['width']} locations x "
              f"{kernel['duration']} steps, "
              f"{kernel['edges_per_level']:.0f} edges/level): "
              f"sweep {kernel['python_sweep_seconds'] * 1000:7.1f} ms -> "
              f"{kernel['numpy_sweep_seconds'] * 1000:7.1f} ms "
              f"({kernel['kernel_speedup']:.2f}x), build "
              f"{kernel['python_build_seconds'] * 1000:7.1f} ms -> "
              f"{kernel['numpy_build_seconds'] * 1000:7.1f} ms "
              f"({kernel['build_speedup']:.2f}x), bit-identical")
    else:
        print("kernel: numpy unavailable, block not measured")
    print(f"headline: {payload['speedup']:.2f}x cold / "
          f"{payload['warm_speedup']:.2f}x warm, identical output, "
          f"default call ok")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
