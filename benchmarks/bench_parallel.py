"""Sequential vs. parallel batch cleaning: the repo's perf trajectory.

Unlike the pytest-benchmark figures, this bench emits a machine-readable
``BENCH_parallel.json`` so successive commits can be compared: it cleans
the same multi-object workload once sequentially (``workers=1``, the
in-process loop) and once through the process pool, records both
wall-clocks, the speedup, and per-object stats, and asserts the two runs
produced probability-identical graphs.

Usage::

    python benchmarks/bench_parallel.py                      # full workload
    python benchmarks/bench_parallel.py --smoke              # CI-sized
    python benchmarks/bench_parallel.py --smoke --inject-crash
    python benchmarks/bench_parallel.py --check BENCH_parallel.json

``--check`` validates an existing result file against the schema and exits
non-zero on problems — that (and only that) is what CI asserts: speedup is
hardware (a single-core container cannot beat sequential; the file records
``cpu_count`` so readers can judge the number).

``--inject-crash`` / ``--inject-timeout`` append deliberately faulty
objects (a worker-killing ``CrashingSequence``, a deadline-busting
``SlowSequence``) to the *parallel* run only, and the payload additionally
records that each fault was quarantined as exactly one failed outcome of
the right ``error_type`` while every real object stayed bit-identical to
the sequential run — the fault-tolerance contract of ``docs/runtime.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

from repro.core.constraints import (
    ConstraintSet,
    Latency,
    TravelingTime,
    Unreachable,
)
from repro.core.lsequence import LSequence
from repro.runtime import clean_many
from repro.runtime.faults import CrashingSequence, SlowSequence

SCHEMA_VERSION = 1

#: Wall-clock budget per object when ``--inject-timeout`` runs, and how
#: long the injected straggler sleeps (comfortably past the budget).
INJECT_TIMEOUT_SECONDS = 2.0
INJECT_SLEEP_SECONDS = 60.0

#: The same constraint shape as ``bench_scaling`` — DU + LT + TT all bind.
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


def make_workload(objects: int, duration: int) -> List[LSequence]:
    """``objects`` synthetic l-sequences with rotated phase offsets, so the
    objects are equally heavy but not byte-identical."""
    workload = []
    for index in range(objects):
        rows = [_PHASES[(tau + index) % len(_PHASES)]
                for tau in range(duration)]
        workload.append(LSequence(rows))
    return workload


def _graphs_identical(left, right) -> bool:
    """Exact (bitwise) equality of two cleaned graphs: every column and
    float (``FlatCTGraph`` equality ignores only the stats timings)."""
    return left == right


def run(objects: int, duration: int, workers: int,
        chunk_size: Optional[int], inject_crash: bool = False,
        inject_timeout: bool = False) -> Dict[str, object]:
    workload = make_workload(objects, duration)

    sequential = clean_many(workload, CONSTRAINTS, workers=1)

    # Fault injection: the faulty objects ride along in the parallel run
    # only (a CrashingSequence in the sequential in-process loop would
    # kill the benchmark itself — which is the point of the pool).
    injected: List[Dict[str, object]] = []
    parallel_workload: List[object] = list(workload)
    timeout_seconds = None
    if inject_crash:
        injected.append({"expected_error_type": "WorkerCrashError"})
        parallel_workload.append(CrashingSequence())
    if inject_timeout:
        timeout_seconds = INJECT_TIMEOUT_SECONDS
        injected.append({"expected_error_type": "CleaningTimeoutError"})
        parallel_workload.append(SlowSequence(
            [{"A": 1.0}, {"B": 1.0}], seconds=INJECT_SLEEP_SECONDS))
    if injected:
        workers = max(2, workers)

    parallel = clean_many(parallel_workload, CONSTRAINTS, workers=workers,
                          chunk_size=chunk_size,
                          timeout_seconds=timeout_seconds, max_retries=1)

    # zip() stops at the sequential run, so injected tail objects are
    # excluded from the identity check and the (real-object) failure count.
    identical = all(
        (not s.ok and not p.ok) or (s.ok and p.ok
                                    and _graphs_identical(s.graph, p.graph))
        for s, p in zip(sequential, parallel))
    failures = len(sequential.failures) + sum(
        1 for s, p in zip(sequential, parallel) if not p.ok)
    for expectation, outcome in zip(injected, list(parallel)[objects:]):
        expectation["index"] = outcome.index
        expectation["error_type"] = outcome.error_type
        expectation["ok"] = outcome.ok

    per_object = []
    for s, p in zip(sequential, parallel):
        per_object.append({
            "index": s.index,
            "duration": duration,
            "nodes": s.graph.num_nodes if s.ok else None,
            "edges": s.graph.num_edges if s.ok else None,
            "sequential_seconds": s.seconds,
            "parallel_seconds": p.seconds,
        })

    return {
        "benchmark": "bench_parallel",
        "schema_version": SCHEMA_VERSION,
        "created_unix": time.time(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "objects": objects,
            "duration": duration,
            "generator": "synthetic-phase4",
            "constraints": [str(c) for c in CONSTRAINTS],
        },
        "sequential": {
            "workers": 1,
            "wall_seconds": sequential.wall_seconds,
            "compute_seconds": sequential.compute_seconds,
        },
        "parallel": {
            "workers": parallel.workers,
            "chunk_size": parallel.chunk_size,
            "wall_seconds": parallel.wall_seconds,
            "compute_seconds": parallel.compute_seconds,
            "respawns": parallel.respawns,
        },
        "speedup": sequential.wall_seconds / parallel.wall_seconds,
        "identical_output": identical,
        "failures": failures,
        "per_object": per_object,
        **({"fault_injection": {
            "inject_crash": inject_crash,
            "inject_timeout": inject_timeout,
            "timeout_seconds": timeout_seconds,
            "respawns": parallel.respawns,
            "injected": injected,
        }} if injected else {}),
    }


def validate_payload(payload: Dict[str, object]) -> List[str]:
    """Schema check of a ``BENCH_parallel.json`` payload; [] when valid."""
    problems: List[str] = []

    def expect(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    expect(payload.get("benchmark") == "bench_parallel",
           "benchmark name missing or wrong")
    expect(payload.get("schema_version") == SCHEMA_VERSION,
           f"schema_version must be {SCHEMA_VERSION}")
    expect(isinstance(payload.get("cpu_count"), int),
           "cpu_count must be an int")
    workload = payload.get("workload")
    expect(isinstance(workload, dict)
           and isinstance(workload.get("objects"), int)
           and workload["objects"] > 0
           and isinstance(workload.get("duration"), int)
           and isinstance(workload.get("constraints"), list),
           "workload must describe objects/duration/constraints")
    for side in ("sequential", "parallel"):
        timing = payload.get(side)
        if not isinstance(timing, dict):
            problems.append(f"{side} timing block missing")
            continue
        expect(isinstance(timing.get("workers"), int)
               and timing["workers"] >= 1, f"{side}.workers must be >= 1")
        expect(isinstance(timing.get("wall_seconds"), float)
               and timing["wall_seconds"] > 0.0,
               f"{side}.wall_seconds must be a positive float")
    expect(isinstance(payload.get("speedup"), float)
           and payload["speedup"] > 0.0,
           "speedup must be a positive float")
    expect(payload.get("identical_output") is True,
           "identical_output must be true — parallel cleaning changed "
           "the results")
    expect(payload.get("failures") == 0, "workload objects failed to clean")
    per_object = payload.get("per_object")
    if isinstance(per_object, list) and isinstance(workload, dict):
        expect(len(per_object) == workload.get("objects"),
               "per_object length disagrees with workload.objects")
        for entry in per_object:
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("index"), int)
                    and isinstance(entry.get("sequential_seconds"), float)
                    and isinstance(entry.get("parallel_seconds"), float)):
                problems.append(f"malformed per_object entry: {entry!r}")
                break
    else:
        problems.append("per_object must be a list")
    fault = payload.get("fault_injection")
    if fault is not None:
        if not isinstance(fault, dict):
            problems.append("fault_injection must be an object")
        else:
            injected = fault.get("injected")
            if not (isinstance(injected, list) and injected):
                problems.append("fault_injection.injected must be a "
                                "non-empty list")
            else:
                for entry in injected:
                    expected = entry.get("expected_error_type")
                    if entry.get("ok") is not False \
                            or entry.get("error_type") != expected:
                        problems.append(
                            "injected fault was not quarantined as "
                            f"{expected}: {entry!r}")
    return problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=12)
    parser.add_argument("--duration", type=int, default=600,
                        help="timesteps per object")
    parser.add_argument("--workers", type=int,
                        default=min(4, os.cpu_count() or 1))
    parser.add_argument("--chunk-size", type=int, default=None)
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI workload (4 objects x 60 steps, "
                             "2 workers)")
    parser.add_argument("--inject-crash", action="store_true",
                        help="append a worker-killing object to the "
                             "parallel run and record its quarantine")
    parser.add_argument("--inject-timeout", action="store_true",
                        help="append a deadline-busting object to the "
                             "parallel run (enables --timeout machinery)")
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
            print(f"{args.check}: well-formed (speedup "
                  f"{payload['speedup']:.2f}x on "
                  f"{payload['cpu_count']} CPUs)")
        return 1 if problems else 0

    if args.smoke:
        args.objects, args.duration, args.workers = 4, 60, 2

    payload = run(args.objects, args.duration, args.workers, args.chunk_size,
                  inject_crash=args.inject_crash,
                  inject_timeout=args.inject_timeout)
    problems = validate_payload(payload)
    if problems:
        for problem in problems:
            print(f"SELF-CHECK: {problem}", file=sys.stderr)
        return 1
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    seq = payload["sequential"]["wall_seconds"]
    par = payload["parallel"]["wall_seconds"]
    print(f"objects={args.objects} duration={args.duration} "
          f"workers={payload['parallel']['workers']}")
    print(f"sequential {seq:.3f}s  parallel {par:.3f}s  "
          f"speedup {payload['speedup']:.2f}x "
          f"(cpu_count={payload['cpu_count']})")
    fault = payload.get("fault_injection")
    if fault:
        quarantined = ", ".join(
            f"#{entry['index']} {entry['error_type']}"
            for entry in fault["injected"])
        print(f"fault injection: {quarantined} quarantined "
              f"(pool respawns: {fault['respawns']}); "
              "surviving objects identical to sequential")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
