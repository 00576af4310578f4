"""archive-syn1: batch cleaning of SYN1 objects into a GraphStore.

Each pass is one ``clean_many`` call over every object, with default
``CleaningOptions``, ``workers=None`` (one worker per core, the
``clean-many`` default) and a fresh ``GraphStore``, so no pass is served
from the cache.  Passes repeat until ``--seconds`` of cleaning is measured;
throughput and the per-object latency percentiles are the median pass's.
"""

from __future__ import annotations

import math
import random
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from common import (
    build_deployment,
    deployment_sizes,
    fresh_dir,
    HostSpeed,
    quantile,
    repeated_setup,
)

#: Short objects expose per-object overhead; long ones let the sweep dominate.
#: The per-object latency median falls inside the 60-step class and the
#: 90th percentile inside the 250-step class.
DURATIONS = (20, 40, 60, 80, 250)
PER_DURATION = 10
#: Objects whose default-path prefix is checked against enumeration.
NAIVE_SAMPLE = 3
NAIVE_MAX_PREFIX = 12
NAIVE_MAX_TRAJECTORIES = 20_000
MASS_TOLERANCE = 1e-9


def setup(speed: HostSpeed):
    return repeated_setup(lambda: build_deployment(DURATIONS, PER_DURATION),
                          speed)


def ordered(deployment, rng: random.Random) -> List:
    """Shortest durations first, as ``rfid-ctg clean-many`` submits them;
    ``rng`` orders objects of equal duration (it decides the chunks)."""
    objects = []
    for duration in deployment.dataset.durations:
        group = list(deployment.dataset.trajectories[duration])
        rng.shuffle(group)
        objects.extend(group)
    return objects


def clean_pass(deployment, objects: Sequence, store_dir: Path,
               workers):
    from repro import GraphStore, clean_many

    return clean_many([obj.readings for obj in objects],
                      deployment.constraints,
                      prior=deployment.dataset.prior,
                      store=GraphStore(store_dir), workers=workers)


def check_pass(result) -> Tuple[List[int], Dict[str, int]]:
    """Failed object indexes; every stored graph is re-read with CRC
    verification and must carry unit source mass."""
    from repro import load_ctg

    failed: List[int] = []
    sizes = {"nodes": 0, "edges": 0, "ctg_bytes": 0}
    for outcome in result:
        if not outcome.ok:
            failed.append(outcome.index)
            continue
        sizes["nodes"] += outcome.graph.num_nodes
        sizes["edges"] += outcome.graph.num_edges
        sizes["ctg_bytes"] += Path(outcome.ctg_path).stat().st_size
        outcome.graph.close()
        with load_ctg(outcome.ctg_path, verify=True) as graph:
            mass = math.fsum(graph.source_probabilities)
        if abs(mass - 1.0) > MASS_TOLERANCE:
            failed.append(outcome.index)
    return failed, sizes


def naive_check(deployment, seed: int) -> int:
    """Objects whose short prefix, cleaned by the default path, disagrees
    with enumeration (``NaiveConditioner``) on any stay marginal."""
    from repro import LSequence, NaiveConditioner, build_ct_graph
    from repro.queries import QuerySession

    prior = deployment.dataset.prior
    objects = deployment.objects
    picks = random.Random(seed).sample(range(len(objects)), NAIVE_SAMPLE)
    failed = 0
    for index in picks:
        full = LSequence.from_readings(objects[index].readings, prior)
        rows = []
        for tau in range(min(NAIVE_MAX_PREFIX, full.duration)):
            candidate = LSequence(rows + [full.candidates(tau)])
            if candidate.num_trajectories() > NAIVE_MAX_TRAJECTORIES:
                break
            rows.append(full.candidates(tau))
        prefix = LSequence(rows)
        session = QuerySession(build_ct_graph(prefix, deployment.constraints))
        oracle = NaiveConditioner(prefix, deployment.constraints)
        for tau in range(prefix.duration):
            got = session.location_marginal(tau)
            want = oracle.location_marginal(tau)
            if set(got) != set(want) or any(
                    abs(got[name] - want[name]) > MASS_TOLERANCE
                    for name in want):
                failed += 1
                break
    return failed


def run(seed: int, seconds: float) -> Dict:
    speed = HostSpeed()
    deployment, setup_s = setup(speed)
    rng = random.Random(seed)
    steps = sum(obj.duration for obj in deployment.objects)
    walls: List[float] = []
    scaled: List[float] = []
    p50s: List[float] = []
    p90s: List[float] = []
    attempted = failed = 0
    sizes: Dict[str, int] = {}
    while not walls or sum(walls) < seconds:
        store_dir = fresh_dir(f"archive-pass-{len(walls)}")
        objects = ordered(deployment, rng)
        with speed.during() as first:
            started = time.perf_counter()
            result = clean_pass(deployment, objects, store_dir, None)
            ended = time.perf_counter()
        scale = speed.scale_since(first)
        walls.append(ended - started)
        scaled.append(scale * (ended - started))
        latencies = [1e3 * scale * outcome.seconds for outcome in result]
        p50s.append(quantile(latencies, 0.5))
        p90s.append(quantile(latencies, 0.9))
        bad, sizes = check_pass(result)
        attempted += len(result)
        failed += len(bad)
        shutil.rmtree(store_dir)
    failed += naive_check(deployment, seed)
    # Every pass cleans the same objects: the median pass gives the run's
    # throughput and object latencies, unmoved by a pass the host slowed.
    typical = statistics.median(scaled)
    return {
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "throughput_per_s": steps / typical,
        "latency_p50_ms": statistics.median(p50s),
        "latency_tail_ms": statistics.median(p90s),
        "samples": attempted,
        "names": {"throughput_per_s": "clean_steps_per_s",
                  "latency_p50_ms": "object_p50_ms",
                  "latency_tail_ms": "object_p90_ms"},
        "extra": {"passes": len(walls),
                  "edges_per_s": sizes["edges"] / typical,
                  "host_scale": speed.median_scale()},
        "sizes": {**deployment_sizes(deployment), **sizes,
                  "mean_level_edges": sizes["edges"] / steps},
    }


def trace(seed: int, seconds: float, tracer) -> Dict:
    """Per-layer ledger; the cleaning passes run on every other object."""
    from tracing import cleaning_patches, setup_patches

    with tracer.patched(setup_patches()):
        deployment = build_deployment(DURATIONS, PER_DURATION)
    objects = ordered(deployment, random.Random(seed))[::2]
    steps = sum(obj.duration for obj in objects)

    parallel_dir = fresh_dir("archive-parallel")
    parallel = clean_pass(deployment, objects, parallel_dir, None)
    bad_parallel, _ = check_pass(parallel)
    shutil.rmtree(parallel_dir)

    # Warm this process (lazy imports, prior cache) before the timed pair.
    warm_dir = fresh_dir("archive-warm")
    shortest = sorted(objects, key=lambda obj: obj.duration)
    check_pass(clean_pass(deployment, shortest[:PER_DURATION // 2],
                          warm_dir, 1))
    shutil.rmtree(warm_dir)

    serial_dir = fresh_dir("archive-serial")
    started = time.perf_counter()
    serial = clean_pass(deployment, objects, serial_dir, 1)
    serial_wall = time.perf_counter() - started
    bad_serial, _ = check_pass(serial)
    shutil.rmtree(serial_dir)

    traced_dir = fresh_dir("archive-traced")
    wall_before = tracer.wall
    with tracer.patched(cleaning_patches()):
        traced = tracer.call("runtime.batch.clean_many", clean_pass,
                             deployment, objects, traced_dir, 1)
    traced_wall = tracer.wall - wall_before
    bad_traced, sizes = check_pass(traced)
    shutil.rmtree(traced_dir)

    self_s, calls = tracer.self_times()
    return {
        "attempted": 3 * len(objects),
        "failed": len(bad_parallel) + len(bad_serial) + len(bad_traced),
        "metrics": {
            "core.lsequence.from_readings_s":
                self_s.get("core.lsequence.from_readings", 0.0),
            "analysis.advise_s": self_s.get("analysis.advise", 0.0),
            "analysis.advise_calls": calls.get("analysis.advise", 0),
            "core.engine.build_s": self_s.get("core.engine.build", 0.0),
            "core.engine.nodes": sizes["nodes"],
            "core.engine.edges": sizes["edges"],
            "store.write_s": self_s.get("store.write", 0.0),
            "store.bytes_written": sizes["ctg_bytes"],
            "store.load_s": self_s.get("store.load", 0.0),
            "store.loads_per_object":
                calls.get("store.load", 0) / len(objects),
            "runtime.batch.compute_s": parallel.compute_seconds,
            "runtime.batch.wall_s": parallel.wall_seconds,
            "runtime.batch.parallel_efficiency":
                parallel.compute_seconds
                / (parallel.wall_seconds * parallel.workers),
            "runtime.batch.serial_steps_per_s": steps / serial_wall,
            "trace.overhead": traced_wall / serial_wall,
        },
        "sizes": {**deployment_sizes(deployment), **sizes,
                  "traced_objects": len(objects),
                  "mean_level_edges": sizes["edges"] / steps},
    }
