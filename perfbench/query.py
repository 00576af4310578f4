"""query-syn1: a closed loop of one client querying stored SYN1 graphs.

Set-up cleans the SYN1 reference objects into a ``GraphStore``.  Each
request then picks a stored graph by a Zipf draw (a few graphs are hot),
opens it memory-mapped, builds a fresh ``QuerySession`` and answers one
statement of the QL mix through ``repro.queries.ql.execute``.
"""

from __future__ import annotations

import collections
import random
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from common import (
    build_deployment,
    deployment_sizes,
    fresh_dir,
    HostSpeed,
    quantile,
    repeated_setup,
)

DURATIONS = (40, 80, 120)
PER_DURATION = 16
#: Zipf exponent of the graph popularity.
ZIPF_S = 1.0
#: Every statement kind of the QL, each a tenth of the requests.
KINDS = ("STAY", "ENTROPY", "EXPECTED", "VISIT", "FIRST", "SPAN", "MATCH",
         "BEST", "TOP", "DWELL")
#: Every CHECK_EVERY-th request is re-answered on the in-memory graph.
CHECK_EVERY = 16
#: Requests in the traced replay and its untraced twin.
TRACE_REQUESTS = 400


class Archive:
    """The stored graphs and what a request generator needs to know."""

    def __init__(self, store) -> None:
        self.store = store
        self.keys: List[str] = []
        #: Per graph, the location names present at each timestep.
        self.levels: List[Tuple[Tuple[str, ...], ...]] = []
        self.nodes = self.edges = 0


def build_archive() -> Tuple[object, Archive]:
    from repro import GraphStore, clean_many

    deployment = build_deployment(DURATIONS, PER_DURATION)
    store = GraphStore(fresh_dir("query-store"))
    result = clean_many([obj.readings for obj in deployment.objects],
                        deployment.constraints,
                        prior=deployment.dataset.prior, store=store,
                        workers=None)
    archive = Archive(store)
    for outcome in result:
        if not outcome.ok:
            raise RuntimeError(f"object {outcome.index} failed to clean: "
                               f"{outcome.error_type}: {outcome.error}")
        graph = outcome.graph
        archive.keys.append(Path(outcome.ctg_path).stem)
        archive.levels.append(tuple(graph.locations_at(tau)
                                    for tau in range(graph.duration)))
        archive.nodes += graph.num_nodes
        archive.edges += graph.num_edges
        graph.close()
    return deployment, archive


def setup(speed: HostSpeed):
    return repeated_setup(build_archive, speed)


class Requests:
    """Seeded request stream: ``(graph index, statement)`` pairs.

    Popularity is fixed: ranks alternate between the duration classes, so
    the hot graphs span every length and do not change with the seed (a
    graph's query cost varies several fold with its width).  Statement
    kinds come in blocks holding each kind once, so the mix is exact.  The
    seed drives the draws, the order within each block and the arguments.
    """

    def __init__(self, archive: Archive, seed: int) -> None:
        self.rng = random.Random(seed)
        self.levels = archive.levels
        classes = [range(start, start + PER_DURATION)
                   for start in range(0, len(archive.keys), PER_DURATION)]
        self.order = [index for rank in zip(*classes) for index in rank]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S
                        for rank in range(len(self.order))]
        self.kinds: List[str] = []

    def next(self) -> Tuple[int, str]:
        rng = self.rng
        if not self.kinds:
            self.kinds = rng.sample(KINDS, len(KINDS))
        kind = self.kinds.pop()
        index = rng.choices(self.order, self.weights)[0]
        levels = self.levels[index]
        tau = rng.randrange(len(levels))
        location = rng.choice(levels[tau])
        if kind == "STAY":
            return index, f"STAY {tau}"
        if kind in ("VISIT", "FIRST", "DWELL"):
            return index, f"{kind} {location}"
        if kind == "SPAN":
            end = min(len(levels) - 1, tau + rng.randrange(1, 8))
            return index, f"SPAN {location} {tau} {end}"
        if kind == "MATCH":
            return index, f"MATCH ? {location}[2] ?"
        if kind == "TOP":
            return index, f"TOP {rng.choice((3, 5))}"
        return index, kind


def answer(archive: Archive, index: int, statement: str):
    """One request: open mmap-served, fresh session, one statement."""
    from repro.queries import QuerySession, ql

    graph = archive.store.load(archive.keys[index])
    try:
        return ql.execute(QuerySession(graph), statement)
    finally:
        graph.close()


def reference(archive: Archive, index: int, statement: str):
    """The same request on the materialised in-memory ``FlatCTGraph``."""
    from repro.queries import QuerySession, ql

    with archive.store.load(archive.keys[index]) as graph:
        flat = graph.materialize()
    return ql.execute(QuerySession(flat), statement)


def warm(archive: Archive) -> None:
    """Answer DWELL, the costliest statement, at its costliest argument
    (the location present at the most timesteps) once on every graph.

    One such request can add 30 MB to the process; running each before
    timing makes the run's peak memory independent of whether the seeded
    draw reaches it, and leaves every graph's pages cached.
    """
    for index, levels in enumerate(archive.levels):
        presence = collections.Counter(name for level in levels
                                       for name in level)
        location = min(presence, key=lambda name: (-presence[name], name))
        answer(archive, index, f"DWELL {location}")


def check(archive: Archive, sampled) -> int:
    """Sampled requests whose mmap answer differs from the in-memory one."""
    return sum(1 for index, statement, got in sampled
               if reference(archive, index, statement) != got)


def run(seed: int, seconds: float) -> Dict:
    speed = HostSpeed()
    (deployment, archive), setup_s = setup(speed)
    warm_start = time.perf_counter()
    warm(archive)
    warm_s = time.perf_counter() - warm_start
    requests = Requests(archive, seed)
    timings: List[Tuple[float, float]] = []
    sampled = []
    failed = 0
    loop_start = time.perf_counter()
    while time.perf_counter() - loop_start < seconds:
        index, statement = requests.next()
        begin = time.perf_counter()
        try:
            result = answer(archive, index, statement)
        except Exception:  # a failed request is counted, not fatal
            traceback.print_exc()
            failed += 1
            result = None
        ended = time.perf_counter()
        speed.sample()
        timings.append((ended, ended - begin))
        if result is not None and len(timings) % CHECK_EVERY == 0:
            sampled.append((index, statement, result))
    failed += check(archive, sampled)
    latencies = [1e3 * elapsed * speed.scale(ended)
                 for ended, elapsed in timings]
    return {
        "attempted": len(latencies),
        "failed": failed,
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / (1e-3 * sum(latencies)),
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_tail_ms": quantile(latencies, 0.9),
        "samples": len(latencies),
        "names": {"throughput_per_s": "queries_per_s",
                  "latency_p50_ms": "query_p50_ms",
                  "latency_tail_ms": "query_p90_ms"},
        "extra": {"checked": len(sampled), "warm_s": warm_s,
                  "host_scale": speed.median_scale()},
        "sizes": {**deployment_sizes(deployment),
                  **store_sizes(archive)},
    }


def store_sizes(archive: Archive) -> Dict[str, object]:
    paths = [archive.store.path_for(key) for key in archive.keys]
    timesteps = sum(len(levels) for levels in archive.levels)
    return {"graphs": len(paths), "nodes": archive.nodes,
            "edges": archive.edges,
            "mean_level_edges": archive.edges / timesteps,
            "ctg_bytes": sum(path.stat().st_size for path in paths)}


def trace(seed: int, seconds: float, tracer) -> Dict:
    from repro.queries import QuerySession, ql
    from tracing import setup_patches, query_patches

    with tracer.patched(setup_patches()):
        deployment, archive = build_archive()
    requests = Requests(archive, seed)
    plan = [requests.next() for _ in range(TRACE_REQUESTS)]

    # Untraced twin; the session and statement are also timed apart from
    # the open, for the mmap penalty.
    queried = 0.0
    started = time.perf_counter()
    answers = []
    for index, statement in plan:
        graph = archive.store.load(archive.keys[index])
        begin = time.perf_counter()
        answers.append(ql.execute(QuerySession(graph), statement))
        queried += time.perf_counter() - begin
        graph.close()
    untraced_wall = time.perf_counter() - started

    flats = {}
    for index in {index for index, _ in plan}:
        with archive.store.load(archive.keys[index]) as graph:
            flats[index] = graph.materialize()
    begin = time.perf_counter()
    in_memory = [ql.execute(QuerySession(flats[index]), statement)
                 for index, statement in plan]
    in_memory_s = time.perf_counter() - begin

    wall_before = tracer.wall
    with tracer.patched(query_patches()):
        for request, (index, statement) in enumerate(plan):
            tracer.request = request
            tracer.call("query.request", answer, archive, index, statement)
        tracer.request = None
    traced_wall = tracer.wall - wall_before

    self_s, _ = tracer.self_times()
    metrics = {
        "store.open_s": self_s.get("store.open", 0.0),
        "queries.session_s": self_s.get("queries.session", 0.0),
        "store.mmap_query_penalty": queried / in_memory_s,
        "trace.overhead": traced_wall / untraced_wall,
    }
    for kind in KINDS:
        metrics[f"queries.stmt.{kind}_s"] = self_s.get(
            f"queries.stmt.{kind}", 0.0)
    return {
        "attempted": 2 * len(plan),
        "failed": sum(1 for got, want in zip(answers, in_memory)
                      if got != want),
        "metrics": metrics,
        "sizes": {**deployment_sizes(deployment), **store_sizes(archive),
                  "traced_requests": len(plan)},
    }
