"""serve-syn1: an open loop feeding a live SYN1 fleet to ``ServeEngine``.

Set-up turns each object's readings into candidate rows through the prior
and interleaves the fleet by timestamp.  The loop then offers the rows at
``RATE`` readings per second to ``ServeEngine.process`` over a
``StreamSessionManager`` with the ``rfid-ctg serve`` defaults (python
backend, window 64), a checkpoint directory, periodic checkpoints and an
estimate per reading.  Latency counts from each reading's due time.
"""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import time
from typing import Dict, List, Optional, Tuple

from common import (
    build_deployment,
    deployment_sizes,
    fresh_dir,
    HostSpeed,
    quantile,
    repeated_setup,
    WORK,
)

FLEET = 10
DURATION = 90
CHECKPOINT_EVERY = 5
#: Object ``i`` enters ``i * CHECKPOINT_EVERY // FLEET`` ticks late, which
#: spreads the periodic checkpoints evenly over time.
OFFSETS = tuple(number * CHECKPOINT_EVERY // FLEET for number in range(FLEET))
#: Readings served before measuring, so the sessions are mature.
WARM_READINGS = FLEET * 20
#: Offered readings per second, a fifth of the ~25/s one process sustains
#: on this fleet (2-core x86 VM), so most readings find the engine idle and
#: queueing stays behind the slowest checkpoints.  In 20 s a run offers
#: 2 * FLEET * CHECKPOINT_EVERY readings: every object checkpoints twice,
#: so a fifth of the readings checkpoint and the tail percentile falls
#: among them.
RATE = 5.0
#: The latency tail: the highest percentile with ten samples beyond it.
TAIL = 0.9
#: Objects whose final estimates are replayed through IncrementalCleaner.
REPLAY_OBJECTS = 3
TOLERANCE = 1e-9
#: Idle time before a due reading that leaves room for a reference sample.
SAMPLE_SLACK_S = 0.005

Row = Tuple[str, Dict[str, float]]


def build_stream(seed: int) -> Tuple[object, List[Row]]:
    """The fleet's candidate rows, interleaved by timestamp; ``seed``
    shuffles the order in which each tick's readings arrive."""
    from repro import LSequence

    deployment = build_deployment((DURATION,), FLEET)
    prior = deployment.dataset.prior
    per_object = [LSequence.from_readings(obj.readings, prior)
                  for obj in deployment.objects]
    rng = random.Random(seed)
    stream: List[Row] = []
    for tick in range(DURATION + max(OFFSETS)):
        arrivals = [(f"tag-{number:03d}", lsequence.candidates(tick - offset))
                    for number, (lsequence, offset)
                    in enumerate(zip(per_object, OFFSETS))
                    if 0 <= tick - offset < DURATION]
        rng.shuffle(arrivals)
        stream.extend(arrivals)
    return deployment, stream


def setup(seed: int, speed: HostSpeed):
    return repeated_setup(lambda: build_stream(seed), speed)


def make_engine(deployment, checkpoint_dir):
    from repro import CleaningOptions, StreamSessionManager
    from repro.runtime.shards import ServeEngine

    manager = StreamSessionManager(
        deployment.constraints, options=CleaningOptions(backend="python"),
        checkpoint_dir=checkpoint_dir, checkpoint_every=CHECKPOINT_EVERY)
    return ServeEngine(manager, estimate_every=1)


class Feeder:
    """Feeds rows to ``process`` and accounts for every reading."""

    def __init__(self, engine, process=None, sleep=time.sleep) -> None:
        self.engine = engine
        self.process = process or engine.process
        self.sleep = sleep
        self.latencies: List[float] = []
        #: Per open-loop reading: when it was answered, seconds in process.
        self.ends: List[float] = []
        self.service: List[float] = []
        self.lateness: List[float] = []
        self.busy = 0.0
        self.backlog_max = 0
        self.frontiers: List[int] = []
        self.fed: Dict[str, List[Dict[str, float]]] = {}
        self.ingested = self.dropped = self.unaccounted = 0

    def feed(self, object_id: str, candidates: Dict[str, float]) -> float:
        """Process one reading; the seconds it took."""
        begin = time.perf_counter()
        ingested, out, _ = self.process(object_id, candidates)
        took = time.perf_counter() - begin
        self.busy += took
        if ingested:
            self.ingested += 1
            self.fed.setdefault(object_id, []).append(candidates)
        elif len(out) == 1 and '"dropped"' in out[0]:
            self.dropped += 1
        else:
            self.unaccounted += 1
        return took

    def closed(self, rows: List[Row]) -> None:
        """Feed ``rows`` back to back (the fleet's history before timing)."""
        for object_id, candidates in rows:
            self.feed(object_id, candidates)

    def open(self, rows: List[Row], speed: Optional[HostSpeed] = None) -> None:
        """Offer ``rows`` at ``RATE``; latency counts from each due time.
        With ``speed``, a reference sample runs in idle time before each
        reading that leaves room for one."""
        sessions = self.engine.manager
        clock = time.perf_counter
        start = clock()
        for number, (object_id, candidates) in enumerate(rows):
            due = start + number / RATE
            now = clock()
            if speed is not None and due - now > SAMPLE_SLACK_S:
                speed.sample()
                now = clock()
            if now < due:
                self.sleep(due - now)
                now = clock()
            self.backlog_max = max(self.backlog_max,
                                   int((now - start) * RATE) - number)
            took = self.feed(object_id, candidates)
            end = clock()
            self.lateness.append(1e3 * (now - due))
            self.latencies.append(1e3 * (end - due))
            self.ends.append(end)
            self.service.append(took)
            self.frontiers.append(
                sessions.session(object_id).frontier_size())


def replay_check(deployment, engine, fed, seed: int) -> Tuple[int, int]:
    """``(objects checked, readings of objects whose final estimate
    differs from a python-backend IncrementalCleaner replay)``."""
    from repro import CleaningOptions, IncrementalCleaner

    picks = random.Random(seed).sample(sorted(fed), REPLAY_OBJECTS)
    failed = 0
    for object_id in picks:
        oracle = IncrementalCleaner(deployment.constraints,
                                    options=CleaningOptions(backend="python"))
        for candidates in fed[object_id]:
            oracle.extend(candidates)
        want = oracle.filtered_distribution()
        got = engine.manager.session(object_id).filtered_distribution()
        if set(got) != set(want) or any(
                abs(got[name] - want[name]) > TOLERANCE for name in want):
            failed += len(fed[object_id])
    return len(picks), failed


def run(seed: int, seconds: float) -> Dict:
    speed = HostSpeed()
    (deployment, stream), setup_s = setup(seed, speed)
    warm = stream[:WARM_READINGS]
    checkpoints = fresh_dir("serve-checkpoints")
    engine = make_engine(deployment, checkpoints)
    loop = Feeder(engine)
    warm_start = time.perf_counter()
    loop.closed(warm)
    warm_s = time.perf_counter() - warm_start
    ingested = loop.ingested
    rows = stream[len(warm):len(warm) + int(RATE * seconds)]
    loop.open(rows, speed)
    checked, wrong = replay_check(deployment, engine, loop.fed, seed)
    scales = [speed.scale(end) for end in loop.ends]
    latencies = [scale * latency
                 for scale, latency in zip(scales, loop.latencies)]
    busy = sum(scale * took for scale, took in zip(scales, loop.service))
    return {
        "attempted": len(warm) + len(rows),
        "failed": loop.unaccounted + wrong,
        "setup_s": setup_s,
        "throughput_per_s": (loop.ingested - ingested) / busy,
        "latency_p50_ms": quantile(latencies, 0.5),
        "latency_tail_ms": quantile(latencies, TAIL),
        "samples": len(rows),
        "names": {"throughput_per_s": "serve_readings_per_s",
                  "latency_p50_ms": "serve_p50_ms",
                  "latency_tail_ms": "serve_p90_ms"},
        "extra": {"dropped": loop.dropped, "replayed_objects": checked,
                  "backlog_max": loop.backlog_max, "warm_s": warm_s,
                  "host_scale": speed.median_scale()},
        "sizes": {**deployment_sizes(deployment), "readings": len(rows),
                  "fleet": FLEET,
                  "checkpoint_bytes": directory_bytes(checkpoints)},
    }


def directory_bytes(path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*")
               if entry.is_file())


def closed_loop(engine, lines: List[str]
                ) -> Tuple[str, List[float], float]:
    """The single-process serve loop over JSON lines, as ``rfid-ctg serve``
    runs it: ``(stdout text, seconds inside each process call, wall)``."""
    out = io.StringIO()
    busy: List[float] = []
    started = time.perf_counter()
    for line in lines:
        reading = json.loads(line)
        begin = time.perf_counter()
        _, out_lines, _ = engine.process(reading["object"],
                                         reading["candidates"])
        busy.append(time.perf_counter() - begin)
        for out_line in out_lines:
            out.write(out_line + "\n")
    for _, final_line in engine.final_entries():
        out.write(final_line + "\n")
    return out.getvalue(), busy, time.perf_counter() - started


def sharded(deployment, lines: List[str]) -> Tuple[str, float]:
    """The same lines through ``StreamShardPool(2)``: (stdout, wall)."""
    from repro.io import save_constraints
    from repro.runtime.shards import StreamShardPool

    constraints_file = WORK / "serve-constraints.json"
    save_constraints(deployment.constraints, str(constraints_file))
    pool = StreamShardPool(
        2, constraints_file=str(constraints_file), window=64,
        checkpoint_dir=str(fresh_dir("serve-shards")),
        checkpoint_every=CHECKPOINT_EVERY, estimate_every=1,
        backend="python")
    out, err = io.StringIO(), io.StringIO()
    with pool:
        started = time.perf_counter()
        pool.serve(lines, out, err)
        pool.finish(out, err, final_checkpoint=False)
        wall = time.perf_counter() - started
    return out.getvalue(), wall


def trace(seed: int, seconds: float, tracer) -> Dict:
    from tracing import setup_patches, serve_patches

    with tracer.patched(setup_patches()):
        deployment, stream = build_stream(seed)
    warm = stream[:WARM_READINGS]

    checkpoints = fresh_dir("serve-traced")
    with tracer.patched(serve_patches()):
        engine = make_engine(deployment, checkpoints)
        process = tracer.wrap("serve.process", engine.process)
        numbers = itertools.count()

        def traced_process(object_id, candidates):
            tracer.request = next(numbers)
            return process(object_id, candidates)

        loop = Feeder(engine, traced_process,
                      tracer.wrap("serve.idle", time.sleep))
        loop.closed(warm)
        traced_warm = loop.busy
        rows = stream[len(warm):len(warm) + int(RATE * seconds)]
        loop.open(rows)
        tracer.request = None

    # One untraced closed loop over the same readings: its warm-up part is
    # the overhead baseline (the traced warm-up is a closed loop too), and
    # all of it is the single-process side of the shard comparison.
    lines = [json.dumps({"object": object_id, "candidates": candidates})
             for object_id, candidates in warm + rows]
    single_out, single_busy, single_wall = closed_loop(
        make_engine(deployment, fresh_dir("serve-single")), lines)
    notes = {}
    failed = loop.unaccounted
    if (os.cpu_count() or 1) >= 2:
        shard_out, shard_wall = sharded(deployment, lines)
        failed += shard_out != single_out
        shard_rate = len(lines) / shard_wall
        scaling = shard_rate / (len(lines) / single_wall)
    else:
        shard_rate = scaling = 0.0
        reason = "skipped: one core, so two shards cannot run in parallel"
        notes["runtime.shards.readings_per_s"] = reason
        notes["runtime.shards.scaling"] = reason

    self_s, calls = tracer.self_times()
    return {
        "attempted": 2 * len(lines),
        "failed": failed,
        "notes": notes,
        "metrics": {
            "streaming.extend_s": self_s.get("streaming.extend", 0.0),
            "streaming.estimate_s": self_s.get("streaming.estimate", 0.0),
            "streaming.frontier_states_p50": quantile(loop.frontiers, 0.5),
            "streaming.frontier_states_max": max(loop.frontiers),
            "runtime.sessions.checkpoint_s":
                self_s.get("runtime.sessions.checkpoint", 0.0),
            "runtime.sessions.checkpoints":
                calls.get("runtime.sessions.checkpoint", 0),
            "store.checkpoint_bytes": directory_bytes(checkpoints),
            "runtime.serve.self_s": self_s.get("serve.process", 0.0),
            "serve.backlog_max": loop.backlog_max,
            "serve.lateness_ms": quantile(loop.lateness, TAIL),
            "runtime.shards.readings_per_s": shard_rate,
            "runtime.shards.scaling": scaling,
            "trace.overhead": traced_warm / sum(single_busy[:len(warm)]),
        },
        "sizes": {**deployment_sizes(deployment), "readings": len(lines),
                  "fleet": FLEET},
    }
