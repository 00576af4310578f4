"""Shared pieces of the SYN1 benchmark: the deployment, statistics, provenance.

Every workload starts from the same set-up: the paper's SYN1 building,
deployed and calibrated by ``build_dataset`` with its monitored objects,
plus the inferred DU/LT/TT constraint set that ``rfid-ctg`` uses by default.
"""

from __future__ import annotations

import bisect
import contextlib
import ctypes
import gc
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple, TypeVar

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for stores, checkpoints and trace files (git-ignored).
WORK = ROOT / ".perfbench_work"

#: ``syn1_dataset``'s seed: the deployment and objects every workload uses.
REFERENCE_SEED = 17
#: How many times a run repeats its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Loop iterations of one reference sample, about half a millisecond.
REFERENCE_ITERATIONS = 1200
#: A reference sample's duration on the nominal host that every timing
#: is scaled to: about what it takes on a 2-core x86 VM in its slower
#: phases, between readings of the serve loop.
REFERENCE_NOMINAL_S = 0.00045
#: Reference samples on each side of a timing that set its scale.
REFERENCE_NEAR = 50
#: Seconds between reference samples taken while other processes work.
REFERENCE_PERIOD_S = 0.05

T = TypeVar("T")


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad arguments)."""


def import_repro():
    """Import the ``repro`` package from this checkout's ``src/``.

    Refuses any other copy: a benchmark of an installed package would
    measure the wrong code.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {src}")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise BenchmarkError(f"imported repro from {repro.__file__}, "
                             f"not from {src}")
    return repro


def adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux).

    A process the run starts whose parent exits first is re-parented to
    this process instead of to init, so :func:`stop_children` can still
    wait for it.  Elsewhere this does nothing.
    """
    if sys.platform.startswith("linux"):
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER


def child_pids() -> List[int]:
    """Live and zombie children of this process, from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Worker pools and shard workers are reaped by the code that starts
    them, but a ``spawn``-context queue also starts multiprocessing's
    resource tracker, which would otherwise outlive the run by a moment.
    Anything still alive after that is terminated, then killed.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for process in multiprocessing.active_children():
        process.terminate()
        process.join(timeout)
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None and \
            hasattr(tracker, "_stop"):
        tracker._stop()  # closes its pipe, then waits for it to exit
    deadline = time.monotonic() + timeout
    sig = signal.SIGTERM
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                return
            if pid == 0:
                break
        pids = child_pids()
        if not pids:
            return
        if time.monotonic() > deadline:
            sig = signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def fresh_dir(name: str) -> Path:
    """An empty directory under the work area."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Deployment:
    """The SYN1 deployment with its objects and constraint set."""

    dataset: object
    constraints: object

    @property
    def objects(self) -> List[object]:
        return self.dataset.all_trajectories()


def build_deployment(durations: Sequence[int],
                     per_duration: int) -> Deployment:
    """SYN1 through ``build_dataset`` plus ``rfid-ctg``'s default constraints.

    The deployment and its objects come from the paper's SYN1 reference
    seed, not from ``--seed``: one object's cleaning cost varies several
    fold with its trajectory, so objects drawn per seed would make every
    timing depend on the seed more than on the code.  ``--seed`` drives
    what each workload does with them (order, schedule, request mix).
    """
    from repro import MotilityProfile, build_dataset, infer_constraints
    from repro.mapmodel import syn1_building

    building = syn1_building()
    dataset = build_dataset(building, name="SYN1", durations=durations,
                            per_duration=per_duration, seed=REFERENCE_SEED)
    constraints = infer_constraints(building, MotilityProfile(),
                                    distances=dataset.distances)
    return Deployment(dataset, constraints)


def reference_work() -> float:
    """Fixed interpreter work (dict updates, float arithmetic) that
    stands in for the program's own when gauging the host's speed."""
    table: Dict[int, float] = {}
    total = 0.0
    for number in range(REFERENCE_ITERATIONS):
        key = number % 97
        total += table.get(key, 0.0) * 0.5 + number
        table[key] = total % 1.0
    return total


class HostSpeed:
    """The host's speed, sampled by reference work between measurements.

    The benchmark runs on cores shared with other tenants, and a fixed
    loop's speed there moves by up to half for tens of seconds at a time,
    in step with the program's.  Each timing is therefore multiplied by
    ``REFERENCE_NOMINAL_S`` over the median duration of the reference
    samples nearest to it, and reads as the time on a host where one
    sample takes ``REFERENCE_NOMINAL_S``.  The workloads take samples in
    idle time or between requests, never inside a timed interval of
    their own process.
    """

    def __init__(self) -> None:
        self.ends: List[float] = []
        self.took: List[float] = []
        self.sample(REFERENCE_NEAR)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            begin = time.perf_counter()
            reference_work()
            end = time.perf_counter()
            self.ends.append(end)
            self.took.append(end - begin)

    def scale(self, at: float) -> float:
        """The factor for a timing that ended at ``at`` (a
        ``perf_counter`` reading)."""
        middle = bisect.bisect(self.ends, at)
        near = self.took[max(0, middle - REFERENCE_NEAR):
                         middle + REFERENCE_NEAR]
        return REFERENCE_NOMINAL_S / statistics.median(near)

    def scale_since(self, first: int) -> float:
        """The factor from the samples after the first ``first``."""
        return REFERENCE_NOMINAL_S / statistics.median(self.took[first:])

    @contextlib.contextmanager
    def during(self):
        """Sample every ``REFERENCE_PERIOD_S`` from a thread while the block
        runs work in other processes (this one waits, so the thread holds
        the interpreter alone).  Yields the sample count before the block,
        for :meth:`scale_since`."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(REFERENCE_PERIOD_S):
                self.sample()

        first = len(self.took)
        thread = threading.Thread(target=loop, daemon=True)
        thread.start()
        try:
            yield first
        finally:
            stop.set()
            thread.join()

    def median_scale(self) -> float:
        return REFERENCE_NOMINAL_S / statistics.median(self.took)


def repeated_setup(make: Callable[[], T], speed: HostSpeed,
                   repeats: int = SETUP_REPEATS) -> Tuple[T, float]:
    """Run ``make`` ``repeats`` times, with reference samples before and
    after each; the last result and the median scaled time."""
    times: List[float] = []
    for _ in range(repeats):
        result = None  # each set-up starts without the previous one's heap
        gc.collect()
        speed.sample(REFERENCE_NEAR)
        started = time.perf_counter()
        result = make()
        ended = time.perf_counter()
        speed.sample(REFERENCE_NEAR)
        times.append((ended - started) * speed.scale(ended))
    return result, statistics.median(times)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q`` quantile by linear interpolation between order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("quantile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """This process's peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def provenance(seed: int, workload: str, sizes: Dict[str, object]) -> Dict:
    """Where and on what a result was measured."""
    import numpy

    from repro.core import kernels

    edges_per_level = sizes.get("mean_level_edges", 0.0)
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend_auto": kernels.resolve_backend("auto", edges_per_level),
        "backend_auto_threshold": kernels.KERNEL_MIN_LEVEL_EDGES,
        "sizes": sizes,
    }


def deployment_sizes(deployment: Deployment) -> Dict[str, object]:
    """The input sizes every workload shares."""
    dataset = deployment.dataset
    objects = deployment.objects
    return {
        "objects": len(objects),
        "timesteps": sum(obj.duration for obj in objects),
        "cells": dataset.grid.num_cells,
        "readers": len(dataset.readers),
        "locations": len(dataset.building.location_names),
        "constraints": len(deployment.constraints),
    }
