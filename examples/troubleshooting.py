#!/usr/bin/env python
"""Troubleshooting: ghost reads, inconsistency diagnosis, exploration.

Three things a deployment engineer meets in practice:

1. **Ghost reads that cleaning absorbs.**  A burst of spurious detections
   from the wrong end of the warehouse *should* make the data nonsense —
   but conditioning quietly discounts it, because the constraint-valid
   interpretations (the object stayed where it was; the far readers were
   hearing through walls) carry almost all of the conditioned mass.

2. **Genuinely inconsistent data.**  When no interpretation survives,
   :func:`repro.diagnose` pinpoints the timestep and the constraints that
   killed every candidate move — instead of a bare exception.

3. **Exploring the cleaned result** with the mini query language and the
   terminal renderers.

Run:  python examples/troubleshooting.py
"""

import numpy as np

from repro import (
    ConstraintSet,
    InconsistentReadingsError,
    Latency,
    LSequence,
    Reading,
    ReadingSequence,
    TravelingTime,
    Unreachable,
    build_ct_graph,
    corridor_map,
    diagnose,
    infer_constraints,
)
from repro.inference import MotilityProfile
from repro.mapmodel.grid import Grid
from repro.queries.ql import execute
from repro.queries.stay import stay_query, stay_query_prior
from repro.rfid.calibration import calibrate, exact_matrix
from repro.rfid.priors import PriorModel
from repro.rfid.readers import place_default_readers
from repro.simulation.readings import ReadingGenerator
from repro.simulation.trajectories import TrajectoryGenerator
from repro.viz import render_entropy_sparkline


def main() -> None:
    building = corridor_map(num_rooms=4, room_size=6.0)
    constraints = infer_constraints(building, MotilityProfile(max_speed=1.5))

    rng = np.random.default_rng(21)
    grid = Grid(building)
    readers = place_default_readers(building)
    truth_matrix = exact_matrix(readers, grid)
    prior = PriorModel(calibrate(truth_matrix, rng=rng))

    truth = TrajectoryGenerator(building, rng=rng).generate(180)
    readings = ReadingGenerator(truth_matrix, rng).generate(truth)

    # --- 1. a ghost burst that conditioning absorbs -----------------------
    burst_at = 60
    here = truth.locations[burst_at]
    far_room = "room4" if here != "room4" else "room1"
    far_readers = frozenset(n for n in readers.reader_names
                            if far_room in n)
    corrupted = [Reading(r.time, far_readers)
                 if burst_at <= r.time < burst_at + 3 else r
                 for r in readings]
    lsequence = LSequence.from_readings(ReadingSequence(corrupted), prior)

    print(f"truth at t={burst_at}: {here}; the stream claims "
          f"{sorted(far_readers)} fired for 3 s\n")
    raw = stay_query_prior(lsequence, burst_at)
    graph = build_ct_graph(lsequence, constraints)
    cleaned = stay_query(graph, burst_at)
    print(f"P({far_room} at t={burst_at}):  raw prior = "
          f"{raw.get(far_room, 0.0):.3f}   cleaned = "
          f"{cleaned.get(far_room, 0.0):.3f}")
    print(f"P({here!s:9s} at t={burst_at}):  raw prior = "
          f"{raw.get(here, 0.0):.3f}   cleaned = "
          f"{cleaned.get(here, 0.0):.3f}")
    print("-> the physically impossible burst is discounted by "
          "conditioning\n")

    # --- 2. genuinely inconsistent data: diagnose it ----------------------
    print("a stream that *no* interpretation can explain:")
    bad = LSequence([
        {"room1": 1.0},
        {"room1": 0.7, "corridor": 0.3},
        {"room4": 1.0},                      # 12 m away, 2 s after room1
    ])
    tight = ConstraintSet([
        Unreachable("room1", "room4"), Unreachable("room4", "room1"),
        TravelingTime("room1", "room4", 6), TravelingTime("corridor", "room4", 2),
        Latency("room1", 2),
    ])
    try:
        build_ct_graph(bad, tight)
    except InconsistentReadingsError:
        report = diagnose(bad, tight)
        print(f"  cleaning failed; {report.summary()}")
        for move in report.blocked:
            print(f"    blocked: {move}")
    print()

    # --- 3. explore the (ghost-cleaned) graph -----------------------------
    for statement in (f"STAY {burst_at}", f"DWELL {far_room}", "BEST"):
        result = execute(graph, statement)
        print(f"> {statement}")
        print(result.format(limit=4))
        print()

    from repro.queries.analytics import entropy_profile, entropy_profile_prior
    print("uncertainty, before vs after cleaning:")
    print(" raw    ", render_entropy_sparkline(entropy_profile_prior(lsequence)))
    print(" cleaned", render_entropy_sparkline(entropy_profile(graph)))


if __name__ == "__main__":
    main()
