#!/usr/bin/env python
"""Quickstart: clean one RFID reading sequence end to end.

This walks the whole pipeline on a tiny hand-made scenario:

1. describe a map (two rooms and a corridor);
2. deploy readers and calibrate them (simulated, like the paper's Sec. 6.2);
3. infer the integrity constraints from the map and a motility profile;
4. interpret a reading sequence through the a-priori model;
5. build the conditioned-trajectory graph (Algorithm 1);
6. ask where the object was, before and after cleaning.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    Grid,
    LSequence,
    ReadingSequence,
    TrajectoryQuery,
    build_ct_graph,
    calibrate,
    corridor_map,
    exact_matrix,
    infer_constraints,
    place_default_readers,
    stay_query,
    stay_query_prior,
)
from repro.rfid.priors import PriorModel


def main() -> None:
    # 1. The map: two rooms off a corridor (room1 and room2 are not
    #    directly connected — you must cross the corridor).
    building = corridor_map(num_rooms=2, room_size=5.0)
    print(f"map: {building}")
    print(f"  adjacency: room1 <-> {building.neighbors('room1')}")

    # 2. Readers + calibration (the paper's tag-in-every-cell procedure).
    rng = np.random.default_rng(42)
    grid = Grid(building, cell_size=0.5)
    readers = place_default_readers(building)
    matrix = calibrate(exact_matrix(readers, grid), rng=rng)
    prior = PriorModel(matrix)
    print(f"  {len(readers)} readers, {grid.num_cells} calibration cells")

    # 3. Constraints: inferred from the map + how fast people walk.
    constraints = infer_constraints(building)
    print(f"  inferred constraints: {constraints}")

    # 4. A reading sequence: the object pauses in room1, then the
    #    detections get ambiguous (corridor reader bleed / false negatives).
    room1 = next(n for n in readers.reader_names if "room1" in n)
    corridor = next(n for n in readers.reader_names if "corridor" in n)
    reader_sets = [{room1}] * 8 + [{room1, corridor}, {corridor}, set(),
                                   {corridor}] + [{room1}] * 8
    readings = ReadingSequence.from_reader_sets(reader_sets)
    lsequence = LSequence.from_readings(readings, prior)

    # 5. Clean: build the conditioned-trajectory graph.
    graph = build_ct_graph(lsequence, constraints)
    print(f"\ncleaned: {graph} "
          f"({graph.num_valid_trajectories()} valid trajectories out of "
          f"{lsequence.num_trajectories()} interpretations)")

    # 6. Where was the object at the ambiguous timestep 10?
    tau = 10
    print(f"\nwhere was the object at t={tau}?")
    print(f"  raw prior : {_fmt(stay_query_prior(lsequence, tau))}")
    print(f"  cleaned   : {_fmt(stay_query(graph, tau))}")

    # And a pattern query: did it ever settle in room2 for 3+ seconds?
    query = TrajectoryQuery("? room2[3] ?")
    print(f"\nP(visited room2 for >=3s) = {query.probability(graph):.3f}")


def _fmt(distribution) -> str:
    items = sorted(distribution.items(), key=lambda kv: -kv[1])
    return ", ".join(f"{loc}={p:.2f}" for loc, p in items[:4])


if __name__ == "__main__":
    main()
