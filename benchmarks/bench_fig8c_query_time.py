"""Figure 8(c): average query execution time on SYN1/SYN2 vs duration.

The paper's claims: query time grows linearly with the trajectory length,
and querying DU / DU+LT graphs is much faster than querying DU+LT+TT
graphs (which are larger).  Benchmarked per (dataset, configuration) on the
longest duration; the summary test prints the full series.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.algorithm import build_ct_graph
from repro.core.lsequence import LSequence
from repro.experiments.harness import (
    CONSTRAINT_CONFIGS,
    run_query_time_experiment,
)
from repro.experiments.report import query_time_table
from repro.experiments.workloads import random_trajectory_queries
from repro.queries.session import QuerySession
from repro.queries.trajectory import TrajectoryQuery

_CONFIG_ITEMS = list(CONSTRAINT_CONFIGS.items())


@pytest.fixture(scope="module")
def graphs(syn1, constraint_cache):
    """One cleaned graph per configuration (longest duration of SYN1)."""
    duration = syn1.durations[-1]
    trajectory = syn1.trajectories[duration][0]
    lsequence = LSequence.from_readings(trajectory.readings, syn1.prior)
    return {
        name: build_ct_graph(lsequence, constraint_cache(syn1, kinds))
        for name, kinds in _CONFIG_ITEMS
    }


@pytest.mark.parametrize("config_name", [name for name, _ in _CONFIG_ITEMS])
def test_stay_query_time(benchmark, graphs, config_name):
    graph = graphs[config_name]
    taus = list(range(0, graph.duration, max(1, graph.duration // 16)))

    def workload():
        session = QuerySession(graph)     # pay the real forward-pass cost
        return [session.location_marginal(tau) for tau in taus]

    benchmark.pedantic(workload, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["config"] = config_name
    benchmark.extra_info["nodes"] = graph.num_nodes


@pytest.mark.parametrize("config_name", [name for name, _ in _CONFIG_ITEMS])
def test_trajectory_query_time(benchmark, syn1, graphs, config_name):
    graph = graphs[config_name]
    rng = np.random.default_rng(42)
    queries = [TrajectoryQuery(p) for p in
               random_trajectory_queries(syn1.building, 5, rng)]

    def workload():
        return [query.probability(graph) for query in queries]

    benchmark.pedantic(workload, rounds=3, iterations=1, warmup_rounds=0)
    benchmark.extra_info["config"] = config_name


def test_fig8c_series(benchmark, syn1, syn2, capsys):
    """Prints the Fig. 8(c) series for both datasets."""
    def run_both():
        return (run_query_time_experiment(syn1, stay_queries=5,
                                          trajectory_queries=3)
                + run_query_time_experiment(syn2, stay_queries=5,
                                            trajectory_queries=3))

    measurements = benchmark.pedantic(run_both, rounds=1, iterations=1,
                                      warmup_rounds=0)
    with capsys.disabled():
        print()
        print("=== Figure 8(c): query time on SYN1/SYN2 ===")
        print(query_time_table(measurements))

    # Shape: querying the TT graphs is not cheaper than the DU graphs.
    def mean_for(config):
        values = [m.mean_seconds for m in measurements if m.config == config]
        return sum(values) / len(values)

    assert mean_for("CTG(DU,LT,TT)") >= 0.5 * mean_for("CTG(DU)")
