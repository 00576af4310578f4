"""The repository benchmark: SYN1 archive, query and live-serve workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload archive-syn1 --seed 1 --seconds 20
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every workload sets up the paper's SYN1 deployment and drives the entry
points users call; ``BENCHMARK.json`` says which layers each one loads.
``--trace 0`` measures the end-to-end metrics with tracing off.  Every
workload reports the same five, read per workload as:

==================  =================  ==============  ====================
metric              archive-syn1       query-syn1      serve-syn1
==================  =================  ==============  ====================
throughput_per_s    clean_steps_per_s  queries_per_s   serve_readings_per_s
latency_p50_ms      pass-median p50    query p50       serve p50 (from due)
latency_tail_ms     pass-median p90    query p90       serve p90 (from due)
==================  =================  ==============  ====================

plus ``setup_s`` (median of three set-ups) and ``peak_rss_mb`` (with
``--workload all``, the peak of the process so far); the failed fraction
is ``failed / attempted`` of the result line.  Timings are scaled to a
nominal host speed by reference work run between measurements
(``common.HostSpeed``); the printed ``host_scale`` is the run's median
factor, so a raw timing is the reported one divided by it.  ``--trace 1``
produces the per-layer ledger from spans recorded around each layer's
public functions; a layer the workload never calls reports 0 with a note.
Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an output check fails and 2 when the benchmark cannot
run.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List

import common

WORKLOADS = ("archive-syn1", "query-syn1", "serve-syn1")

#: Per-layer metrics of the deployment set-up, from its spans.
SETUP_LAYERS = {
    "mapmodel.grid_s": "mapmodel.grid",
    "mapmodel.distances_s": "mapmodel.distances",
    "rfid.exact_matrix_s": "rfid.exact_matrix",
    "rfid.calibrate_s": "rfid.calibrate",
    "inference.constraints_s": "inference.constraints",
    "simulation.generate_s": "simulation.generate",
}


def load_spec() -> Dict:
    path = common.ROOT / "BENCHMARK.json"
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        raise common.BenchmarkError(f"cannot read {path}: {error}")


def module_for(workload: str):
    import archive
    import query
    import serve

    return {"archive-syn1": archive, "query-syn1": query,
            "serve-syn1": serve}[workload]


def measure(workload: str, seed: int, seconds: float,
            units: Dict[str, str]) -> Dict:
    """End-to-end metrics with tracing off."""
    result = module_for(workload).run(seed, seconds)
    result["peak_rss_mb"] = common.peak_rss_mb()
    metrics = {name: result[name] for name in (
        "setup_s", "peak_rss_mb", "throughput_per_s", "latency_p50_ms",
        "latency_tail_ms")}
    lines = [f"  {result['names'].get(name, name):<22} {value:.6g} "
             f"{units[name]}"
             + (f"  (reported as {name})" if name in result["names"] else "")
             + (f"  n={result['samples']}" if name.startswith("latency")
                else "")
             for name, value in metrics.items()]
    lines.append(f"  {'failed_frac':<22} "
                 f"{result['failed'] / result['attempted']:.6g}  "
                 f"({result['failed']} of {result['attempted']})")
    lines.extend(f"  {name:<22} {value:.6g}"
                 for name, value in result.get("extra", {}).items())
    return {**result, "metrics": metrics, "lines": lines}


def ledger(workload: str, seed: int, seconds: float) -> Dict:
    """Per-layer metrics from a traced run; spans go to a JSON-lines file."""
    from tracing import Tracer

    tracer = Tracer()
    result = module_for(workload).trace(seed, seconds, tracer)
    self_s, calls = tracer.self_times()
    metrics = {name: self_s.get(span, 0.0)
               for name, span in SETUP_LAYERS.items()}
    sizes = result["sizes"]
    metrics.update({
        "rfid.exact_matrix_calls": calls.get("rfid.exact_matrix", 0),
        "rfid.cell_reader_pairs": sizes["cells"] * sizes["readers"],
        "inference.constraints": sizes["constraints"],
        "trace.unattributed_s": tracer.unattributed(),
    })
    metrics.update(result["metrics"])
    common.WORK.mkdir(exist_ok=True)
    spans_path = common.WORK / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(spans_path)
    covered = sum(self_s.values())
    lines = [f"  span {name:<34} self {seconds_:.6f} s  calls {calls[name]}"
             for name, seconds_ in sorted(self_s.items())]
    lines.append(f"  spans self {covered:.6f} s + unattributed "
                 f"{tracer.unattributed():.6f} s = traced wall "
                 f"{tracer.wall:.6f} s ({len(tracer.spans)} spans in "
                 f"{spans_path.relative_to(common.ROOT)})")
    return {**result, "metrics": metrics, "lines": lines}


def report(workload: str, seed: int, seconds: float, trace: bool,
           spec: Dict) -> Dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    if trace:
        outcome = ledger(workload, seed, seconds)
    else:
        outcome = measure(workload, seed, seconds,
                          {entry["name"]: entry["unit"] for entry in declared})
    notes = dict(outcome.get("notes", {}))
    metrics = {}
    for entry in declared:
        name = entry["name"]
        value = outcome["metrics"].get(name)
        if value is None:
            if not trace:
                raise common.BenchmarkError(f"{workload} produced no {name}")
            # A layer this workload never calls did no work on it.
            value = 0
            notes.setdefault(name, f"layer idle on {workload}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    extra = set(outcome["metrics"]) - {entry["name"] for entry in declared}
    if extra:
        raise common.BenchmarkError(
            f"{workload} produced undeclared metrics {sorted(extra)}")
    sizes = outcome["sizes"]
    info = common.provenance(seed, workload, sizes)
    info["notes"] = notes
    print(f"perfbench {workload} seed={seed} seconds={seconds} "
          f"trace={int(trace)}")
    for line in outcome["lines"]:
        print(line)
    for name, entry in metrics.items():
        if trace:
            print(f"  {name:<36} {entry['value']:.6g} {entry['unit']}"
                  + (f"  [{notes[name]}]" if name in notes else ""))
    print("provenance " + json.dumps(info, sort_keys=True))
    common.WORK.mkdir(exist_ok=True)
    with open(common.WORK / f"provenance-{workload}-seed{seed}"
              f"-trace{int(trace)}.json", "w", encoding="utf-8") as handle:
        json.dump(info, handle, indent=2, sort_keys=True)
    return {"correct": outcome["failed"] == 0,
            "attempted": outcome["attempted"],
            "failed": outcome["failed"], "metrics": metrics}


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.adopt_orphans()
    try:
        spec = load_spec()
        common.import_repro()
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        results = {workload: report(workload, args.seed, args.seconds,
                                    bool(args.trace), spec)
                   for workload in workloads}
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        common.stop_children()
    if len(results) == 1:
        summary = results[args.workload]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{workload}/{name}": entry
                        for workload, r in results.items()
                        for name, entry in r["metrics"].items()},
        }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
