"""End-to-end and per-layer benchmark of the FASTOD system.

    python3 perfbench/run.py --workload cli-wide --seed 1 \\
        --seconds 20 --trace 0

Runs one workload (``cli-wide``, ``pooled-tall`` or ``service-mixed``;
see README.md) as a closed loop with one client for ``--seconds``,
checks every output against an oracle, prints each metric by name with
its unit, writes the full record (metrics, checks, provenance) under
``.bench_build/perfbench/``, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` every second op runs with span probes installed and the
metrics are the per-layer ones.  Run it from the repository root; it
needs ``src/`` beside ``perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

import common

#: (name, unit) of the end-to-end metrics, in report order
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

KERNELS = ("product", "swap", "split", "densify")
ENGINE_PHASES = (("products", "products"), ("ocd_scan", "ocd-scan"))


def end_to_end(outcome) -> dict:
    return {
        "setup_s": common.median(outcome.setup_s),
        "ops_per_s": (outcome.requests / outcome.loop_s
                      if outcome.loop_s else 0.0),
        "peak_rss_mb": outcome.peak_rss_mb,
    }


def per_layer(outcome) -> dict:
    """Per-layer metrics, per traced op; 0 where a workload does not
    reach the layer."""
    tracer, registry = outcome.tracer, outcome.registry
    n = max(1, len(outcome.traced_op_s))

    def total(name: str, **labels) -> float:
        return common.family_total(registry, name, **labels)

    def spans(name: str) -> float:
        return tracer.total_s.get(name, 0.0) / n

    out = {
        "cli.startup_s": 0.0,
        "relation.read_csv_s": spans("relation.read_csv"),
        "relation.encode_s": spans("relation.encode"),
        "relation.setup_encode_s": 0.0,
        "relation.fingerprint_s": spans("relation.fingerprint"),
    }
    for kernel in KERNELS:
        out[f"kernels.{kernel}.calls"] = total(
            "repro_kernel_calls_total", kernel=kernel) / n
        out[f"kernels.{kernel}.s"] = total(
            "repro_kernel_seconds_total", kernel=kernel) / n
    swaps = tracer.counts.get("kernels.swap.calls", 0.0)
    out["kernels.swap.coarse_share"] = (
        tracer.counts.get("kernels.swap.coarse", 0.0) / swaps
        if swaps else 0.0)

    hits = total("repro_partition_cache_lookups_total", outcome="hit")
    misses = total("repro_partition_cache_lookups_total", outcome="miss")
    out["partitions.cache.hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    out["partitions.cache.evictions"] = total(
        "repro_partition_cache_evictions_total") / n
    out["partitions.peak_residency_bytes"] = 0.0

    out["engine.planner.self_s"] = (
        tracer.self_s.get("engine.planner", 0.0) / n)
    for metric, phase in ENGINE_PHASES:
        out[f"engine.{metric}.s"] = total(
            "repro_executor_phase_seconds", phase=phase) / n
        out[f"engine.{metric}.tasks"] = total(
            "repro_executor_tasks_total", phase=phase) / n
    out["engine.fd_check.s"] = total(
        "repro_executor_phase_seconds", phase="fd-check") / n
    out["engine.levels"] = total("repro_planner_levels_total") / n

    pool_tasks = total("repro_executor_tasks_total", mode="pool")
    all_tasks = total("repro_executor_tasks_total")
    out.update({
        "parallel.start_s": 0.0,
        "parallel.dispatches": total("repro_pool_dispatches_total") / n,
        "parallel.tasks": pool_tasks / n,
        "parallel.pool_task_share": (pool_tasks / all_tasks
                                     if all_tasks else 0.0),
        "parallel.busy_s": 0.0,
        "parallel.queue_wait_s": 0.0,
        "parallel.utilization": 0.0,
        "incremental.apply_delta_s": spans("incremental.apply_delta"),
        "incremental.retraverse_share": 0.0,
        "incremental.bootstrap_s": 0.0,
        "deltalog.preview_s": spans("deltalog.preview"),
        "deltalog.append_s": spans("deltalog.append"),
        "deltalog.bytes_per_op": 0.0,
        "server.queue_wait_s": 0.0,
        "server.job.delta_s": 0.0,
        "server.job.validate_s": 0.0,
        "server.job.discover_s": 0.0,
        "server.http_s": 0.0,
        "server.store.put_s": spans("server.store.put"),
        "server.catalog.rekey_s": spans("server.catalog.rekey"),
        "core.serialize_s": spans("core.serialize"),
    })
    store_hits = total("repro_store_lookups_total", outcome="hit")
    store_all = total("repro_store_lookups_total")
    out["server.store.hit_ratio"] = (store_hits / store_all
                                     if store_all else 0.0)
    out.update(outcome.layers)

    untraced = common.median(outcome.op_s)
    out["obs.trace_overhead"] = (
        common.median(outcome.traced_op_s) / untraced if untraced else 0.0)
    layer_self = tracer.layer_self_s()
    traced_mean = sum(outcome.traced_op_s) / n
    for layer, seconds in layer_self.items():
        out[f"{layer}.self_s"] = seconds / n
    out["other.self_s"] = max(
        0.0, traced_mean - sum(layer_self.values()) / n)
    return out


#: per-layer timings taken once per set-up rather than per traced op
SETUP_TIMINGS = ("parallel.start_s", "incremental.bootstrap_s",
                 "relation.setup_encode_s")


def per_layer_unit(name: str) -> str:
    """Per-layer values are means per traced op unless named here."""
    if name in SETUP_TIMINGS:
        return "s/setup"
    if name.endswith(("_s", ".s")):
        return "s/op"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("bytes_per_op"):
        return "bytes/op"
    if name.endswith(("_share", "_ratio", "utilization", "overhead")):
        return "ratio"
    return "count/op"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {common.SRC}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2
    env_seen = common.prepare_environment()
    import workloads

    run = workloads.WORKLOADS.get(args.workload)
    if run is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose "
              f"from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    common.become_subreaper()
    # a SIGTERM unwinds through the ``finally`` below like any error
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    host_before = common.host_loop_ms()
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.stop_children()
    host_ms = (host_before, common.host_loop_ms())

    if args.trace:
        values = per_layer(outcome)
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in sorted(values.items())}
    else:
        values = end_to_end(outcome)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    error_rate = (outcome.failed / outcome.attempted
                  if outcome.attempted else 1.0)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(outcome.op_s)} untraced + {len(outcome.traced_op_s)} "
          f"traced ops in {outcome.loop_s:.2f} s")
    for name, (value, unit, samples) in outcome.report.items():
        print(f"{name:<34} {value:>14.6f} {unit:<8} (n={samples})")
    print(f"{'error_rate':<34} {error_rate:>14.6f} {'ratio':<8} "
          f"(n={outcome.attempted})")
    for name, entry in metrics.items():
        print(f"{name:<34} {entry['value']:>14.6f} {entry['unit']}")
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "report": {name: {"value": value, "unit": unit, "n": samples}
                   for name, (value, unit, samples)
                   in outcome.report.items()},
        "error_rate": error_rate,
        "samples": {"setup_s": outcome.setup_s, "op_s": outcome.op_s,
                    "traced_op_s": outcome.traced_op_s},
        "checks": outcome.checks,
        "provenance": common.provenance(
            args.seed, env_seen, outcome.backends,
            outcome.built_in_setup, host_ms),
    }
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))
    path = (common.RESULTS
            / f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(record, indent=2, default=str))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
