"""Gate for the parallel lattice execution engine.

Asserts the two claims the engine makes, on an Exp-1-sized instance
(the paper's tuple scale-up axis, grown to where per-level work
dominates the hand-off to threads):

1. **Byte-identical results** — the FD and OCD sets of every parallel
   configuration equal the ``workers=1`` serial run's, string for
   string.  Machine-independent; always enforced.
2. **>= 2x speedup at 4 workers vs 1** — measured two ways, passing if
   EITHER clears the gate (the same dual-gate precedent as
   ``bench_partition_kernels.py``):

   * **wall clock**: a real 4-thread run against the serial run.
     Honest only with >= 4 idle cores, so it is reported always but
     can only *pass* hardware that has them.
   * **work-distribution projection** (hardware-independent): the same
     4-share split of every level's products and scans is executed on
     a pool of *one* thread (the executor's ``workers=4`` sets the
     share count, the injected pool's thread count the parallelism),
     giving per-share busy seconds free of contention, read from the
     pool's ``dispatches`` records.  The projected 4-thread wall clock
     is then ``run_wall - Σ share_busy + Σ LPT-makespan(shares, 4)``:
     everything the calling thread did stays serial, and each batch's
     shares are placed on 4 threads by longest-processing-time-first.
     Products and scans both split, so most of a discovery is in the
     shares.  The projection assumes the shares' Python parts never
     wait for the GIL, so it is an upper bound on what 4 cores give.

Run directly: ``PYTHONPATH=src python benchmarks/bench_parallel.py``.
Emits ``BENCH_parallel.json`` at the repo root via the harness and the
table to ``benchmarks/results/parallel_speedup.txt``.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import Reporter, dataset, write_bench_json
from repro.core.fastod import FastOD, FastODConfig
from repro.core.results import DiscoveryResult
from repro.parallel.pool import WorkerPool

DATASET = "flight"
N_ROWS = 150_000
N_ATTRS = 8
WORKERS = 4
MIN_SPEEDUP = 2.0
#: best-of-N trials for the timed arms — damps scheduler noise on
#: shared CI machines (result identity is asserted on every trial)
TRIALS = 2


def od_strings(result: DiscoveryResult) -> Tuple[List[str], List[str]]:
    return (sorted(str(od) for od in result.fds),
            sorted(str(od) for od in result.ocds))


def lpt_makespan(shares: Sequence[float], k: int) -> float:
    """Longest-processing-time-first makespan of ``shares`` on ``k``
    threads — the classic 4/3-approximation, matching the pool's
    greedy consumption of queued shares."""
    loads = [0.0] * k
    for share in sorted(shares, reverse=True):
        loads[loads.index(min(loads))] += share
    return max(loads)


def timed_run(relation, config, pool=None) -> Tuple[DiscoveryResult, float]:
    started = time.perf_counter()
    result = FastOD(relation, config, pool=pool).run()
    return result, time.perf_counter() - started


def main() -> int:
    relation = dataset(DATASET, N_ROWS, N_ATTRS)
    encoded = relation.encode()
    reporter = Reporter(
        experiment="parallel_speedup",
        title=f"Parallel lattice engine on {DATASET} "
              f"{N_ROWS}x{N_ATTRS} (Exp-1 scale-up)",
        columns=["mode", "workers", "wall", "speedup", "identical"])

    serial_seconds = None
    serial_result = None
    for _ in range(TRIALS):
        result, seconds = timed_run(relation, FastODConfig(workers=1))
        if serial_seconds is None or seconds < serial_seconds:
            serial_seconds = seconds
            serial_result = result
    serial_ods = od_strings(serial_result)
    reporter.add(mode="serial", workers=1,
                 wall=f"{serial_seconds * 1e3:.0f}ms", speedup="1.00x",
                 identical="yes")

    # real 4-thread wall clock (meaningful with >= 4 idle cores; on a
    # 1-core box the number is pure time-slicing noise, so the table
    # says so instead of printing a misleading "0.4x")
    one_core = (os.cpu_count() or 1) == 1
    with WorkerPool(encoded, WORKERS) as pool:
        wall_result, wall_seconds = timed_run(
            relation, FastODConfig(workers=WORKERS), pool=pool)
    wall_identical = od_strings(wall_result) == serial_ods
    wall_speedup = serial_seconds / wall_seconds
    reporter.add(mode="parallel-wall", workers=WORKERS,
                 wall=f"{wall_seconds * 1e3:.0f}ms",
                 speedup=("skipped (1 core)" if one_core
                          else f"{wall_speedup:.2f}x"),
                 identical="yes" if wall_identical else "NO")

    # work-distribution projection: 4-share batches through one
    # uncontended thread, shares LPT-placed on 4 virtual threads
    projected_identical = True
    projected_seconds = None
    busy = makespan = 0.0
    for _ in range(TRIALS):
        with WorkerPool(encoded, 1) as pool:
            result, run_seconds = timed_run(
                relation, FastODConfig(workers=WORKERS), pool=pool)
            trial_busy = sum(sum(d["share_busy_seconds"])
                             for d in pool.dispatches)
            trial_makespan = sum(
                lpt_makespan(d["share_busy_seconds"], WORKERS)
                for d in pool.dispatches)
        projected_identical &= od_strings(result) == serial_ods
        trial_projected = run_seconds - trial_busy + trial_makespan
        if projected_seconds is None or trial_projected < projected_seconds:
            projected_seconds = trial_projected
            busy, makespan = trial_busy, trial_makespan
    projected_speedup = serial_seconds / projected_seconds
    reporter.add(mode="parallel-projected", workers=WORKERS,
                 wall=f"{projected_seconds * 1e3:.0f}ms",
                 speedup=f"{projected_speedup:.2f}x",
                 identical="yes" if projected_identical else "NO")
    reporter.finish()

    identical = wall_identical and projected_identical
    records: List[Dict[str, object]] = [
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "serial", "workers": 1, "seconds": serial_seconds,
         "ods_found": serial_result.n_ods},
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "parallel_wall", "workers": WORKERS,
         "seconds": wall_seconds, "speedup": wall_speedup,
         "identical": wall_identical,
         "cpu_count": os.cpu_count(),
         "wall_gate_skipped": one_core},
        {"dataset": DATASET, "n_rows": N_ROWS, "n_attrs": N_ATTRS,
         "mode": "parallel_projected", "workers": WORKERS,
         "seconds": projected_seconds, "speedup": projected_speedup,
         "identical": projected_identical,
         "share_busy_seconds": busy, "lpt_makespan_seconds": makespan,
         "busy_share_of_run": busy / (projected_seconds - makespan
                                      + busy)},
    ]
    write_bench_json("parallel", records, section="speedup_gate")

    wall_label = ("skipped (1 core)" if one_core
                  else f"{wall_speedup:.2f}x")
    print(f"speedup at {WORKERS} threads vs 1: {wall_label} "
          f"(wall clock, {os.cpu_count()} cpu(s)) / "
          f"{projected_speedup:.2f}x (work-distribution projection); "
          f"gate: >= {MIN_SPEEDUP}x on either; "
          f"identical results: {identical}")
    if not identical:
        print("FAIL: parallel FD/OCD sets differ from the serial engine")
        return 1
    if wall_speedup < MIN_SPEEDUP and projected_speedup < MIN_SPEEDUP:
        print("FAIL: speedup below the gate on both measures")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
