"""Incremental discovery vs repeated full re-discovery.

The append workload the incremental engine exists for: a base snapshot
plus a stream of append batches (Exp-1-sized flight data, with drift in
the late batches so ODs actually get invalidated), keeping the
discovered OD set current after *every* batch.  Two contestants:

* **full** — re-run ``FastOD`` from scratch on the accumulated
  relation after each batch (what a batch pipeline without the engine
  has to do);
* **incremental** — one ``IncrementalFastOD`` fed the batches.

Gates (exit code 1 on failure):

1. the incremental FD/OCD sets are byte-identical to the from-scratch
   oracle after every batch (also property-tested separately on small
   randomized streams with ``verify_with_oracle``);
2. total incremental time beats total full-re-run time by at least
   ``MIN_SPEEDUP``.

Run directly: ``PYTHONPATH=src python benchmarks/bench_incremental.py``.
Emits ``BENCH_incremental.json`` at the repo root via the harness.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import Reporter, write_bench_json
from repro.core.fastod import FastOD
from repro.datasets.streaming import drifting_stream
from repro.deltalog import DeltaBatch
from repro.incremental import IncrementalFastOD

DATASET = "flight"
N_ROWS = 5000
N_ATTRS = 8
N_BATCHES = 20
BASE_FRACTION = 0.5
DRIFT = 0.01
DRIFT_AFTER = 0.5
MIN_SPEEDUP = 3.0

EQUIVALENCE_STREAMS = [
    ("flight", 600, 7, 12),
    ("ncvoter", 400, 6, 10),
    ("dbtesma", 400, 6, 10),
]


def od_strings(result) -> list:
    return sorted(str(od) for od in result.all_ods)


def bench_speedup(reporter: Reporter):
    base, batches = drifting_stream(
        DATASET, n_rows=N_ROWS, n_attrs=N_ATTRS, n_batches=N_BATCHES,
        base_fraction=BASE_FRACTION, drift_after=DRIFT_AFTER, drift=DRIFT)

    started = time.perf_counter()
    engine = IncrementalFastOD(base)
    initial_seconds = time.perf_counter() - started
    incremental_total = initial_seconds

    accumulated = base
    started = time.perf_counter()
    FastOD(accumulated).run()
    full_total = time.perf_counter() - started

    records = []
    identical = True
    for index, batch in enumerate(batches):
        started = time.perf_counter()
        report = engine.apply_delta(DeltaBatch.inserts(batch.rows()))
        incremental_seconds = time.perf_counter() - started
        incremental_total += incremental_seconds

        accumulated = accumulated.concat(batch)
        started = time.perf_counter()
        oracle = FastOD(accumulated).run()
        full_seconds = time.perf_counter() - started
        full_total += full_seconds

        same = od_strings(engine.result) == od_strings(oracle)
        identical &= same
        reporter.add(
            batch=index + 1,
            rows=accumulated.n_rows,
            incremental=f"{incremental_seconds * 1e3:.1f}ms",
            full=f"{full_seconds * 1e3:.1f}ms",
            invalidated=len(report.invalidated),
            retraversed="yes" if report.retraversed else "no",
            identical="yes" if same else "NO",
        )
        records.append({
            "batch": index + 1,
            "n_rows": accumulated.n_rows,
            "incremental_seconds": incremental_seconds,
            "full_seconds": full_seconds,
            "invalidated": len(report.invalidated),
            "retraversed": report.retraversed,
            "identical": same,
        })
    speedup = full_total / incremental_total
    records.append({
        "summary": True,
        "dataset": DATASET,
        "n_rows": N_ROWS,
        "n_attrs": N_ATTRS,
        "n_batches": N_BATCHES,
        "initial_seconds": initial_seconds,
        "incremental_total_seconds": incremental_total,
        "full_total_seconds": full_total,
        "speedup": speedup,
        "identical": identical,
    })
    return records, speedup, identical


def bench_equivalence(reporter: Reporter):
    """Oracle-asserted streams on smaller mixed datasets (the engine
    raises if any batch's result diverges)."""
    records = []
    all_ok = True
    for family, n_rows, n_attrs, n_batches in EQUIVALENCE_STREAMS:
        base, batches = drifting_stream(
            family, n_rows=n_rows, n_attrs=n_attrs, n_batches=n_batches,
            drift_after=0.4, drift=0.03)
        ok = True
        invalidated = 0
        try:
            engine = IncrementalFastOD(base, verify_with_oracle=True)
            for batch in batches:
                report = engine.apply_delta(
                    DeltaBatch.inserts(batch.rows()))
                invalidated += len(report.invalidated)
        except AssertionError:
            ok = False
        all_ok &= ok
        reporter.add(dataset=family, rows=n_rows, attrs=n_attrs,
                     batches=n_batches, invalidated=invalidated,
                     identical="yes" if ok else "NO")
        records.append({
            "dataset": family, "n_rows": n_rows, "n_attrs": n_attrs,
            "n_batches": n_batches, "invalidated": invalidated,
            "identical": ok,
        })
    return records, all_ok


def main() -> int:
    equivalence_reporter = Reporter(
        experiment="incremental_equivalence",
        title="IncrementalFastOD vs from-scratch oracle (per batch)",
        columns=["dataset", "rows", "attrs", "batches", "invalidated",
                 "identical"])
    equivalence_records, equivalence_ok = bench_equivalence(
        equivalence_reporter)
    equivalence_reporter.finish()

    speedup_reporter = Reporter(
        experiment="incremental_speedup",
        title=f"Incremental vs full re-discovery "
              f"({DATASET} {N_ROWS}x{N_ATTRS}, {N_BATCHES} batches)",
        columns=["batch", "rows", "incremental", "full", "invalidated",
                 "retraversed", "identical"])
    speedup_records, speedup, identical = bench_speedup(speedup_reporter)
    speedup_reporter.finish()

    write_bench_json("incremental", speedup_records, section="speedup")
    write_bench_json("incremental", equivalence_records,
                     section="equivalence")
    print(f"total speedup over repeated full re-discovery: "
          f"{speedup:.2f}x (gate: >= {MIN_SPEEDUP}x); "
          f"identical results: {identical and equivalence_ok}")
    if not (identical and equivalence_ok):
        print("FAIL: incremental results differ from the oracle")
        return 1
    if speedup < MIN_SPEEDUP:
        print("FAIL: speedup below the gate")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
