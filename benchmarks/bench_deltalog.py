"""General deltas: incremental maintenance vs re-discovery, and
cold-boot WAL replay.

Three experiments over a mixed insert/delete/update workload (the
general Z-set stream the delta log exists for, not the append-only
case ``bench_incremental.py`` covers):

* **delta_speedup** — a base snapshot plus a stream of mixed delta
  batches, keeping the OD set current after every batch.  Contestants:
  re-running ``FastOD`` from scratch on each post-batch relation vs
  one ``IncrementalFastOD`` fed the batches via ``apply_delta``.
* **replay** — a delta WAL holding >= 10k weighted ops is replayed
  cold (``read_delta_log`` + one-pass ``replay_relation`` + content
  fingerprint check), the exact work a crashed service re-does at
  boot before it can serve its first request.
* **fold** — the median ``DeltaBatch.fold`` (resolve, post-delete
  relation, appended relation: the service's write path before the
  engine) over the end-to-end benchmark's mixed stream: 40 rolls per
  batch on flight 20000x8, each roll ~35% a delete, ~25% an update,
  ~40% an insert, rows moving between the live relation and a
  reserve.  Reported, not gated.

Gates (exit code 1 on failure):

1. incremental FD/OCD sets byte-identical to the from-scratch oracle
   after every batch;
2. total incremental delta-handling time beats total per-batch full
   re-discovery by at least ``MIN_SPEEDUP`` (both sides' bootstrap
   discovery over the base snapshot is reported, not gated);
3. the replayed relation's fingerprint matches the live one, and the
   cold replay fits ``REPLAY_BUDGET_SECONDS``.

Run directly: ``PYTHONPATH=src python benchmarks/bench_deltalog.py``.
Emits ``BENCH_deltalog.json`` at the repo root via the harness.
"""

from __future__ import annotations

import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import Reporter, write_bench_json
from repro.core.fastod import FastOD
from repro.datasets.registry import make_dataset
from repro.deltalog import (
    DeltaBatch,
    DeltaLog,
    read_delta_log,
    replay_relation,
)
from repro.incremental import IncrementalFastOD
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation

DATASET = "flight"
N_ROWS = 12_000
N_ATTRS = 7
N_BATCHES = 24
OPS_PER_BATCH = 40
MIN_SPEEDUP = 2.0

REPLAY_TARGET_OPS = 10_000
REPLAY_BATCH_OPS = 40
REPLAY_BUDGET_SECONDS = 5.0

FOLD_ROWS = 20_000
FOLD_ATTRS = 8
#: rows generated beside the live ones, where inserts come from
FOLD_RESERVE = 10_000
FOLD_BATCHES = 60
FOLD_ROLLS = 40


def od_strings(result) -> list:
    return sorted(str(od) for od in result.all_ods)


def python_relation(dataset: str, n_rows: int, n_attrs: int) -> Relation:
    """The dataset with rows coerced to plain scalars (the WAL
    JSON-encodes rows, so numpy ints must not leak into batches)."""
    source = make_dataset(dataset, n_rows=n_rows, n_attrs=n_attrs)
    rows = [tuple(v.item() if hasattr(v, "item") else v for v in row)
            for row in source.rows()]
    return Relation.from_rows(source.names, rows)


def mixed_batches(base: Relation, n_batches: int, ops_per_batch: int,
                  seed: int = 7) -> list:
    """A seeded stream of valid mixed batches: ~35% deletes, ~25%
    updates (one attribute rewritten to another in-domain value),
    ~40% inserts (an existing row with one attribute perturbed)."""
    rng = random.Random(seed)
    live = list(base.rows())
    domains = [sorted({row[col] for row in live})
               for col in range(base.arity)]

    def perturbed(row):
        col = rng.randrange(len(row))
        out = list(row)
        out[col] = rng.choice(domains[col])
        return tuple(out)

    batches = []
    for _ in range(n_batches):
        ops = []
        for _ in range(ops_per_batch):
            roll = rng.random()
            if len(live) > 2 and roll < 0.35:
                ops.append((-1, live.pop(rng.randrange(len(live)))))
            elif len(live) > 2 and roll < 0.60:
                old = live.pop(rng.randrange(len(live)))
                new = perturbed(old)
                ops.extend([(-1, old), (1, new)])
                live.append(new)
            else:
                row = perturbed(rng.choice(live))
                ops.append((1, row))
                live.append(row)
        batches.append(DeltaBatch(ops))
    return batches


def rolled_batches(live: list, reserve: list, n_batches: int,
                   rolls: int, seed: int = 1) -> list:
    """The end-to-end benchmark's service stream: per roll, below 0.35
    a delete (a live row parks in the reserve), below 0.60 an update
    (both), else an insert (a reserve row comes in).  The live
    relation stays a random subset of one universe, so batches keep
    their cost along the stream."""
    rng = random.Random(seed)
    live, reserve = list(live), list(reserve)

    def take(rows):
        index = rng.randrange(len(rows))
        rows[index], rows[-1] = rows[-1], rows[index]
        return rows.pop()

    batches = []
    for _ in range(n_batches):
        ops = []
        for _ in range(rolls):
            roll = rng.random()
            old = take(live) if roll < 0.60 else None
            if old is not None:
                ops.append((-1, old))
            if roll >= 0.35:
                new = take(reserve)
                ops.append((1, new))
                live.append(new)
            if old is not None:
                reserve.append(old)
        batches.append(DeltaBatch(ops))
    return batches


def bench_fold(reporter: Reporter, seed: int = 1):
    source = python_relation(DATASET, FOLD_ROWS + FOLD_RESERVE, FOLD_ATTRS)
    rows = list(source.rows())
    universe = [rows[i] for i in np.random.default_rng(seed).permutation(
        len(rows)).tolist()]
    relation = Relation.from_rows(source.names, universe[:FOLD_ROWS])
    relation.encode()
    batches = rolled_batches(universe[:FOLD_ROWS], universe[FOLD_ROWS:],
                             FOLD_BATCHES, FOLD_ROLLS, seed)
    seconds = []
    for batch in batches:
        started = time.perf_counter()
        fold = batch.fold(relation)
        seconds.append(time.perf_counter() - started)
        # what the service does next; untimed here
        fingerprint(fold.relation)
        relation = fold.relation
        del fold
    quartiles = statistics.quantiles(seconds, n=4)
    median = statistics.median(seconds)
    reporter.add(
        rows=FOLD_ROWS, attrs=FOLD_ATTRS, batches=len(batches),
        rolls=FOLD_ROLLS, median=f"{median * 1e3:.2f}ms",
        q1=f"{quartiles[0] * 1e3:.2f}ms", q3=f"{quartiles[2] * 1e3:.2f}ms")
    return [{
        "dataset": DATASET,
        "n_rows": FOLD_ROWS,
        "n_attrs": FOLD_ATTRS,
        "n_batches": len(batches),
        "rolls_per_batch": FOLD_ROLLS,
        "median_fold_seconds": median,
        "q1_fold_seconds": quartiles[0],
        "q3_fold_seconds": quartiles[2],
    }], median


def bench_speedup(reporter: Reporter):
    base = python_relation(DATASET, N_ROWS, N_ATTRS)
    batches = mixed_batches(base, N_BATCHES, OPS_PER_BATCH)

    # both contestants pay a full discovery over the base snapshot
    # before any delta arrives (the warm service's bootstrap); the
    # gate compares how they *keep up* with the stream, so the
    # bootstrap is reported but only the per-batch times are gated
    started = time.perf_counter()
    engine = IncrementalFastOD(base)
    bootstrap_seconds = time.perf_counter() - started

    accumulated = base
    started = time.perf_counter()
    FastOD(accumulated).run()
    full_base_seconds = time.perf_counter() - started

    incremental_total = 0.0
    full_total = 0.0
    records = []
    identical = True
    for index, batch in enumerate(batches):
        started = time.perf_counter()
        report = engine.apply_delta(batch)
        incremental_seconds = time.perf_counter() - started
        incremental_total += incremental_seconds

        accumulated = batch.apply_to(accumulated)
        started = time.perf_counter()
        oracle = FastOD(accumulated).run()
        full_seconds = time.perf_counter() - started
        full_total += full_seconds

        same = od_strings(engine.result) == od_strings(oracle)
        identical &= same
        reporter.add(
            batch=index + 1,
            rows=accumulated.n_rows,
            deleted=report.n_deleted,
            appended=report.n_appended,
            incremental=f"{incremental_seconds * 1e3:.1f}ms",
            full=f"{full_seconds * 1e3:.1f}ms",
            identical="yes" if same else "NO",
        )
        records.append({
            "batch": index + 1,
            "n_rows": accumulated.n_rows,
            "n_deleted": report.n_deleted,
            "n_appended": report.n_appended,
            "incremental_seconds": incremental_seconds,
            "full_seconds": full_seconds,
            "identical": same,
        })
    engine.close()
    speedup = full_total / incremental_total
    records.append({
        "summary": True,
        "dataset": DATASET,
        "n_rows": N_ROWS,
        "n_attrs": N_ATTRS,
        "n_batches": N_BATCHES,
        "ops_per_batch": OPS_PER_BATCH,
        "bootstrap_seconds": bootstrap_seconds,
        "full_base_seconds": full_base_seconds,
        "incremental_total_seconds": incremental_total,
        "full_total_seconds": full_total,
        "speedup": speedup,
        "identical": identical,
    })
    return records, speedup, identical


def bench_replay(reporter: Reporter):
    base = python_relation(DATASET, 1500, 6)
    n_batches = REPLAY_TARGET_OPS // REPLAY_BATCH_OPS
    batches = mixed_batches(base, n_batches, REPLAY_BATCH_OPS, seed=11)
    n_ops = sum(len(b) for b in batches)

    # the live history: apply batch by batch, like a running service
    live = base
    started = time.perf_counter()
    for batch in batches:
        live = batch.apply_to(live)
    sequential_seconds = time.perf_counter() - started
    live_fp = fingerprint(live)

    with tempfile.TemporaryDirectory(prefix="deltalog-bench-") as tmp:
        path = Path(tmp) / "bench.log"
        started = time.perf_counter()
        with DeltaLog(path) as log:
            for batch in batches:
                log.append(batch)
        append_seconds = time.perf_counter() - started
        log_bytes = path.stat().st_size

        # the cold boot: trust the clean prefix, fold it in one pass,
        # authenticate the result by content fingerprint
        started = time.perf_counter()
        replayed_records = read_delta_log(path)
        folded = replay_relation(
            base, (record.batch for record in replayed_records))
        replayed_fp = fingerprint(folded)
        replay_seconds = time.perf_counter() - started

    authentic = replayed_fp == live_fp
    within_budget = replay_seconds <= REPLAY_BUDGET_SECONDS
    reporter.add(
        batches=len(batches),
        ops=n_ops,
        log_kib=f"{log_bytes / 1024:.0f}",
        append=f"{append_seconds:.2f}s",
        sequential=f"{sequential_seconds:.2f}s",
        cold_replay=f"{replay_seconds:.2f}s",
        budget=f"{REPLAY_BUDGET_SECONDS:.0f}s",
        authentic="yes" if authentic else "NO",
    )
    records = [{
        "n_batches": len(batches),
        "n_ops": n_ops,
        "n_rows_final": live.n_rows,
        "log_bytes": log_bytes,
        "append_seconds": append_seconds,
        "sequential_apply_seconds": sequential_seconds,
        "cold_replay_seconds": replay_seconds,
        "replay_budget_seconds": REPLAY_BUDGET_SECONDS,
        "ops_per_second": n_ops / replay_seconds,
        "authentic": authentic,
        "within_budget": within_budget,
    }]
    return records, authentic, within_budget


def main() -> int:
    speedup_reporter = Reporter(
        experiment="delta_speedup",
        title=f"Mixed deltas: incremental vs full re-discovery "
              f"({DATASET} {N_ROWS}x{N_ATTRS}, {N_BATCHES} batches)",
        columns=["batch", "rows", "deleted", "appended", "incremental",
                 "full", "identical"])
    speedup_records, speedup, identical = bench_speedup(speedup_reporter)
    speedup_reporter.finish()

    replay_reporter = Reporter(
        experiment="delta_replay",
        title=f"Cold-boot WAL replay ({REPLAY_TARGET_OPS} weighted ops)",
        columns=["batches", "ops", "log_kib", "append", "sequential",
                 "cold_replay", "budget", "authentic"])
    replay_records, authentic, within_budget = bench_replay(
        replay_reporter)
    replay_reporter.finish()

    fold_reporter = Reporter(
        experiment="delta_fold",
        title=f"DeltaBatch.fold on {DATASET} {FOLD_ROWS}x{FOLD_ATTRS}, "
              f"{FOLD_ROLLS}-roll mixed batches (reported, not gated)",
        columns=["rows", "attrs", "batches", "rolls", "median", "q1",
                 "q3"])
    fold_records, fold_median = bench_fold(fold_reporter)
    fold_reporter.finish()

    write_bench_json("deltalog", speedup_records, section="speedup")
    write_bench_json("deltalog", replay_records, section="replay")
    write_bench_json("deltalog", fold_records, section="fold")
    print(f"mixed-delta speedup over full re-discovery: {speedup:.2f}x "
          f"(gate: >= {MIN_SPEEDUP}x); identical: {identical}; "
          f"replay authentic: {authentic}; within budget: "
          f"{within_budget}; median fold: {fold_median * 1e3:.2f} ms "
          f"(not gated)")
    if not identical:
        print("FAIL: incremental results diverged from the oracle")
        return 1
    if speedup < MIN_SPEEDUP:
        print("FAIL: speedup below the gate")
        return 1
    if not authentic:
        print("FAIL: replayed fingerprint does not match live history")
        return 1
    if not within_budget:
        print("FAIL: cold replay exceeded its wall-clock budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
