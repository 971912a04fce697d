"""Micro-benchmark for the vectorized partition kernels.

Gates the perf claim of the flat-layout partition engine two ways:

1. **Kernel level** — times the vectorized `StrippedPartition.product`
   and swap scan against list-based reference implementations (the
   seed's per-row loops, reproduced here verbatim) on synthetic
   partitions, asserting agreement on every input.
2. **Discovery level** — re-runs ``FastOD(...).run()`` on the Exp-1
   sizes and compares wall clock *and the exact FD/OCD result sets*
   against ``benchmarks/seed_exp1_baseline.json``, the committed
   before-change snapshot.  The run fails (exit code 1) if any result
   set differs or the aggregate speedup drops below 2x.

   The result-identity check is machine-independent; the
   discovery-level speedup is not (the baseline's ``seconds`` were
   recorded on the machine that made the change), so the speedup gate
   passes when EITHER the discovery comparison or the in-process
   kernel-level comparison — reference implementations timed in the
   same run, hence hardware-independent — clears ``MIN_SPEEDUP``.

3. **Backend level** — times the compiled (C/ctypes) kernel backend
   against the reference (NumPy) backend on the same inputs, kernel by
   kernel, asserting byte-identical outputs per cell and a geomean
   speedup of at least ``BACKEND_MIN_SPEEDUP`` (2x).  Swap cells time
   one-pair ``swap_verdicts`` calls walked to the class count (every
   offending class stops, the whole of τ_A is read on a swap-free
   pair), with τ_A sorted once per column, as discovery does; a
   coarse-context swap row (mean class 1000) is reported outside the
   geomean.  When no C
   toolchain is available the section reports ``skipped`` and passes —
   the compiled backend is an optional accelerator, never a
   requirement.

   A batched-swap row sets one cli-wide-shaped scan context (ncvoter
   5000x12, context {first_name, county_id}) with its 45 (A, B)
   pairs as one ``swap_verdicts`` call (each pair stopping at its
   first swap) against one one-pair call per pair walked to the class
   count, on each available backend — also reported, not gated.
   A level-products row likewise builds one cli-wide-shaped lattice
   level (ncvoter 5000x12, level 3: 220 products of level-2 parents)
   as one ``partition_products`` call against one call per product.

4. **Backend × workers identity matrix** — runs full discovery at
   workers 0/2/4 under each available backend (with
   ``parallel_min_grouped_rows=0`` so the pool really dispatches) and
   asserts every cell's FD/OCD sets are string-identical to the
   serial reference run.

Run directly: ``PYTHONPATH=src python benchmarks/bench_partition_kernels.py``.
Emits ``BENCH_partitions.json`` at the repo root via the harness.
"""

from __future__ import annotations

import json
import math
import sys
import time
from itertools import combinations
from pathlib import Path
from typing import List

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.harness import Reporter, dataset, timed, write_bench_json
from repro import discover_ods, kernels
from repro.core.fastod import FastOD, FastODConfig
from repro.core.lattice import parents_for_partition
from repro.core.validation import is_compatible_in_classes
from repro.kernels.reference import ReferenceBackend
from repro.partitions.partition import (StrippedPartition,
                                        partition_from_columns)

BASELINE = Path(__file__).resolve().parent / "seed_exp1_baseline.json"
DATASETS = ["flight", "ncvoter", "dbtesma"]
ROW_COUNTS = [1000, 2000, 3000, 4000, 5000]
N_ATTRS = 8
MIN_SPEEDUP = 2.0
#: gate for the compiled backend vs the reference backend (geomean
#: over every kernel x size cell; skipped without a C toolchain)
BACKEND_MIN_SPEEDUP = 2.0
BACKEND_TRIALS = 3
IDENTITY_WORKERS = (0, 2, 4)
IDENTITY_ROWS = 3000
#: the batched-swap row: cli-wide's relation (perfbench's ncvoter
#: 5000x12) and one of its two-attribute scan contexts
SWAP_BATCH_SHAPE = ("ncvoter", 5000, 12)
SWAP_BATCH_CONTEXT = (2, 3)
#: the level-products row: the same relation's level 3
LEVEL_PRODUCTS_LEVEL = 3


# ----------------------------------------------------------------------
# list-based reference kernels (the seed implementations, kept verbatim
# as the comparison point — do not "optimize" these)
# ----------------------------------------------------------------------
def reference_product(left: StrippedPartition,
                      right: StrippedPartition) -> StrippedPartition:
    probe = left.row_to_class()
    classes: List[List[int]] = []
    for rows in right.classes:
        groups: dict = {}
        for row in rows:
            left_class = probe[row]
            if left_class >= 0:
                groups.setdefault(int(left_class), []).append(row)
        for grouped in groups.values():
            if len(grouped) >= 2:
                classes.append(grouped)
    return StrippedPartition(classes, left.n_rows)


def reference_swap_free(column_a: np.ndarray, column_b: np.ndarray,
                        context: StrippedPartition) -> bool:
    for rows in context.classes:
        pairs = sorted(zip(column_a[rows].tolist(),
                           column_b[rows].tolist()))
        max_b_before = None
        current_a = None
        current_max_b = None
        first = True
        for value_a, value_b in pairs:
            if first or value_a != current_a:
                if current_max_b is not None and (
                        max_b_before is None
                        or current_max_b > max_b_before):
                    max_b_before = current_max_b
                current_a = value_a
                current_max_b = None
                first = False
            if max_b_before is not None and value_b < max_b_before:
                return False
            if current_max_b is None or value_b > current_max_b:
                current_max_b = value_b
    return True


# ----------------------------------------------------------------------
# kernel micro-benchmarks
# ----------------------------------------------------------------------
def _synthetic_columns(n_rows: int, n_distinct: int,
                       seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, n_distinct, size=n_rows).astype(np.int64)


def bench_kernels(reporter: Reporter) -> List[dict]:
    records = []
    for n_rows, n_distinct in [(1000, 10), (10_000, 30), (50_000, 100)]:
        col_x = _synthetic_columns(n_rows, n_distinct, seed=1)
        col_y = _synthetic_columns(n_rows, n_distinct, seed=2)
        # a swap-free (A, B) pair — B a monotone function of A — so both
        # scans must walk every class in full.  Violated candidates let
        # the scalar scan exit on the first swap; *holding* candidates
        # are the ones discovery validates over and over, and there the
        # full scan is the cost that matters.
        col_a = _synthetic_columns(n_rows, n_rows // 2, seed=3)
        col_b = col_a // 3
        left = StrippedPartition.from_ranks(col_x)
        right = StrippedPartition.from_ranks(col_y)

        t0 = time.perf_counter()
        fast = left.product(right)
        fast_product_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow = reference_product(left, right)
        slow_product_s = time.perf_counter() - t0
        assert fast == slow, "product disagrees with reference"

        context = fast
        # τ_A is sorted once per column, outside the timing, as
        # EncodedRelation.order caches it for every scan of a discovery
        order_a = np.argsort(col_a)
        t0 = time.perf_counter()
        fast_ok = is_compatible_in_classes(col_a, col_b, context, order_a)
        fast_swap_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow_ok = reference_swap_free(col_a, col_b, context)
        slow_swap_s = time.perf_counter() - t0
        assert fast_ok == slow_ok, "swap scan disagrees with reference"

        reporter.add(
            n_rows=n_rows,
            product=f"{fast_product_s * 1e3:.2f}ms",
            product_ref=f"{slow_product_s * 1e3:.2f}ms",
            product_x=f"{slow_product_s / fast_product_s:.1f}x",
            swap=f"{fast_swap_s * 1e3:.2f}ms",
            swap_ref=f"{slow_swap_s * 1e3:.2f}ms",
            swap_x=f"{slow_swap_s / fast_swap_s:.1f}x",
        )
        records.append({
            "kernel": "product", "n_rows": n_rows,
            "seconds": fast_product_s,
            "reference_seconds": slow_product_s,
        })
        records.append({
            "kernel": "swap_scan", "n_rows": n_rows,
            "seconds": fast_swap_s,
            "reference_seconds": slow_swap_s,
        })
    return records


# ----------------------------------------------------------------------
# discovery-level before/after gate
# ----------------------------------------------------------------------
def bench_discovery(reporter: Reporter) -> tuple:
    baseline = json.loads(BASELINE.read_text(encoding="utf-8"))
    records = []
    speedups = []
    identical = True
    for name in DATASETS:
        for rows in ROW_COUNTS:
            key = f"{name}:{rows}"
            seed_record = baseline[key]
            relation = dataset(name, rows, N_ATTRS)
            result, seconds = timed(lambda: discover_ods(relation))
            same = (sorted(str(od) for od in result.fds)
                    == seed_record["fds"]
                    and sorted(str(od) for od in result.ocds)
                    == seed_record["ocds"])
            identical &= same
            speedup = seed_record["seconds"] / seconds
            speedups.append(speedup)
            reporter.add(
                dataset=name, rows=rows,
                seed=f"{seed_record['seconds'] * 1e3:.0f}ms",
                now=f"{seconds * 1e3:.0f}ms",
                speedup=f"{speedup:.2f}x",
                identical="yes" if same else "NO",
            )
            records.append({
                "dataset": name,
                "n_rows": rows,
                "n_attrs": N_ATTRS,
                "seconds": seconds,
                "ods_found": result.n_ods,
                "seed_seconds": seed_record["seconds"],
                "speedup": speedup,
            })
    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    return records, geomean, identical


# ----------------------------------------------------------------------
# compiled backend vs reference backend
# ----------------------------------------------------------------------
def _backend_inputs(n_rows: int, n_distinct: int, seed: int):
    """CSR inputs shared by every kernel: a context partition, a left
    probe, and a swap-free (A, B) column pair (full-scan worst case)."""
    rng = np.random.default_rng(seed)
    context = StrippedPartition.from_ranks(
        rng.integers(0, n_distinct, size=n_rows).astype(np.int64))
    left = StrippedPartition.from_ranks(
        rng.integers(0, n_distinct, size=n_rows).astype(np.int64))
    # swap scans run over product contexts (lattice level >= 2), which
    # fragment into many small classes — mean class ~12 here
    swap_context = StrippedPartition.from_ranks(
        rng.integers(0, n_rows // 12, size=n_rows).astype(np.int64))
    # a swap-free (A, B) pair over a rank-like domain (repeated values,
    # as discovery's encoded columns have) — holding candidates force
    # both backends through the full scan
    col_a = rng.integers(0, max(8, n_rows // 50),
                         size=n_rows).astype(np.int64)
    col_b = col_a // 3
    raw = rng.integers(0, n_rows // 3, size=n_rows).astype(np.int64)
    return context, left, swap_context, col_a, col_b, raw


def _full_walk(col_a: np.ndarray, col_b: np.ndarray,
               context: StrippedPartition, order_a: np.ndarray) -> tuple:
    """``swap_verdicts`` arguments for the one pair ``col_a ~ col_b``
    with a ``limit`` of the class count: the walk goes on until every
    offending class has stopped."""
    return ((col_a, col_b), {0: order_a}, context.rows, context.offsets,
            [0], [1], [False], max(context.n_classes, 1))


def _time_kernel(call) -> float:
    best = None
    for _ in range(BACKEND_TRIALS):
        t0 = time.perf_counter()
        call()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return best


def bench_backends(reporter: Reporter) -> tuple:
    """(records, geomean speedup or None when compiled is absent)."""
    if not kernels.compiled_available():
        reporter.add(kernel="(all)", n_rows="-", reference="-",
                     compiled="skipped (no C toolchain)", speedup="-")
        return [], None
    reference = ReferenceBackend()
    compiled = kernels.resolve_backend("compiled")
    records = []
    ratios = []
    methods = {"product": "partition_products", "swap": "swap_verdicts",
               "swap-coarse": "swap_verdicts", "split": "split_mismatch",
               "densify": "densify"}
    for n_rows, n_distinct in [(20_000, 60), (100_000, 300)]:
        context, left, swap_context, col_a, col_b, raw = _backend_inputs(
            n_rows, n_distinct, seed=11)
        # τ_A once per column, as EncodedRelation.order caches it
        order_a = np.argsort(col_a)
        # a coarse context, mean class 1000 rows: reported, but kept
        # out of the gated geomean so the gate's composition holds
        coarse = StrippedPartition.from_ranks(
            np.arange(n_rows, dtype=np.int64) % (n_rows // 1000))
        args_by_kernel = {
            # a one-task batch: Π_left · Π_context
            "product": ([(left.rows, left.offsets),
                         (context.rows, context.offsets)], [(0, 1)],
                        n_rows),
            "swap": _full_walk(col_a, col_b, swap_context, order_a),
            "swap-coarse": _full_walk(col_a, col_b, coarse, order_a),
            "split": (raw, context.rows, context.offsets,
                      context.class_sizes),
            "densify": (raw,),
        }
        for kernel, args in args_by_kernel.items():
            ref_fn = getattr(reference, methods[kernel])
            com_fn = getattr(compiled, methods[kernel])
            ref_out = ref_fn(*args)
            com_out = com_fn(*args)
            ref_parts = ref_out if isinstance(ref_out, tuple) else (ref_out,)
            com_parts = com_out if isinstance(com_out, tuple) else (com_out,)
            for got, want in zip(com_parts, ref_parts):
                assert np.array_equal(got, want), \
                    f"{kernel}: compiled output differs from reference"
            ref_s = _time_kernel(lambda: ref_fn(*args))
            com_s = _time_kernel(lambda: com_fn(*args))
            speedup = ref_s / com_s
            gated = kernel != "swap-coarse"
            if gated:
                ratios.append(speedup)
            reporter.add(kernel=kernel, n_rows=n_rows,
                         reference=f"{ref_s * 1e3:.2f}ms",
                         compiled=f"{com_s * 1e3:.2f}ms",
                         speedup=f"{speedup:.2f}x"
                         + ("" if gated else " (not gated)"))
            records.append({
                "kernel": kernel, "n_rows": n_rows,
                "reference_seconds": ref_s, "compiled_seconds": com_s,
                "speedup": speedup, "gated": gated,
            })
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    return records, geomean


def bench_swap_batch(reporter: Reporter) -> List[dict]:
    """One scan context with every (A, B) pair outside it: one batched
    ``swap_verdicts`` call (row -> class table filled once, each pair
    stopping at its first swap) against one one-pair call per pair
    walked to the class count, on each available backend.  Reported,
    not gated."""
    name, n_rows, n_attrs = SWAP_BATCH_SHAPE
    encoded = dataset(name, n_rows, n_attrs).encode()
    context = partition_from_columns(encoded, list(SWAP_BATCH_CONTEXT))
    pairs = list(combinations(
        [a for a in range(n_attrs) if a not in SWAP_BATCH_CONTEXT], 2))
    pair_a = [a for a, _ in pairs]
    pair_b = [b for _, b in pairs]
    orders = {a: encoded.order(a) for a in set(pair_a)}
    columns = encoded.ranks
    backends = ["reference"]
    if kernels.compiled_available():
        backends.append("compiled")
    records = []
    for backend_name in backends:
        backend = kernels.resolve_backend(backend_name)

        def per_pair():
            return [bool(backend.swap_verdicts(*_full_walk(
                columns[a], columns[b], context, orders[a]))[0][0])
                for a, b in pairs]

        def batched():
            return backend.swap_verdicts(
                columns, orders, context.rows, context.offsets, pair_a,
                pair_b, [False] * len(pairs))[0].tolist()

        assert per_pair() == batched(), \
            f"{backend_name}: batched swap verdicts differ per pair"
        per_pair_s = _time_kernel(per_pair)
        batched_s = _time_kernel(batched)
        reporter.add(backend=backend_name, n_rows=n_rows,
                     pairs=len(pairs),
                     per_pair=f"{per_pair_s * 1e3:.2f}ms",
                     batched=f"{batched_s * 1e3:.2f}ms",
                     speedup=f"{per_pair_s / batched_s:.2f}x (not gated)")
        records.append({
            "kernel": "swap-batch", "backend": backend_name,
            "dataset": name, "n_rows": n_rows, "n_attrs": n_attrs,
            "pairs": len(pairs), "per_pair_seconds": per_pair_s,
            "batched_seconds": batched_s,
            "speedup": per_pair_s / batched_s, "gated": False,
        })
    return records


def bench_level_products(reporter: Reporter) -> List[dict]:
    """One lattice level of cli-wide's relation: every product as one
    batched ``partition_products`` call (one probe per left parent)
    against one call per product, on each available backend.
    Reported, not gated."""
    name, n_rows, n_attrs = SWAP_BATCH_SHAPE
    encoded = dataset(name, n_rows, n_attrs).encode()
    masks = [sum(1 << a for a in attributes) for attributes in
             combinations(range(n_attrs), LEVEL_PRODUCTS_LEVEL)]
    pairs = [parents_for_partition(mask) for mask in masks]
    parent_masks = sorted({mask for pair in pairs for mask in pair})
    index = {mask: i for i, mask in enumerate(parent_masks)}
    parents = [partition_from_columns(
        encoded, [a for a in range(n_attrs) if mask >> a & 1])
        for mask in parent_masks]
    flat = [(parent.rows, parent.offsets) for parent in parents]
    tasks = [(index[left], index[right]) for left, right in pairs]
    backends = ["reference"]
    if kernels.compiled_available():
        backends.append("compiled")
    records = []
    for backend_name in backends:
        backend = kernels.resolve_backend(backend_name)

        def per_product():
            return [backend.partition_products(
                [flat[left], flat[right]], [(0, 1)], n_rows)
                for left, right in tasks]

        def batched():
            return backend.partition_products(flat, tasks, n_rows)

        rows, offsets, spans = batched()
        for (r, m, o, k), (one_rows, one_offsets, _) in zip(
                spans.tolist(), per_product()):
            assert (np.array_equal(rows[r:r + m], one_rows)
                    and np.array_equal(offsets[o:o + k + 1],
                                       one_offsets)), \
                f"{backend_name}: batched products differ per product"
        per_product_s = _time_kernel(per_product)
        batched_s = _time_kernel(batched)
        reporter.add(backend=backend_name, n_rows=n_rows,
                     products=len(tasks),
                     per_product=f"{per_product_s * 1e3:.2f}ms",
                     batched=f"{batched_s * 1e3:.2f}ms",
                     speedup=f"{per_product_s / batched_s:.2f}x "
                             "(not gated)")
        records.append({
            "kernel": "level-products", "backend": backend_name,
            "dataset": name, "n_rows": n_rows, "n_attrs": n_attrs,
            "level": LEVEL_PRODUCTS_LEVEL, "products": len(tasks),
            "per_product_seconds": per_product_s,
            "batched_seconds": batched_s,
            "speedup": per_product_s / batched_s, "gated": False,
        })
    return records


# ----------------------------------------------------------------------
# backend x workers identity matrix
# ----------------------------------------------------------------------
def bench_identity_matrix(reporter: Reporter) -> tuple:
    relation = dataset("flight", IDENTITY_ROWS, N_ATTRS)
    backends = ["reference"]
    if kernels.compiled_available():
        backends.append("compiled")
    golden = None
    records = []
    identical = True
    for backend in backends:
        for workers in IDENTITY_WORKERS:
            config = FastODConfig(
                workers=workers, kernel_backend=backend,
                parallel_min_grouped_rows=0 if workers else None)
            result, seconds = timed(
                lambda: FastOD(relation, config).run())
            ods = (sorted(str(od) for od in result.fds),
                   sorted(str(od) for od in result.ocds))
            if golden is None:
                golden = ods
            same = ods == golden
            identical &= same
            reporter.add(backend=backend, workers=workers,
                         wall=f"{seconds * 1e3:.0f}ms",
                         identical="yes" if same else "NO")
            records.append({
                "backend": backend, "workers": workers,
                "dataset": "flight", "n_rows": IDENTITY_ROWS,
                "n_attrs": N_ATTRS, "seconds": seconds,
                "identical": same,
            })
    return records, identical


def main() -> int:
    kernel_reporter = Reporter(
        experiment="partition_kernels",
        title="Vectorized partition kernels vs list-based reference",
        columns=["n_rows", "product", "product_ref", "product_x",
                 "swap", "swap_ref", "swap_x"])
    kernel_records = bench_kernels(kernel_reporter)
    kernel_reporter.finish()

    discovery_reporter = Reporter(
        experiment="partition_discovery",
        title="FastOD on Exp-1 sizes: flat-layout engine vs seed baseline",
        columns=["dataset", "rows", "seed", "now", "speedup", "identical"])
    discovery_records, geomean, identical = bench_discovery(
        discovery_reporter)
    discovery_reporter.finish()

    backend_reporter = Reporter(
        experiment="kernel_backends",
        title="Compiled (C/ctypes) kernel backend vs reference (NumPy)",
        columns=["kernel", "n_rows", "reference", "compiled", "speedup"])
    backend_records, backend_geomean = bench_backends(backend_reporter)
    backend_reporter.finish()

    batch_reporter = Reporter(
        experiment="swap_batch",
        title="Batched swap verdicts vs one full walk per pair",
        columns=["backend", "n_rows", "pairs", "per_pair", "batched",
                 "speedup"])
    batch_records = bench_swap_batch(batch_reporter)
    batch_reporter.finish()

    level_reporter = Reporter(
        experiment="level_products",
        title="One lattice level's products: one call vs one per product",
        columns=["backend", "n_rows", "products", "per_product",
                 "batched", "speedup"])
    level_records = bench_level_products(level_reporter)
    level_reporter.finish()

    matrix_reporter = Reporter(
        experiment="backend_identity",
        title="FD/OCD identity across backend x worker-count matrix",
        columns=["backend", "workers", "wall", "identical"])
    matrix_records, matrix_identical = bench_identity_matrix(
        matrix_reporter)
    matrix_reporter.finish()

    write_bench_json("partitions", discovery_records,
                     section="discovery_gate")
    write_bench_json("partitions", kernel_records, section="kernels")
    write_bench_json("partitions", backend_records,
                     section="kernel_backends")
    write_bench_json("partitions", batch_records, section="swap_batch")
    write_bench_json("partitions", level_records,
                     section="level_products")
    write_bench_json("partitions", matrix_records,
                     section="backend_identity")
    kernel_ratios = [r["reference_seconds"] / r["seconds"]
                     for r in kernel_records]
    kernel_geomean = math.exp(
        sum(math.log(r) for r in kernel_ratios) / len(kernel_ratios))
    backend_label = ("skipped (no C toolchain)" if backend_geomean is None
                     else f"{backend_geomean:.2f}x")
    print(f"geomean speedup over seed: {geomean:.2f}x (discovery, "
          f"machine-dependent) / {kernel_geomean:.2f}x (kernels, "
          f"in-process); gate: >= {MIN_SPEEDUP}x on either; "
          f"identical results: {identical}")
    print(f"compiled backend vs reference: {backend_label}; gate: >= "
          f"{BACKEND_MIN_SPEEDUP}x geomean when available; "
          f"backend x workers identity: {matrix_identical}")
    if not identical:
        print("FAIL: discovery results differ from the seed baseline")
        return 1
    if geomean < MIN_SPEEDUP and kernel_geomean < MIN_SPEEDUP:
        print("FAIL: aggregate speedup below the gate")
        return 1
    if backend_geomean is not None and backend_geomean < BACKEND_MIN_SPEEDUP:
        print("FAIL: compiled backend below the backend gate")
        return 1
    if not matrix_identical:
        print("FAIL: backend x workers matrix results differ")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
