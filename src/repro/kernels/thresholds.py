"""The one home for the kernel crossover thresholds.

Every size gate the hot path consults — "serial vs pooled scan
dispatch" — is defined here with its provenance, instead of as
scattered literals.  The floors gate scan batches only (FASTOD's
level scans, the hybrid and extension waves): partition products
never leave the coordinator, where a lattice level is one kernel
call, and neither does a single-dependency scan (validator, detector,
incremental re-check), which is one τ_A walk that class chunks on
workers would each repeat.
The pool's module globals (``repro.parallel.pool.PARALLEL_MIN_GROUPED_ROWS``
/ ``PARALLEL_MIN_ROWS``) remain the names hot code *reads at call
time* — tests and benchmarks retune them by monkeypatching that module
— but their values are assigned from the constants below.  There is no
size gate between kernel implementations: every product and swap
verdict goes through the :mod:`repro.kernels` dispatcher at any size,
and both swap backends walk τ_A once whatever the context's shape.
(The rank-order and densify kernels fall back to NumPy for negative
ranks or a range wider than ``4n + 1024``; that is an input-shape
rule of the C counting passes, not a tuned crossover.)

Crossover measurements (``benchmarks/bench_partition_kernels.py``
micro section, single-core CI-class x86-64 container, NumPy 2.x,
August 2026):

* **Pool dispatch floors — 16 384 grouped rows / 4 096 relation
  rows.**  Process dispatch costs a fraction of a millisecond per
  chunk plus a segment publish; with the compiled kernels *faster*
  per row, the break-even moves up, not down — the measured floor
  stayed within the same bracket, so the PR 4 values stand for both
  backends.
"""

from __future__ import annotations

#: Grouped rows a scan batch's contexts must carry before the pool
#: executor leaves the coordinator (see repro.parallel.pool).
PARALLEL_MIN_GROUPED_ROWS = 16_384

#: Relation-row floor for the mask-derived validation dispatches,
#: whose context partitions are not known up front.
PARALLEL_MIN_ROWS = 4_096

#: Routes nothing: the swap kernels walk τ_A at any class size.  The
#: end-to-end benchmark's probes still read this name to classify
#: coarse swap calls (mean class size above it); it goes at the next
#: change to that benchmark.
SWAP_MEAN_CLASS_CROSSOVER = 64
