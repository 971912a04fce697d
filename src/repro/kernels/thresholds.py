"""The one home for the kernel crossover thresholds.

Every size gate the hot path consults — "serial vs pooled dispatch"
and the compiled swap kernel's routing — is defined here with its
provenance, instead of as scattered literals.  The pool's module
globals (``repro.parallel.pool.PARALLEL_MIN_GROUPED_ROWS`` /
``PARALLEL_MIN_ROWS``) remain the names hot code *reads at call time*
— tests and benchmarks retune them by monkeypatching that module —
but their values are assigned from the constants below.  There is no
size gate between kernel implementations: every product and swap
verdict goes through the :mod:`repro.kernels` dispatcher at any size.

Crossover measurements (``benchmarks/bench_partition_kernels.py``
micro section, single-core CI-class x86-64 container, NumPy 2.x,
August 2026):

* **Pool dispatch floors — 16 384 grouped rows / 4 096 relation
  rows.**  Process dispatch costs a fraction of a millisecond per
  chunk plus a segment publish; with the compiled kernels *faster*
  per row, the break-even moves up, not down — the measured floor
  stayed within the same bracket, so the PR 4 values stand for both
  backends.
* **Compiled swap routing — mean class size 64.**  The C swap kernel
  sorts each class independently (insertion sort to ~48 elements,
  ``qsort`` beyond) and beats the reference's global composite-key
  ``argsort`` 3-4.5x while classes stay small — the common shape at
  lattice levels >= 2, where context partitions are products.  On
  coarse contexts (few giant classes) NumPy's single large sort wins:
  measured 3.4x at mean class 8, ~1.0x at 64, 0.77x at 256.  The
  compiled backend therefore routes swap calls whose mean class size
  exceeds this crossover to the reference implementation (identical
  output by contract, so routing is invisible to callers).
"""

from __future__ import annotations

#: Grouped rows a dispatch's partitions must carry before the pool
#: executor leaves the coordinator (see repro.parallel.pool).
PARALLEL_MIN_GROUPED_ROWS = 16_384

#: Relation-row floor for the mask-derived validation dispatches,
#: whose context partitions are not known up front.
PARALLEL_MIN_ROWS = 4_096

#: Mean class size above which the compiled backend's swap kernel
#: routes to the reference (NumPy) implementation — per-class qsort
#: loses to one global argsort on coarse contexts.
SWAP_MEAN_CLASS_CROSSOVER = 64
