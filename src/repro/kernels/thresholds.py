"""The one home for the kernel crossover thresholds.

Every size gate the hot path consults — "calling thread vs thread
pool" — is defined here with its provenance, instead of as scattered
literals.  The floor gates a lattice level's products and a scan batch
(FASTOD's level scans, the hybrid and extension waves); a
single-dependency scan (validator, detector, incremental re-check) is
one τ_A walk that shares would each repeat, so it never leaves the
calling thread.  The pool's module global
(``repro.parallel.pool.PARALLEL_MIN_GROUPED_ROWS``) remains the name
hot code *reads at call time* — tests and benchmarks retune it by
monkeypatching that module — but its value is assigned from the
constant below.  There is no size gate between kernel implementations:
every product and swap verdict goes through the :mod:`repro.kernels`
dispatcher at any size, and both swap backends walk τ_A once whatever
the context's shape.  (The rank-order and densify kernels fall back to
NumPy for negative ranks or a range wider than ``4n + 1024``; that is
an input-shape rule of the C counting passes, not a tuned crossover.)

Crossover measurement (2-core x86-64 container, gcc 12.2, Python
3.11, NumPy 2.4, October 2026; flight relations with 6 attributes, one
level-2 product batch of 15 tasks and one scan batch of 120 swap tasks
over the 6 one-attribute contexts, median of 15, executor wall clock
per batch at 2 threads vs the calling thread):

* **Dispatch floor — 65 536 grouped rows.**  Handing shares to threads
  costs ~0.2 ms per batch, plus GIL hand-offs around the Python parts
  of each share.  With the compiled kernels, scan batches break even
  near 40 000 grouped rows and gain from there (320 000 rows:
  24.5 → 13.8 ms); product batches, whose C pass is cheaper per row,
  break even only near 160 000–320 000.  The reference kernels hold
  the GIL longer per call and break even later still.  One floor
  between the two kinds: 65 536, where scans already win and products
  lose at most ~0.5 ms.
"""

from __future__ import annotations

#: Grouped rows a lattice level's parents or a scan batch's contexts
#: must carry before the pool executor splits the batch across its
#: threads (see repro.parallel.pool).
PARALLEL_MIN_GROUPED_ROWS = 65_536

#: Routes nothing: the swap kernels walk τ_A at any class size.  The
#: end-to-end benchmark's probes still read this name to classify
#: coarse swap calls (mean class size above it); it goes at the next
#: change to that benchmark.
SWAP_MEAN_CLASS_CROSSOVER = 64

