"""Hybrid (sample-then-validate) OD discovery.

The lattice sweep costs ``O(2^|R|)`` node visits even when almost all
of them validate against the full relation.  The hybrid strategy —
in the spirit of HyFD-style profilers — runs exact FASTOD on a small
*sample*, then escalates only where the sample was too optimistic:

1. Any OD valid on ``r`` is valid on every subset of ``r`` (validity is
   a pairwise property), so the sample's minimal ODs are context-wise
   *lower bounds* for the true full-data minimal ODs.
2. Each sample-minimal candidate is validated on the full relation;
   failures grow their context by one attribute (every such child is
   still sample-valid by Augmentation) and re-enter the queue.
3. The search therefore visits, per attribute (or pair), only the cone
   between the sample-minimal context and the true minimal contexts;
   a final subset filter restores exact minimality, and the Propagate
   rule is applied to OCDs against the *full-data* FDs.

The output provably equals FASTOD's (property-tested): every
minimal-on-full OD is reachable because its context contains some
sample-minimal context for the same attribute/pair, and the expansion
branches over all attributes.

Escalation waves run through the unified engine
(:mod:`repro.engine`): each wave's masks are mutually independent, so
one ``run_validations`` batch resolves them.  The calling thread
derives every wave context from its mask first, then the batch runs
serially below the :data:`~repro.parallel.PARALLEL_MIN_GROUPED_ROWS`
floor and is split across the thread pool otherwise.  The output is
identical at any worker count.  One
:class:`~repro.engine.DeadlineBudget` covers the whole run: it is
consulted *between* waves and propagated into each wave's dispatch, so
a timeout never has to wait for the next full wave to complete before
being noticed; a timed-out run returns the ODs confirmed so far
flagged ``timed_out=True``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from repro.core.fastod import discover_ods
from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.results import DiscoveryResult
from repro.engine.budget import DeadlineBudget
from repro.engine.executors import make_executor
from repro.engine.telemetry import build_timings
from repro.relation.schema import bit_count, iter_bits
from repro.relation.table import Relation


def hybrid_discover(relation: Relation, *, sample_size: int = 100,
                    seed: int = 0,
                    workers: Optional[int] = None,
                    timeout_seconds: Optional[float] = None
                    ) -> DiscoveryResult:
    """Exact minimal OD discovery via a sample-guided lattice search.

    Produces the same complete, minimal set as
    :func:`repro.core.fastod.discover_ods`; only the work differs.
    Worthwhile when the relation is tall (validation dominates) and the
    sample is representative; degenerates gracefully — at worst the
    escalation walks the same lattice FASTOD would.

    With ``workers`` > 1 (or ``REPRO_WORKERS``) the full-data
    validations of each escalation wave are split across the engine's
    thread pool; ``timeout_seconds`` bounds the whole run
    (partial results come back flagged ``timed_out``).
    """
    started = time.perf_counter()
    budget = DeadlineBudget(timeout_seconds)
    sample = relation.sample(min(sample_size, relation.n_rows), seed=seed)
    # the sample sweep spends from the same budget (a wide sample
    # lattice must not blow past the deadline before the first wave)
    sample_result = discover_ods(sample,
                                 timeout_seconds=budget.remaining())

    encoded = relation.encode()
    executor = make_executor(encoded, workers=workers)

    def validate_wave(wave: List[int], mode: str, a: int,
                      b: int) -> Tuple[Dict[int, bool], bool]:
        """Full-data verdicts for one wave of contexts (masks of equal
        context size, mutually independent)."""
        return executor.run_validations(
            [(mask, mask, mode, a, b) for mask in wave], budget,
            phase="wave")

    try:
        result = _hybrid_discover(
            sample_result, encoded, validate_wave, budget,
            sample_size, seed, workers, timeout_seconds, started)
        result.executor_stats = executor.telemetry.snapshot()
        result.timings = build_timings(result.executor_stats)
        return result
    finally:
        executor.close()


def _hybrid_discover(sample_result, encoded, validate_wave, budget,
                     sample_size, seed, workers, timeout_seconds,
                     started) -> DiscoveryResult:
    names = encoded.names
    index = {name: i for i, name in enumerate(names)}
    full_mask = (1 << encoded.arity) - 1

    # contexts recur heavily (each sample FD seeds every pair below),
    # so the frozenset -> bitmask translation is memoized
    mask_memo: Dict[frozenset, int] = {}

    def mask_of(context) -> int:
        mask = mask_memo.get(context)
        if mask is None:
            mask = 0
            for name in context:
                mask |= 1 << index[name]
            mask_memo[context] = mask
        return mask

    # a timed-out sample sweep means incomplete seeds: everything
    # downstream is skipped and the (empty-so-far) result is flagged
    timed_out = sample_result.timed_out

    # ------------------------------------------------------------------
    # constancy ODs: escalate per attribute
    # ------------------------------------------------------------------
    valid_fd_masks: Dict[int, Set[int]] = {}
    if not timed_out:
        for attribute in range(encoded.arity):
            seeds = [mask_of(fd.context)
                     for fd in sample_result.fds
                     if index[fd.attribute] == attribute]
            valid_fd_masks[attribute], cut = _escalate(
                seeds, attribute_bit=1 << attribute,
                full_mask=full_mask,
                validate=lambda wave, a=attribute: validate_wave(
                    wave, "const", a, 0),
                budget=budget)
            if cut:
                timed_out = True
                break

    fds: List[CanonicalFD] = []
    for attribute, masks in valid_fd_masks.items():
        for mask in _minimal_masks(masks):
            fds.append(CanonicalFD(
                frozenset(names[i] for i in iter_bits(mask)),
                names[attribute]))

    # ------------------------------------------------------------------
    # compatibility ODs: escalate per unordered pair
    # ------------------------------------------------------------------
    pair_seeds: Dict[Tuple[int, int], List[int]] = {}
    for ocd in sample_result.ocds:
        a, b = sorted((index[ocd.left], index[ocd.right]))
        pair_seeds.setdefault((a, b), []).append(mask_of(ocd.context))
    # A pair can also become minimal on full data where the sample saw
    # a constant instead (Propagate hid it): seed those pairs from the
    # sample's FDs as well.
    for fd in sample_result.fds:
        a = index[fd.attribute]
        fd_mask = mask_of(fd.context)
        for b in range(encoded.arity):
            if b == a:
                continue
            pair = tuple(sorted((a, b)))
            pair_seeds.setdefault(pair, []).append(fd_mask)

    ocds: List[CanonicalOCD] = []
    if not timed_out:
        for (a, b), seeds in pair_seeds.items():
            forbidden = (1 << a) | (1 << b)
            seeds = [mask & ~forbidden for mask in seeds]
            valid_masks, cut = _escalate(
                seeds, attribute_bit=forbidden, full_mask=full_mask,
                validate=lambda wave, a=a, b=b: validate_wave(
                    wave, "swap", a, b),
                budget=budget)
            if cut:
                timed_out = True
                break
            for mask in _minimal_masks(valid_masks):
                # Propagate: not minimal if either side is constant there
                if _constant_within(valid_fd_masks.get(a, set()), mask) \
                        or _constant_within(valid_fd_masks.get(b, set()),
                                            mask):
                    continue
                ocds.append(CanonicalOCD(
                    frozenset(names[i] for i in iter_bits(mask)),
                    names[a], names[b]))

    result = DiscoveryResult(
        algorithm="FASTOD-Hybrid",
        attribute_names=names,
        n_rows=encoded.n_rows,
        fds=sorted(fds, key=CanonicalFD.sort_key),
        ocds=sorted(ocds, key=CanonicalOCD.sort_key),
        timed_out=timed_out,
        config={"sample_size": sample_size, "seed": seed,
                "workers": workers, "timeout_seconds": timeout_seconds},
    )
    result.elapsed_seconds = time.perf_counter() - started
    return result


def _escalate(seeds: List[int], *, attribute_bit: int, full_mask: int,
              validate, budget: DeadlineBudget
              ) -> Tuple[Set[int], bool]:
    """Wave-wise BFS from sample-valid contexts to full-data-valid
    contexts.

    Contexts never include the target attribute(s) (``attribute_bit``).
    The frontier is processed in waves of equal context size — the
    masks of one wave are independent, which is what lets ``validate``
    check a whole wave in parallel.  Subset-of-valid skipping works
    exactly as in the sequential BFS: a skipping subset always has a
    strictly smaller size, hence was decided in an earlier wave; the
    filter tests against the *minimal* valid masks (computed once per
    wave — a superset of a valid mask is always a superset of a minimal
    one), not the whole valid set per candidate.

    Returns ``(valid, timed_out)``: every *visited* context that
    validated (children of a valid context are not explored — they
    cannot be minimal below it), and whether the shared budget cut the
    escalation short.  The budget is consulted before every wave and
    inside every wave's dispatch, so expiry between waves is noticed
    immediately instead of after the next full wave.
    """
    frontier = sorted(set(seeds), key=bit_count)
    seen: Set[int] = set(frontier)
    valid: Set[int] = set()
    while frontier:
        if budget.hit():
            return valid, True
        size = bit_count(frontier[0])
        wave = [mask for mask in frontier if bit_count(mask) == size]
        rest = [mask for mask in frontier if bit_count(mask) > size]
        minimal_valid = _minimal_masks(valid)
        wave = [mask for mask in wave
                if not any(prior & mask == prior
                           for prior in minimal_valid)]
        verdicts, timed_out = validate(wave)
        children: List[int] = []
        for mask in wave:
            ok = verdicts.get(mask)
            if ok is None:
                continue       # cut by the deadline mid-wave
            if ok:
                valid.add(mask)
                continue
            for attribute in iter_bits(full_mask & ~mask & ~attribute_bit):
                child = mask | (1 << attribute)
                if child not in seen:
                    seen.add(child)
                    children.append(child)
        if timed_out:
            return valid, True
        frontier = sorted(rest + children, key=bit_count)
    return valid, False


def _minimal_masks(masks: Set[int]) -> List[int]:
    """Keep only set-inclusion-minimal masks."""
    ordered = sorted(masks, key=bit_count)
    kept: List[int] = []
    for mask in ordered:
        if not any(prior & mask == prior for prior in kept):
            kept.append(mask)
    return kept


def _constant_within(valid_fd_masks: Set[int], context_mask: int) -> bool:
    """Is the attribute constant in this context, per the escalated
    full-data FD validity sets?"""
    return any(mask & context_mask == mask for mask in valid_fd_masks)
