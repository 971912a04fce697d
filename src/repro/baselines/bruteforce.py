"""Exhaustive ground-truth discovery (the testing oracle).

Enumerates *every* context set and candidate, validating each one
directly.  Exponential-times-quadratic cost — only usable on small
relations — but its correctness is immediate from the definitions,
which makes it the oracle that FASTOD's completeness and minimality
(Theorem 8) are tested against.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations
from typing import Iterator, List, Optional, Set, Tuple

from repro.core.od import CanonicalFD, CanonicalOCD, ListOD
from repro.core.results import DiscoveryResult
from repro.core.validation import (
    CanonicalValidator,
    is_compatible_in_classes,
    is_constant_in_classes,
    list_od_holds,
)
from repro.partitions.cache import PartitionCache
from repro.relation.schema import bit_count, iter_bits
from repro.relation.table import Relation


def _submasks_proper(mask: int) -> Iterator[int]:
    """All proper submasks of ``mask`` (excluding ``mask`` itself)."""
    if mask == 0:
        return
    sub = (mask - 1) & mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def all_valid_canonical_ods(relation: Relation,
                            max_context: Optional[int] = None
                            ) -> Tuple[Set[CanonicalFD], Set[CanonicalOCD]]:
    """Every valid *non-trivial* canonical OD on the instance.

    FDs are keyed by (context, attribute) with ``A ∉ X``; OCDs by
    (context, {A,B}) with ``A,B ∉ X`` and ``A ≠ B``.
    """
    encoded = relation.encode()
    cache = PartitionCache(encoded)
    names = encoded.names
    arity = encoded.arity
    fds: Set[CanonicalFD] = set()
    ocds: Set[CanonicalOCD] = set()
    for context_mask in range(1 << arity):
        if max_context is not None and bit_count(context_mask) > max_context:
            continue
        partition = cache.get(context_mask)
        context = frozenset(names[i] for i in iter_bits(context_mask))
        outside = [a for a in range(arity) if not context_mask & (1 << a)]
        for attribute in outside:
            if is_constant_in_classes(encoded.column(attribute), partition):
                fds.add(CanonicalFD(context, names[attribute]))
        for a, b in combinations(outside, 2):
            if is_compatible_in_classes(encoded.column(a),
                                        encoded.column(b), partition,
                                        encoded.order(a)):
                ocds.add(CanonicalOCD(context, names[a], names[b]))
    return fds, ocds


def minimal_canonical_ods(relation: Relation) -> DiscoveryResult:
    """The complete *minimal* set of canonical ODs, by definition.

    * ``X: [] ↦ A`` is minimal iff valid, non-trivial, and no proper
      subset context ``Y ⊂ X`` has ``Y: [] ↦ A`` valid
      (Augmentation-I).
    * ``X: A ~ B`` is minimal iff valid, non-trivial, no proper subset
      context works (Augmentation-II), and neither ``X: [] ↦ A`` nor
      ``X: [] ↦ B`` is valid (Propagate).
    """
    started = time.perf_counter()
    valid_fds, valid_ocds = all_valid_canonical_ods(relation)
    fd_keys = {(fd.context, fd.attribute) for fd in valid_fds}
    ocd_keys = {(od.context, od.pair) for od in valid_ocds}
    names = relation.names
    index = {name: i for i, name in enumerate(names)}

    def mask_of(context) -> int:
        mask = 0
        for name in context:
            mask |= 1 << index[name]
        return mask

    def has_smaller_context(context, probe) -> bool:
        context_mask = mask_of(context)
        for sub in _submasks_proper(context_mask):
            sub_context = frozenset(names[i] for i in iter_bits(sub))
            if probe(sub_context):
                return True
        return False

    minimal_fds = [
        fd for fd in valid_fds
        if not has_smaller_context(
            fd.context, lambda ctx, a=fd.attribute: (ctx, a) in fd_keys)
    ]
    minimal_ocds = [
        od for od in valid_ocds
        if (od.context, od.left) not in ocd_trivializers(fd_keys)
        and (od.context, od.left) not in fd_keys
        and (od.context, od.right) not in fd_keys
        and not has_smaller_context(
            od.context, lambda ctx, p=od.pair: (ctx, p) in ocd_keys)
    ]
    result = DiscoveryResult(
        algorithm="BruteForce",
        attribute_names=names,
        n_rows=relation.n_rows,
        fds=sorted(minimal_fds, key=CanonicalFD.sort_key),
        ocds=sorted(minimal_ocds, key=CanonicalOCD.sort_key),
    )
    result.elapsed_seconds = time.perf_counter() - started
    return result


def ocd_trivializers(fd_keys) -> set:
    """Placeholder hook kept separate for clarity; minimality of OCDs
    only depends on the two Propagate checks and the subset scan, so
    this returns an empty set."""
    return set()


def all_valid_list_ods(relation: Relation, max_lhs: int = 2,
                       max_rhs: int = 2) -> List[ListOD]:
    """Every valid list OD ``X ↦ Y`` over duplicate-free specs of
    bounded length (used to audit the ORDER baseline's completeness)."""
    names = relation.names
    encoded = relation.encode()
    found: List[ListOD] = []
    lhs_specs = _specs(names, max_lhs)
    rhs_specs = _specs(names, max_rhs)
    for lhs in lhs_specs:
        for rhs in rhs_specs:
            if not rhs:
                continue
            od = ListOD(lhs, rhs)
            if list_od_holds(encoded, od):
                found.append(od)
    return found


def _specs(names, max_len: int) -> List[Tuple[str, ...]]:
    specs: List[Tuple[str, ...]] = [()]
    for length in range(1, max_len + 1):
        specs.extend(permutations(names, length))
    return specs


def validate_result_is_sound(relation: Relation,
                             result: DiscoveryResult) -> List[str]:
    """Re-validate every OD in a result; returns a list of violations
    (empty means sound).  Used by tests on every algorithm."""
    validator = CanonicalValidator(relation.encode())
    complaints = []
    for od in result.all_ods:
        if not validator.holds(od):
            complaints.append(f"reported OD does not hold: {od}")
    return complaints
