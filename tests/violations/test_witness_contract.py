"""The witness contract, differentially, on hypothesis relations.

``CanonicalValidator.witness`` and ``ViolationDetector`` report the
stops of one swap walk (and the first mismatch of one split scan) as
tuple pairs.  Whatever pair they pick, on relations with ties, narrow
domains, 0- to 2-row inputs and random contexts:

* every witness is a split or swap (Definitions 4 and 5): the two rows
  are equal on the context and differ on ``A`` (a split), or
  ``s ≺_A t`` and ``t ≺_B s`` (a swap);
* the detector's witnesses come from distinct context classes and
  number ``min(max_witnesses, offending classes)``, the validator's
  witness being the detector's first;
* a witness exists iff the list-level oracles (``list_od_holds`` for
  ``X ↦ XA``, ``order_compatible`` for ``XA ~ XB``) say the
  dependency fails;
* the reference and compiled backends report the identical lists.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.od import (
    CanonicalFD,
    CanonicalOCD,
    ListOD,
    OrderCompatibility,
)
from repro.core.validation import (
    CanonicalValidator,
    list_od_holds,
    order_compatible,
)
from repro.violations import ViolationDetector
from tests.conftest import small_relations

BACKENDS = ["reference"] + (["compiled"] if kernels.compiled_available()
                            else [])


def _witnesses(relation, od, max_witnesses):
    """``(validator witness, detector witnesses, detector verdict)``
    for ``od`` under each backend; the backends must agree."""
    seen = {}
    for name in BACKENDS:
        # one activation pins the validator's and the detector's
        # scans and witness walks alike
        with kernels.activate(name):
            validator = CanonicalValidator(relation)
            report = ViolationDetector(relation).check(
                od, max_witnesses=max_witnesses)
            seen[name] = (validator.witness(od), report.witnesses,
                          report.holds)
    assert len(set(map(repr, seen.values()))) == 1, seen
    return seen["reference"]


def _context_classes(encoded, context):
    """Row -> its context class key, and the rows of every class."""
    columns = [encoded.column(encoded.names.index(name))
               for name in sorted(context)]
    key_of = {row: tuple(int(column[row]) for column in columns)
              for row in range(encoded.n_rows)}
    classes = {}
    for row, key in key_of.items():
        classes.setdefault(key, []).append(row)
    return key_of, list(classes.values())


@st.composite
def dependencies(draw):
    """A relation with at least two columns, a random context, the
    (A, B) pair outside it and a witness bound."""
    relation = draw(small_relations(max_cols=4, max_rows=12,
                                    max_domain=2).filter(
        lambda relation: relation.arity >= 2))
    names = list(relation.names)
    left, right, *rest = draw(st.permutations(names))
    kept = draw(st.lists(st.booleans(), min_size=len(rest),
                         max_size=len(rest)))
    context = {name for name, keep in zip(rest, kept) if keep}
    return relation, context, left, right, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None)
@given(dependencies())
def test_split_witness_contract(case):
    relation, context, attribute, _, max_witnesses = case
    encoded = relation.encode()
    column = encoded.column(encoded.names.index(attribute))
    key_of, classes = _context_classes(encoded, context)
    offending = sum(1 for rows in classes
                    if len({int(column[row]) for row in rows}) > 1)
    ordered = sorted(context)
    holds = list_od_holds(relation, ListOD(ordered, ordered + [attribute]))
    assert holds == (offending == 0)

    witness, witnesses, reported = _witnesses(
        relation, CanonicalFD(context, attribute), max_witnesses)
    assert reported == holds
    assert (witness is None) == holds
    assert len(witnesses) == min(max_witnesses, offending)
    assert len({key_of[split.row_t] for split in witnesses}) == \
        len(witnesses)
    if witnesses:
        assert witness == witnesses[0]
    for split in witnesses:
        assert key_of[split.row_s] == key_of[split.row_t]
        assert column[split.row_s] != column[split.row_t]


@settings(max_examples=300, deadline=None)
@given(dependencies())
def test_swap_witness_contract(case):
    relation, context, left, right, max_witnesses = case
    ocd = CanonicalOCD(context, left, right)
    # A ~ B is symmetric: the OCD orders its pair, and witnesses are
    # oriented by that order
    left, right = ocd.left, ocd.right
    encoded = relation.encode()
    column_a = encoded.column(encoded.names.index(left))
    column_b = encoded.column(encoded.names.index(right))
    key_of, classes = _context_classes(encoded, context)
    offending = sum(1 for rows in classes if any(
        column_a[s] < column_a[t] and column_b[s] > column_b[t]
        for s in rows for t in rows))
    ordered = sorted(context)
    holds = order_compatible(relation, OrderCompatibility(
        ordered + [left], ordered + [right]))
    assert holds == (offending == 0)

    witness, witnesses, reported = _witnesses(relation, ocd,
                                              max_witnesses)
    assert reported == holds
    assert (witness is None) == holds
    assert len(witnesses) == min(max_witnesses, offending)
    assert len({key_of[swap.row_t] for swap in witnesses}) == \
        len(witnesses)
    if witnesses:
        assert witness == witnesses[0]
    for swap in witnesses:
        assert key_of[swap.row_s] == key_of[swap.row_t]
        assert column_a[swap.row_s] < column_a[swap.row_t]
        assert column_b[swap.row_s] > column_b[swap.row_t]
