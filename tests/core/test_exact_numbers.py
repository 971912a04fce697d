"""Integers past float precision keep their own ranks.

``sort_key`` keys integers by their exact ``int``: ``2**53`` and
``2**53 + 1`` are one float but two values, and ``10**400`` has no
float at all.  The oracle here is independent of the encoding (which
``baselines/bruteforce.py`` shares): Definitions 4 and 5 evaluated
pairwise on the raw cell values, with Python's exact int/float
comparisons.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.od import CanonicalFD, CanonicalOCD
from repro.core.validation import CanonicalValidator
from repro.errors import DataError
from repro.relation.encoding import rank_encode_column, sort_key
from repro.relation.table import Relation

BIG = 2 ** 53
HUGE = 10 ** 400

cells = st.one_of(
    st.integers(-2, 2).map(lambda k: BIG + k),
    st.integers(-2, 2).map(lambda k: -BIG + k),
    st.integers(-1, 1).map(lambda k: HUGE + k),
    st.integers(-1, 1),
    st.sampled_from([float(BIG), 0.5, 1.0, float("inf")]),
)


@st.composite
def relations(draw) -> Relation:
    n_cols = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(st.tuples(*([cells] * n_cols)), max_size=7))
    return Relation.from_rows([f"c{i}" for i in range(n_cols)], rows)


def agree(s, t, context) -> bool:
    return all(s[c] == t[c] for c in context)


def fd_holds(rows, context, a) -> bool:
    """Definition 4: ``X: [] -> A`` iff tuples equal on ``X`` are
    equal on ``A``."""
    return all(s[a] == t[a] for s, t in combinations(rows, 2)
               if agree(s, t, context))


def ocd_holds(rows, context, a, b) -> bool:
    """Definition 5: ``X: A ~ B`` iff no two tuples equal on ``X``
    swap (``s_A < t_A`` while ``t_B < s_B``)."""
    return not any(s[a] < t[a] and t[b] < s[b]
                   for s, t in permutations(rows, 2)
                   if agree(s, t, context))


def candidates(arity: int):
    """Every non-trivial canonical FD/OCD over ``c0..c{arity-1}``, as
    ``(od, oracle verdict function of the raw rows)``."""
    names = [f"c{i}" for i in range(arity)]
    for a in range(arity):
        others = [i for i in range(arity) if i != a]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                yield (CanonicalFD({names[i] for i in context}, names[a]),
                       lambda rows, c=context, a=a: fd_holds(rows, c, a))
    for a, b in combinations(range(arity), 2):
        others = [i for i in range(arity) if i not in (a, b)]
        for size in range(len(others) + 1):
            for context in combinations(others, size):
                yield (CanonicalOCD({names[i] for i in context},
                                    names[a], names[b]),
                       lambda rows, c=context, a=a, b=b:
                       ocd_holds(rows, c, a, b))


@settings(max_examples=150, deadline=None)
@given(relations())
def test_validator_matches_pairwise_definitions(relation):
    rows = list(relation.rows())
    validator = CanonicalValidator(relation)
    for od, oracle in candidates(relation.arity):
        assert validator.holds(od) == oracle(rows), str(od)


def test_neighbours_past_float_precision_are_distinct():
    assert float(BIG) == float(BIG + 1)
    assert rank_encode_column([BIG, BIG + 1, 1]).tolist() == [1, 2, 0]
    relation = Relation.from_rows(["x", "y"],
                                  [(BIG, 1), (BIG + 1, 2), (1, 3)])
    assert CanonicalValidator(relation).holds(CanonicalFD({"x"}, "y"))


def test_ints_and_floats_still_share_ranks():
    column = [1, 1.0, np.int64(1), np.float64(1.0), BIG, float(BIG),
              HUGE, float("inf")]
    assert rank_encode_column(column).tolist() == [0, 0, 0, 0, 1, 1, 2, 3]


@pytest.mark.parametrize("value", [1j, complex(2, 0), np.complex128(1)])
def test_non_real_numbers_are_a_data_error(value):
    with pytest.raises(DataError, match="non-real"):
        sort_key(value)
