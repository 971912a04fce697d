"""Violation detection: witnesses are genuine, counts are exact."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.od import CanonicalFD, CanonicalOCD
from repro.partitions.partition import StrippedPartition
from repro.violations import (
    ViolationDetector,
    check_dependency,
    count_split_pairs,
    count_swap_pairs,
)
from tests.conftest import make_relation, small_relations


class TestCountSplitPairs:
    def test_basic(self):
        column = np.array([1, 2, 2, 3])
        partition = StrippedPartition([[0, 1, 2, 3]], 4)
        # pairs differing on the column: C(4,2)=6 minus same-value (1)
        assert count_split_pairs(column, partition) == 5

    def test_no_splits(self):
        column = np.array([7, 7, 8])
        partition = StrippedPartition([[0, 1]], 3)
        assert count_split_pairs(column, partition) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=0, max_size=10))
    def test_matches_quadratic_count(self, rows):
        relation = make_relation(2, rows)
        encoded = relation.encode()
        c0, c1 = encoded.column(0), encoded.column(1)
        partition = StrippedPartition.from_ranks(c0)
        expected = sum(
            1 for i in range(len(rows)) for j in range(i + 1, len(rows))
            if c0[i] == c0[j] and c1[i] != c1[j])
        assert count_split_pairs(c1, partition) == expected


class TestCountSwapPairs:
    def test_basic(self):
        a = np.array([0, 1, 2])
        b = np.array([2, 1, 0])
        partition = StrippedPartition([[0, 1, 2]], 3)
        assert count_swap_pairs(a, b, partition) == 3

    def test_equal_a_pairs_ignored(self):
        a = np.array([1, 1])
        b = np.array([9, 0])
        partition = StrippedPartition([[0, 1]], 2)
        assert count_swap_pairs(a, b, partition) == 0

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                    min_size=0, max_size=12))
    def test_matches_quadratic_count(self, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.int64)
        b = np.array([p[1] for p in pairs], dtype=np.int64)
        partition = (StrippedPartition([list(range(len(pairs)))], len(pairs))
                     if len(pairs) >= 2 else StrippedPartition([], len(pairs)))
        expected = sum(
            1 for i in range(len(pairs)) for j in range(len(pairs))
            if a[i] < a[j] and b[i] > b[j])
        assert count_swap_pairs(a, b, partition) == expected


class TestDetector:
    def test_fd_report(self):
        relation = make_relation(2, [(1, 5), (1, 6), (2, 7)])
        report = check_dependency(relation, CanonicalFD({"c0"}, "c1"))
        assert not report.holds
        assert report.n_violating_pairs == 1
        witness = report.witnesses[0]
        assert relation.row(witness.row_s)[0] == \
            relation.row(witness.row_t)[0]

    def test_ocd_report(self):
        relation = make_relation(2, [(1, 2), (2, 1)])
        report = check_dependency(relation, CanonicalOCD(set(), "c0", "c1"))
        assert not report.holds
        assert report.n_violating_pairs == 1

    def test_string_dependency(self):
        relation = make_relation(2, [(1, 5), (2, 5)])
        report = check_dependency(relation, "{}: [] -> c1")
        assert report.holds

    def test_list_od_decomposed(self):
        relation = make_relation(2, [(1, 9), (1, 8), (2, 7)])
        report = check_dependency(relation, "[c0] -> [c1]")
        assert not report.holds
        assert report.parts  # Theorem 5 sub-reports present
        assert any(not part.holds for part in report.parts)

    def test_compatibility_dependency(self):
        relation = make_relation(2, [(1, 2), (2, 1)])
        report = check_dependency(relation, "[c0] ~ [c1]")
        assert not report.holds

    def test_trivial_dependency(self):
        relation = make_relation(1, [(1,), (2,)])
        assert check_dependency(relation, "{c0}: [] -> c0").holds

    def test_witness_limit(self):
        rows = [(i // 2, i) for i in range(20)]
        relation = make_relation(2, rows)
        report = ViolationDetector(relation).check(
            "{c0}: [] -> c1", max_witnesses=2)
        assert len(report.witnesses) == 2

    def test_unsupported_object(self):
        relation = make_relation(1, [(1,)])
        with pytest.raises(TypeError):
            ViolationDetector(relation).check(42)

    def test_report_str(self):
        relation = make_relation(2, [(1, 5), (1, 6)])
        report = check_dependency(relation, "{c0}: [] -> c1")
        text = str(report)
        assert "violated" in text and "split" in text

    @settings(max_examples=60, deadline=None)
    @given(small_relations(max_cols=3, max_rows=8, max_domain=2))
    def test_holds_agrees_with_validator(self, relation):
        from repro.core.validation import CanonicalValidator

        detector = ViolationDetector(relation)
        validator = CanonicalValidator(relation)
        names = list(relation.names)
        for attribute in names:
            fd = CanonicalFD(
                frozenset(n for n in names if n != attribute), attribute)
            assert detector.check(fd).holds == validator.holds(fd)


#: 200 rows, ten context classes of 20 on c0: c1 is constant in every
#: class and c2 rises with it; c3 varies inside every class and c4
#: falls as c3 rises
CHECK_ROWS = [(i % 10, i % 10, 2 * (i % 10), i % 7, -(i % 7))
              for i in range(200)]
HOLDING = ["{c0}: [] -> c1", "{c0}: c1 ~ c2"]
VIOLATED = ["{c0}: [] -> c3", "{c0}: c3 ~ c4"]
#: (dependency, the scan kernel its verdict and its witnesses run,
#: holds?)
CHECKS = [(HOLDING[0], "split_mismatch", True),
          (HOLDING[1], "swap_verdicts", True),
          (VIOLATED[0], "split_mismatch", False),
          (VIOLATED[1], "swap_verdicts", False)]


class TestOneVerdictPerCheck:
    """A check takes its verdict once, from the validator's executor;
    witnesses and pair counts follow only a violation."""

    @staticmethod
    def _count_scan_kernels(monkeypatch):
        calls = {}
        for name in ("split_mismatch", "swap_flags", "swap_verdicts"):
            def counted(*args, _name=name, _kernel=getattr(kernels, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _kernel(*args)
            monkeypatch.setattr(kernels, name, counted)
        return calls

    @pytest.mark.parametrize("dependency,kernel,holds", CHECKS)
    @pytest.mark.parametrize("details", [False, True],
                             ids=["validate", "violations"])
    def test_one_verdict_then_details_of_violations(
            self, monkeypatch, dependency, kernel, holds, details):
        detector = ViolationDetector(make_relation(5, CHECK_ROWS))
        calls = self._count_scan_kernels(monkeypatch)
        report = detector.check(dependency,
                                max_witnesses=3 if details else 0,
                                count_pairs=details)
        assert report.holds is holds
        explained = details and not holds
        assert bool(report.witnesses) is explained
        assert (report.n_violating_pairs > 0) is explained
        # the verdict is one kernel call; witnesses take one more
        assert calls == {kernel: 2 if explained else 1}
