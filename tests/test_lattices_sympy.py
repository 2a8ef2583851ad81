"""Differential check of `hnf_rows` against sympy's Hermite normal form.

sympy is a test-only dependency (the ``test`` extra); the library itself
uses the standard library alone.
"""

import pytest
from hypothesis import given, settings, strategies as st

from starpull.lattices import hnf_rows

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

_ROWS = st.integers(1, 3).flatmap(
    lambda width: st.lists(st.lists(st.integers(-20, 20), min_size=width, max_size=width),
                           min_size=1, max_size=5))


def _pivot(row):
    return next(i for i, v in enumerate(row) if v)


@given(_ROWS)
@settings(max_examples=150, deadline=None)
def test_hnf_rows_spans_the_same_lattice_as_sympy(rows):
    ours = hnf_rows(rows)
    # sympy works on column spans, so its basis of the row span comes
    # from the transpose
    ref = hermite_normal_form(sympy.Matrix(rows).T).T
    assert len(ours) == ref.rows
    if not ours:
        return
    h = sympy.Matrix(ours)
    # h = c * ref for the unique rational c, since ref has full row rank
    c = h * ref.T * (ref * ref.T).inv()
    assert c * ref == h
    assert all(v.is_integer for v in c)
    assert c.det() in (1, -1)


@given(_ROWS)
@settings(max_examples=150, deadline=None)
def test_hnf_rows_has_hermite_shape(rows):
    ours = hnf_rows(rows)
    pivots = [_pivot(r) for r in ours]
    assert pivots == sorted(set(pivots))
    for i, (row, j) in enumerate(zip(ours, pivots)):
        assert row[j] > 0
        assert all(0 <= ours[up][j] < row[j] for up in range(i))
