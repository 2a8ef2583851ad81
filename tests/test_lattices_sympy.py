"""Differential check of `hnf_rows` against sympy's Hermite normal form.

sympy is a test-only dependency (the ``test`` extra); the library itself
uses the standard library alone.
"""

import pytest
from hypothesis import find, given, settings, strategies as st
from hypothesis.errors import NoSuchExample

from starpull.lattices import hnf_rows

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

# one to five rows of one width, 1 to 3: one branch per width
_WIDTHS = (1, 2, 3)
_ROWS = st.one_of(*(st.lists(st.lists(st.integers(-20, 20), min_size=width, max_size=width),
                             min_size=1, max_size=5) for width in _WIDTHS))


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


def test_rows_are_one_to_five_rows_of_each_width():
    for width in _WIDTHS:
        find(_ROWS, lambda rows, width=width: {len(row) for row in rows} == {width})
    # find's own default is 2,000 examples; 100 is what a @given test draws
    with pytest.raises(NoSuchExample):
        find(_ROWS, lambda rows: not 1 <= len(rows) <= 5 or len({len(row) for row in rows}) > 1
             or len(rows[0]) not in _WIDTHS, settings=settings(max_examples=100))
