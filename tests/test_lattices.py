"""Integer matrix helpers: Hermite forms and lattice membership."""

from hypothesis import given, settings, strategies as st

from starpull.lattices import (
    hnf_rows,
    lattice_member,
    xgcd,
)

import reference_membership as former


def _reference_hnf(rows):
    """Reference: the pivot-search echelon form that the column-wise
    hnf_rows replaced.  Each incoming vector is reduced against the basis
    row with its pivot column, or inserted in pivot order; then pivots
    are made positive and the entries above them reduced."""
    basis = []
    for vec0 in rows:
        vec = list(vec0)
        while any(vec):
            j = next(i for i, v in enumerate(vec) if v)
            slot = None
            for idx, row in enumerate(basis):
                p = next(i for i, v in enumerate(row) if v)
                if p == j:
                    slot = idx
                    break
                if p > j:
                    break
            if slot is None:
                pos = 0
                while pos < len(basis) and next(i for i, v in enumerate(basis[pos]) if v) < j:
                    pos += 1
                basis.insert(pos, vec)
                break
            row = basis[slot]
            a, b = row[j], vec[j]
            if b % a == 0:
                q = b // a
                vec = [v - q * r for v, r in zip(vec, row)]
            else:
                g, s, t = xgcd(a, b)
                new_row = [s * r + t * v for r, v in zip(row, vec)]
                vec = [(a // g) * v - (b // g) * r for r, v in zip(row, vec)]
                row[:] = new_row
    for row in basis:
        j = next(i for i, v in enumerate(row) if v)
        if row[j] < 0:
            row[:] = [-v for v in row]
    for i in range(len(basis)):
        j = next(k for k, v in enumerate(basis[i]) if v)
        p = basis[i][j]
        for up in range(i):
            q = basis[up][j] // p
            if q:
                basis[up] = [a - q * b for a, b in zip(basis[up], basis[i])]
    return basis


# zeros and small entries are common, so pivots divide one another often
_ENTRY = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10 ** 6, 10 ** 6))


@st.composite
def _matrices(draw):
    """1-4 columns and 0-8 rows: zero rows, and up to two rows that are
    integer combinations of earlier ones."""
    cols = draw(st.integers(1, 4))
    row = st.one_of(st.just([0] * cols), st.lists(_ENTRY, min_size=cols, max_size=cols))
    rows = draw(st.lists(row, max_size=6))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        s, t = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        rows.append([s * x + t * y for x, y in zip(a, b)])
    return draw(st.permutations(rows))


@given(_matrices())
@settings(max_examples=500, deadline=None)
def test_hnf_matches_pivot_search_reference(rows):
    before = [list(r) for r in rows]
    assert hnf_rows(rows) == _reference_hnf(before)
    assert rows == before


def test_xgcd():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1)]:
        g, s, t = xgcd(a, b)
        assert g >= 0
        assert s * a + t * b == g


def test_hnf_canonical_for_generating_sets_of_same_lattice():
    rows1 = [[2, 0], [1, 1]]
    rows2 = [[1, 1], [0, 2]]
    rows3 = [[3, 1], [1, 1], [2, 0]]
    assert hnf_rows(rows1) == hnf_rows(rows2) == hnf_rows(rows3) == [[1, 1], [0, 2]]


def test_hnf_pivot_reduction():
    assert hnf_rows([[4, 1], [0, 3]]) == [[4, 1], [0, 3]]
    assert hnf_rows([[-2, 0]]) == [[2, 0]]
    assert hnf_rows([[0, 0]]) == []


def test_hnf_reduces_above_every_pivot_in_three_columns():
    # reducing row 0 by the pivot-1 row must not undo its pivot-2 entry
    assert hnf_rows([[0, 0, 2], [1, -1, 1], [1, 0, 0]]) == [[1, 0, 0], [0, 1, 1], [0, 0, 2]]


def test_lattice_member():
    # target/n against the Z-span of an integer echelon basis
    rows = [[1, 1], [0, 2]]
    assert lattice_member([3, 1], 1, rows)
    assert not lattice_member([1, 0], 1, rows)
    assert lattice_member([2, 2], 2, rows)
    assert not lattice_member([1, 1], 2, rows)
    assert lattice_member([-6, 0], 3, rows)
    assert lattice_member([0, 6], 2, [[0, 3]])
    assert not lattice_member([0, 3], 2, [[0, 3]])
    assert not lattice_member([2, 6], 2, [[0, 3]])


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4),
       st.lists(st.integers(-30, 30), min_size=3, max_size=3), st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_lattice_member_matches_the_former_body(rows, target, n, k):
    # echelon bases with zero leading columns, and targets scaled by k
    # into the lattice as well as ones mostly outside it
    basis = hnf_rows(rows)
    inside = [k * n * sum(row[i] for row in basis) for i in range(3)]
    for vec in (target, inside):
        assert lattice_member(vec, n, basis) == former.lattice_member(vec, n, basis)
    assert lattice_member(inside, n, basis)
