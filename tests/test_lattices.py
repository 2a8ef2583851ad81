"""Integer matrix helpers: Hermite forms and lattice membership."""

from starpull.lattices import (
    hnf_rows,
    lattice_member,
    xgcd,
)


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
