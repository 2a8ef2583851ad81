"""Exact small-matrix helpers: xgcd, Hermite forms, lattice membership,
rational row reduction.

All matrices here are tiny (at most 4 columns, a handful of rows), so the
algorithms favor clarity over asymptotics.  Integer matrices are lists of
row lists; rational rows (Fraction entries, for lines over a field) enter
only rational_rref.  The Hermite form is the one canonical basis of every
integer lattice in base_domain, D's own unit module included: one pass
over the columns folds the rows into a pivot and reduces the rows above it.
"""

from __future__ import annotations

from fractions import Fraction


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    # g, s, t with s*a + t*b == g and g >= 0
    s, next_s = 1, 0
    t, next_t = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        s, next_s = next_s, s - q * next_s
        t, next_t = next_t, t - q * next_t
        g, next_g = next_g, g - q * next_g
    if g < 0:
        s, t, g = -s, -t, -g
    return g, s, t


def hnf_rows(rows: list[list[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form, computed column by column
    (Cohen, GTM 138, §2.4.2).

    Returns an echelon basis with positive pivots, pivot columns strictly
    increasing, and entries above each pivot reduced into [0, pivot).
    The result is the unique canonical basis of the row span.
    """
    width = len(rows[0]) if rows else 0
    work = [list(r) for r in rows]
    basis: list[list[int]] = []
    for j in range(width):
        # every row in work is zero left of column j: fold the rows nonzero
        # at j into one pivot by xgcd steps, which leave them zero at j
        pivot, rest = [0] * width, []
        for row in work:
            if row[j] and not pivot[j]:
                pivot, row = row, pivot
            elif row[j]:
                g, s, t = xgcd(pivot[j], row[j])
                a, b = pivot[j] // g, row[j] // g
                pivot, row = ([s * p + t * v for p, v in zip(pivot, row)],
                              [a * v - b * p for p, v in zip(pivot, row)])
            if any(row):
                rest.append(row)
        work = rest
        if pivot[j] < 0:
            pivot = [-v for v in pivot]
        if pivot[j]:
            # the pivot row is zero left of j, so earlier columns stay reduced
            for up in basis:
                q = up[j] // pivot[j]
                if q:
                    up[:] = [u - q * p for u, p in zip(up, pivot)]
            basis.append(pivot)
    return basis


def rational_rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    work = [[Fraction(v) for v in r] for r in rows]
    m = len(work)
    n = len(work[0]) if work else 0
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if work[i][c] != 0), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = 1 / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(m):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return work, pivots


def lattice_member(target: list[int], n: int, rows: list[list[int]]) -> bool:
    """Does target/n lie in the Z-span of rows, an integer echelon basis?"""
    work = list(target)
    for row in rows:
        j = 0
        while not row[j]:
            j += 1
        q, r = divmod(work[j], n * row[j])
        if r:
            return False
        if q:
            work = [w - q * n * v for w, v in zip(work, row)]
    return not any(work)
