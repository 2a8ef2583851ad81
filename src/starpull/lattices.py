"""Exact small-matrix helpers: xgcd, Hermite forms, lattice membership,
rational row reduction.

All matrices here are tiny (at most 4 columns, a handful of rows), so the
algorithms favor clarity over asymptotics.  Integer matrices are lists of
row lists; rational ones, used only for lines over a field, have Fraction
entries.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


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
    """Canonical row Hermite normal form.

    Returns an echelon basis with positive pivots, pivot columns strictly
    increasing, and entries above each pivot reduced into [0, pivot).
    The result is the unique canonical basis of the row span.
    """
    basis: list[list[int]] = []  # kept sorted by pivot column
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
    # positive pivots, then reduce entries above each pivot
    for row in basis:
        j = next(i for i, v in enumerate(row) if v)
        if row[j] < 0:
            row[:] = [-v for v in row]
    # left to right: row i is zero left of its pivot, so reducing a row
    # above it keeps the columns already reduced
    for i in range(len(basis)):
        j = next(k for k, v in enumerate(basis[i]) if v)
        p = basis[i][j]
        for up in range(i):
            q = basis[up][j] // p
            if q:
                basis[up] = [a - q * b for a, b in zip(basis[up], basis[i])]
    return [list(r) for r in basis]


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


def primitive_int_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    """Scale each rational row to a primitive integer vector."""
    out = []
    for row in rows:
        denom = 1
        for v in row:
            denom = lcm(denom, v.denominator)
        ints = [int(v * denom) for v in row]
        g = 0
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        out.append(ints)
    return out


def lattice_member(target: list[int], n: int, rows: list[list[int]]) -> bool:
    """Does target/n lie in the Z-span of rows, an integer echelon basis?"""
    work = list(target)
    for row in rows:
        j = next(i for i, v in enumerate(row) if v)
        q, r = divmod(work[j], n * row[j])
        if r:
            return False
        if q:
            work = [w - q * n * v for w, v in zip(work, row)]
    return not any(work)
