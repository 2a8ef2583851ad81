"""Reference bodies for tests: the former membership path, which builds a
reduced scalar per test.

``contains`` decides a reduced ``FieldElem``; ``poly_at_zero`` and
``local_at_zero`` return phi(h*g) as one reduced scalar; ``content``
takes the lcm of every denominator and the gcd of every numerator;
``ord_zero`` and ``lattice_member`` find a first nonzero entry through
``next``; ``ratfunc_init`` runs the gcd whatever the numerator; and
``truediv`` divides by a nonzero constant by scaling the numerator
through a scalar inverse.  The library's bodies decide on integer
quadruples, skip what cannot change the result and loop by hand;
``test_kernel.py``, ``test_lattices.py``, ``test_base_domain.py`` and
``test_pullback.py`` check that both give equal answers.  The library
does not use this module, and this module uses nothing of ``pullback``:
``poly_at_zero`` forms the product.
"""

from functools import reduce

from starpull.kernel import (
    ZERO_ELEM,
    FieldElem,
    Poly,
    RatFunc,
    _make,
    _over,
    _ratfunc,
    _times,
    poly_gcd,
    poly_lcm,
)


def contains(m, x):
    x = FieldElem.coerce(x)
    if m.is_zero():
        return x.is_zero()
    if m.is_full():
        return x.d in (1, m.domain.k_disc)
    if x.is_zero():
        return True
    a, b, n, d = x._abnd
    if d not in (1, m.domain.k_disc):
        return False
    if m.domain.kind == "field":
        r = m.rows[0]
        return a * r[1] == b * r[0]
    return lattice_member([a * m.den, b * m.den][: m.domain.ambient_dim], n, m.rows)


def poly_at_zero(h, g):
    product = RatFunc(h.num * g.num, h.den * g.den)
    return product.num.eval_zero() if product.is_polynomial() else None


def local_at_zero(h, g):
    a, b, c, d = h.num, g.num, h.den, g.den
    i, j, k, m = ord_zero(a), ord_zero(b), ord_zero(c), ord_zero(d)
    e = i + j - k - m
    if e != 0:
        return None if e < 0 else ZERO_ELEM
    return _make(*_over(_times(a.coeff_ints(i), b.coeff_ints(j)),
                        _times(c.coeff_ints(k), d.coeff_ints(m))))


def content(fs):
    den = reduce(poly_lcm, (f.den for f in fs))
    return RatFunc(reduce(poly_gcd, [f.num * (den // f.den) for f in fs]), den)


def ord_zero(p):
    A, B, _, _ = p._rep
    if A[0] or B and B[0]:
        return 0
    return next(i for i, a in enumerate(A) if a or B and B[i])


def lattice_member(target, n, rows):
    work = list(target)
    for row in rows:
        j = next(i for i, v in enumerate(row) if v)
        q, r = divmod(work[j], n * row[j])
        if r:
            return False
        if q:
            work = [w - q * n * v for w, v in zip(work, row)]
    return not any(work)


def ratfunc_init(num, den):
    """(num, den) of the canonical RatFunc, with a gcd for every den != 1."""
    if num.is_zero():
        return num, Poly.one()
    if not den.is_one():
        g = poly_gcd(num, den)
        if not g.is_one():
            num, den = num // g, den // g
        if not den.is_monic():
            c = den.leading().inv()
            num, den = num.scale(c), den.scale(c)
    return num, den


def truediv(x, other):
    other = RatFunc.coerce(other)
    if other.is_constant() and not other.is_zero():
        return _ratfunc(x.num.scale(other.num.eval_zero().inv()), x.den)
    return x * other.inv()
