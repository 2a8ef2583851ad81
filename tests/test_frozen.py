"""Every value class is immutable, and the FrozenValue classes compare and
hash by their public slots."""

import itertools

import pytest

from starpull.base_domain import (
    BaseDomain,
    ClassLabel,
    ExtDModule,
    dmod_from_generators,
    dmod_predicates,
)
from starpull.class_groups import invertibility_R
from starpull.exprlang import PrincipalAnswer
from starpull.harness import SampleParams
from starpull.kernel import FieldElem, Frozen, FrozenValue, Poly, RatFunc
from starpull.pullback import (
    OracleVerdict,
    RawIdeal,
    StructuredIdeal,
    make_instance,
    r_ideal,
    structured_hull,
)
from starpull.star_ops import StarOp

A = make_instance("A")
X = RatFunc.x_power(1)
TWO = RatFunc.coerce(2)
Z = BaseDomain.integers()
HULL = structured_hull(RawIdeal([TWO, X]), A)


def _pools():
    """Per class, values built independently, with repeats, so that some
    pairs are equal without being the same object."""
    return {
        ClassLabel: [ClassLabel((1,), (2,)), ClassLabel((3,), (2,)), ClassLabel((0,), (2,)),
                     ClassLabel((1,), (3,)), ClassLabel((), ())],
        ExtDModule: [dmod_from_generators([2], Z), dmod_from_generators([2], Z),
                     dmod_from_generators([3], Z), Z.unit_module(),
                     dmod_from_generators([2], BaseDomain.integers(-1))],
        RawIdeal: [RawIdeal([X, TWO]), RawIdeal([X, TWO]), RawIdeal([TWO, X]), RawIdeal([X])],
        # make_structured returns one object per input, so the equal pair
        # is built from equal slots
        StructuredIdeal: [HULL, StructuredIdeal(HULL.unit, HULL.dpart), r_ideal(A),
                          structured_hull(RawIdeal([X]), A)],
        StarOp: [StarOp.t_op("R"), StarOp.t_op("R"), StarOp.t_op("D"),
                 StarOp.lifted(StarOp.divisorial("D")), StarOp.lifted(StarOp.divisorial("D"))],
        PrincipalAnswer: [PrincipalAnswer(TWO), PrincipalAnswer(RatFunc.coerce(2)),
                          PrincipalAnswer(X), PrincipalAnswer(None)],
    }


def _frozen_values():
    """One value of every immutable class."""
    module = dmod_from_generators([2], Z)
    values = [FieldElem(1, 2, -5), Poly([1, 2]), X, dmod_predicates(module), OracleVerdict("in"),
              invertibility_R(RawIdeal([TWO, X]), StarOp.t_op("R"), A), SampleParams()]
    return values + [pool[0] for pool in _pools().values()]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_frozen_class_is_covered():
    covered = {type(v) for v in _frozen_values()}
    assert len(covered) == 13
    assert covered == set(_subclasses(Frozen)) - {FrozenValue}
    assert set(_pools()) == set(_subclasses(FrozenValue))


@pytest.mark.parametrize("value", _frozen_values(), ids=lambda v: type(v).__name__)
def test_assignment_raises(value):
    message = f"^{type(value).__name__} is immutable$"
    for name in (value.__slots__[0], "new_name"):
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, None)


@pytest.mark.parametrize("cls", list(_pools()), ids=lambda c: c.__name__)
def test_equal_exactly_when_the_slots_are_equal(cls):
    pool = _pools()[cls]
    assert any(a is not b and a == b for a, b in itertools.combinations(pool, 2))
    public = [f for f in cls.__slots__ if not f.startswith("_")]
    for a, b in itertools.product(pool, repeat=2):
        same = all(getattr(a, f) == getattr(b, f) for f in public)
        assert (a == b) == same and (a != b) == (not same)
        if same:
            assert hash(a) == hash(b)


def test_a_private_slot_is_neither_compared_nor_hashed():
    # StructuredIdeal's _unit_inv is 1/u, derived from the unit part
    assert StructuredIdeal._fields(HULL) == (HULL.unit, HULL.dpart)
    assert hash(HULL) == hash((HULL.unit, HULL.dpart))


def test_values_of_different_classes_never_compare_equal():
    pooled = [v for pool in _pools().values() for v in pool]
    for a, b in itertools.product(pooled, pooled + _frozen_values()):
        if type(a) is not type(b):
            assert a != b and b != a and not a == b and not b == a
