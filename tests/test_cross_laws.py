"""Consistency of the raw and structured calculi across all instances.

Raw ideals and their structured hulls denote the same ideals, so every
operation must commute with taking hulls, and containment answers must
match generator membership in both directions.
"""

import pytest

from starpull.harness import SampleParams, sample_ideals
from starpull.kernel import RatFunc
from starpull.pullback import (
    colon_R,
    contains_ideal,
    ideal_arith,
    ideal_equal,
    make_instance,
    member_structured,
    structured_hull,
)

PARAMS = SampleParams(seed=31, count=15)


def _population(name):
    inst = make_instance(name)
    return inst, sample_ideals(inst, PARAMS)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_products_commute_with_hulls(name):
    inst, pop = _population(name)
    for r1, r2 in zip(pop, pop[1:]):
        raw_product = ideal_arith(r1, r2, "mul", inst)
        hull_product = ideal_arith(structured_hull(r1, inst),
                                   structured_hull(r2, inst), "mul", inst)
        mixed = ideal_arith(r1, structured_hull(r2, inst), "mul", inst)
        assert ideal_equal(raw_product, hull_product, inst)
        assert ideal_equal(mixed, hull_product, inst)


@pytest.mark.parametrize("name", ["A", "B", "C", "D", "E"])
def test_sums_commute_with_hulls(name):
    inst, pop = _population(name)
    for r1, r2 in zip(pop, pop[1:]):
        raw_sum = structured_hull(ideal_arith(r1, r2, "add", inst), inst)
        hull_sum = ideal_arith(structured_hull(r1, inst),
                               structured_hull(r2, inst), "add", inst)
        assert ideal_equal(raw_sum, hull_sum, inst)


@pytest.mark.parametrize("name", ["A", "C", "D"])
def test_colon_chain_stabilizes(name):
    inst, pop = _population(name)
    for raw in pop:
        once = colon_R(raw, inst)
        thrice = colon_R(colon_R(once, inst), inst)
        assert once == thrice


@pytest.mark.parametrize("name", ["A", "C", "D", "E"])
def test_containment_matches_generator_membership(name):
    inst, pop = _population(name)
    for inner, outer_raw in zip(pop, pop[1:]):
        outer = structured_hull(outer_raw, inst)
        claim = contains_ideal(outer, inner, inst)
        escaped = [g for g in inner.gens if not member_structured(g, outer, inst)]
        assert claim == (not escaped)
        if claim:
            for g in inner.gens[:2]:
                deep = g * RatFunc.x_power(2) * RatFunc.coerce(3)
                assert member_structured(deep, outer, inst)
