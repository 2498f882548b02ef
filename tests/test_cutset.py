import random
from fractions import Fraction

import pytest

from repairbound.cutset import CutsetBound, facets
from repairbound.region import from_halfplanes


def min_sum(bound: CutsetBound, alpha, beta) -> Fraction:
    a, b = Fraction(alpha), Fraction(beta)
    return sum((min(a, (bound.d - i) * b) for i in range(bound.k)), Fraction(0))


def feasible(bound: CutsetBound, alpha, beta) -> bool:
    """Point test, computed two ways that must agree: every facet holds,
    and the min-sum covers the file."""
    a, b = Fraction(alpha), Fraction(beta)
    by_facets = all(j * a + w * b >= 1 for j, w in bound.facets)
    by_sum = min_sum(bound, a, b) >= 1
    if by_facets != by_sum:
        raise AssertionError(
            f"facet and min-sum evaluations disagree at ({a}, {b})"
        )
    return by_facets


def test_facets_5_4():
    cs = facets(5, 4)
    assert cs.d == 4
    assert [(int(j), int(w)) for j, w in cs.facets] == [
        (0, 10),
        (1, 6),
        (2, 3),
        (3, 1),
        (4, 0),
    ]


def test_facets_4_3():
    cs = facets(4, 3, 3)
    assert [(int(j), int(w)) for j, w in cs.facets] == [(0, 6), (1, 3), (2, 1), (3, 0)]


def test_facets_k1():
    cs = facets(3, 1)
    assert [(int(j), int(w)) for j, w in cs.facets] == [(0, 2), (1, 0)]


@pytest.mark.parametrize("n,k,d", [(2, 2, 1), (5, 0, 4), (5, 5, 4), (5, 4, 3), (5, 4, 5)])
def test_facets_validation(n, k, d):
    with pytest.raises(ValueError):
        facets(n, k, d)


def test_min_sum_examples():
    cs = facets(5, 4)
    assert min_sum(cs, Fraction(1, 4), Fraction(1, 4)) == 1
    assert min_sum(cs, Fraction(2, 5), Fraction(1, 10)) == 1
    assert min_sum(cs, Fraction(1), Fraction(0)) == 0  # repair needs bandwidth


def test_feasible_agrees_with_facets_on_random_points():
    # feasible() computes both the facet test and the min-of-sums form
    # and asserts internally that they agree
    rng = random.Random(7)
    for n, k in ((5, 4), (4, 3), (6, 3)):
        cs = facets(n, k)
        for _ in range(200):
            a = Fraction(rng.randrange(0, 40), rng.randrange(1, 40))
            b = Fraction(rng.randrange(0, 40), rng.randrange(1, 40))
            feasible(cs, a, b)


def test_exact_region_sits_inside_cutset_region():
    cs = facets(5, 4)
    proved = from_halfplanes(
        [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]
    )
    for x, y in proved.vertices:
        assert feasible(cs, x, y)


def test_cutset_region_vertices():
    cs = facets(5, 4)
    region = from_halfplanes([(j, w, 1) for j, w in cs.facets])
    assert region.vertices == (
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(2, 7), Fraction(1, 7)),
        (Fraction(1, 3), Fraction(1, 9)),
        (Fraction(2, 5), Fraction(1, 10)),
    )


def test_cutset_bound_is_frozen():
    cs = facets(5, 4)
    assert isinstance(cs, CutsetBound)
    with pytest.raises(AttributeError):
        cs.n = 6
