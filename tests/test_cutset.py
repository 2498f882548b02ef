import random
from fractions import Fraction

import pytest

from repairbound.cutset import facets
from repairbound.region import from_halfplanes


def min_sum(k, d, alpha, beta) -> Fraction:
    a, b = Fraction(alpha), Fraction(beta)
    return sum((min(a, (d - i) * b) for i in range(k)), Fraction(0))


def feasible(k, d, alpha, beta) -> bool:
    """Point test, computed two ways that must agree: every facet holds,
    and the min-sum covers the file.  The facets do not depend on n, so
    n = d + 1 stands in for it."""
    a, b = Fraction(alpha), Fraction(beta)
    by_facets = all(j * a + w * b >= c for j, w, c in facets(d + 1, k, d))
    by_sum = min_sum(k, d, a, b) >= 1
    if by_facets != by_sum:
        raise AssertionError(
            f"facet and min-sum evaluations disagree at ({a}, {b})"
        )
    return by_facets


def test_facets_5_4():
    cs = facets(5, 4)
    assert cs == facets(5, 4, 4)  # d defaults to n - 1
    assert cs == ((0, 10, 1), (1, 6, 1), (2, 3, 1), (3, 1, 1), (4, 0, 1))
    assert all(type(v) is int for plane in cs for v in plane)


def test_facets_4_3():
    assert facets(4, 3, 3) == ((0, 6, 1), (1, 3, 1), (2, 1, 1), (3, 0, 1))


def test_facets_k1():
    assert facets(3, 1) == ((0, 2, 1), (1, 0, 1))


@pytest.mark.parametrize("n,k,d", [(2, 2, 1), (5, 0, 4), (5, 5, 4), (5, 4, 3), (5, 4, 5)])
def test_facets_validation(n, k, d):
    with pytest.raises(ValueError):
        facets(n, k, d)


def test_min_sum_examples():
    assert min_sum(4, 4, Fraction(1, 4), Fraction(1, 4)) == 1
    assert min_sum(4, 4, Fraction(2, 5), Fraction(1, 10)) == 1
    assert min_sum(4, 4, Fraction(1), Fraction(0)) == 0  # repair needs bandwidth


def test_feasible_agrees_with_facets_on_random_points():
    # feasible() computes both the facet test and the min-of-sums form
    # and asserts internally that they agree
    rng = random.Random(7)
    for n, k in ((5, 4), (4, 3), (6, 3)):
        for _ in range(200):
            a = Fraction(rng.randrange(0, 40), rng.randrange(1, 40))
            b = Fraction(rng.randrange(0, 40), rng.randrange(1, 40))
            feasible(k, n - 1, a, b)


def test_exact_region_sits_inside_cutset_region():
    proved = from_halfplanes(
        [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]
    )
    for x, y in proved.vertices:
        assert feasible(4, 4, x, y)


def test_cutset_region_vertices():
    region = from_halfplanes(facets(5, 4))
    assert region.vertices == (
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(2, 7), Fraction(1, 7)),
        (Fraction(1, 3), Fraction(1, 9)),
        (Fraction(2, 5), Fraction(1, 10)),
    )

