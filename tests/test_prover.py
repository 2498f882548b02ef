import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from repairbound.certificate import check_sum, verify
from repairbound.prover import (
    FamilyError,
    build_lp,
    default_family,
    load_seed_terms,
    prove,
)
from repairbound.ratlp import solve
from repairbound.region import equals, from_halfplanes
from repairbound.universe import build_universe

DATA = Path(__file__).resolve().parent.parent / "data"


def canon_of(u, *tokens):
    return u.canon_class(u.closure_mask(u.mask_of_tokens(tokens)))


@pytest.fixture(scope="module")
def u54():
    return build_universe(5, 4)


@pytest.fixture(scope="module")
def base54(u54):
    return default_family(u54)


@pytest.fixture(scope="module")
def table3_54(u54):
    return default_family(u54, seeds=load_seed_terms(DATA / "prop2.terms.json"))


@pytest.fixture(scope="module")
def union54(u54):
    seeds = load_seed_terms(DATA / "prop1.terms.json") + load_seed_terms(
        DATA / "prop2.terms.json"
    )
    return default_family(u54, seeds=seeds)


def test_default_family_depth0_contents(u54, base54):
    assert len(base54) == 6
    for toks in (("S1->2",), ("W1",), ("W1", "W2"), ("W1", "W2", "W3")):
        assert canon_of(u54, *toks) in base54.classes
    # the 4-node subset plus one more helper spans, so it is not stored
    assert canon_of(u54, "W1") in base54.classes


def test_default_family_skips_spanning_seed(u54, base54):
    fam = default_family(u54, seeds=[["W1", "W2", "W3", "S5->4"]])
    assert fam.classes == base54.classes


def test_default_family_accepts_token_and_index_seeds(u54):
    by_token = default_family(u54, seeds=[["W1", "S3->2"]])
    by_index = default_family(u54, seeds=[[0, 11]])  # same pair as indices
    assert by_token.classes == by_index.classes


def test_default_family_cap_names_the_round(u54):
    with pytest.raises(FamilyError, match="closure round 1"):
        default_family(u54, depth=1, cap=10)
    with pytest.raises(FamilyError, match="base classes"):
        default_family(u54, cap=3)


def test_load_seed_terms_accepts_certificates_too():
    bare = load_seed_terms(DATA / "prop2.terms.json")
    full = load_seed_terms(DATA / "prop2.cert.json")
    assert bare == full
    assert len(bare) == 30


def test_load_seed_terms_errors(tmp_path):
    with pytest.raises(FamilyError, match="cannot read"):
        load_seed_terms(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms": [{"id": "T1"}]}')
    with pytest.raises(FamilyError, match="terms\\[0\\]"):
        load_seed_terms(bad)
    bad.write_text('{"rows": []}')
    with pytest.raises(FamilyError, match="'terms'"):
        load_seed_terms(bad)


def test_build_lp_known_optima_depth0(u54, base54):
    assert solve(build_lp(u54, base54, (1, 0))).value == Fraction(1, 4)
    assert solve(build_lp(u54, base54, (3, 1))).value == 1
    # the six depth-0 classes never chain repair messages up to the
    # whole file, so nothing stops beta from collapsing to zero
    assert solve(build_lp(u54, base54, (0, 1))).value == 0


def test_build_lp_bandwidth_needs_seeded_family(u54, table3_54):
    assert solve(build_lp(u54, table3_54, (0, 1))).value == Fraction(1, 10)


def test_build_lp_table3_seeds_fall_short_for_criterion4(u54, table3_54):
    # documented shortfall: the published term list alone, at depth 0,
    # does not reproduce the 15a+10b >= 6 facet; the union of both
    # shipped term files does (see test_prove_union_family_facets)
    assert solve(build_lp(u54, table3_54, (15, 10))).value == Fraction(65, 11)


def test_build_lp_rejects_bad_direction(u54, base54):
    with pytest.raises(ValueError):
        build_lp(u54, base54, (-1, 0))
    with pytest.raises(ValueError):
        build_lp(u54, base54, (0, 0))


def test_prove_round_trip_depth0(u54, base54):
    pb = prove(u54, base54, (3, 1))
    assert pb.value == 1
    ok, meaning = check_sum(pb.certificate)
    assert ok and meaning == (3, 1, 1)
    # term ids are dense and first-use ordered
    ids = list(pb.certificate.terms)
    assert ids == [f"T{i}" for i in range(1, len(ids) + 1)]
    assert verify(u54, pb.certificate).overall == "VALID"


def test_prove_scale_equivariance(u54, base54):
    one = prove(u54, base54, (3, 1))
    two = prove(u54, base54, (6, 2))
    assert two.value == 2 * one.value
    assert check_sum(two.certificate)[1] == check_sum(one.certificate)[1] == (3, 1, 1)


def test_prove_union_family_facets(u54, union54):
    pb = prove(u54, union54, (15, 10))
    assert pb.value == 6
    assert check_sum(pb.certificate)[1] == (15, 10, 6)
    pb = prove(u54, union54, (5, 10))
    assert pb.value == 3
    assert check_sum(pb.certificate)[1] == (5, 10, 3)


def test_family_growth_never_weakens(u54, base54):
    deeper = default_family(u54, depth=1)
    assert base54.classes < deeper.classes
    for direction in ((1, 0), (3, 1), (1, 1)):
        v0 = solve(build_lp(u54, base54, direction)).value
        v1 = solve(build_lp(u54, deeper, direction)).value
        assert v1 >= v0


def test_sweep_and_distinct_lines(u54, base54):
    bounds = [prove(u54, base54, d) for d in [(1, 0), (2, 0), (3, 1)]]
    assert [b.value for b in bounds] == [Fraction(1, 4), Fraction(1, 2), 1]
    # a certificate's meaning is its gcd-reduced support line
    lines = {}
    for b in bounds:
        lines.setdefault(check_sum(b.certificate)[1], b)
    assert len(lines) == 2  # (1,0) and (2,0) support the same line
    assert next(iter(lines.values())).direction == (1, 0)


def farey_directions(order: int = 5) -> list:
    """All coprime nonnegative integer directions with max component
    <= order: the axes plus one representative per rational slope."""
    dirs = {(0, 1), (1, 0)}
    for a in range(1, order + 1):
        for b in range(1, order + 1):
            if math.gcd(a, b) == 1:
                dirs.add((a, b))
    return sorted(dirs)


def test_sweep_five_facet_directions(u54, union54):
    directions = [(1, 0), (3, 1), (15, 10), (5, 10), (0, 1)]
    bounds = [prove(u54, union54, d) for d in directions]
    meanings = [check_sum(b.certificate)[1] for b in bounds]
    assert meanings == [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]
    assert len(set(meanings)) == 5


def test_direction_grid_envelope(u54, union54):
    grid = farey_directions()
    assert len(grid) == 21
    planes = []
    for ca, cb in grid:
        value = solve(build_lp(u54, union54, (ca, cb))).value
        assert value > 0
        planes.append((ca, cb, value))
    swept = from_halfplanes(planes)
    exact = from_halfplanes(
        [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]
    )
    assert equals(swept, exact)
