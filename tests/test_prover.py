import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from repairbound import prover
from repairbound.certificate import CertificateError, check_sum, load_terms, serialize, verify
from repairbound.instance import BIGB, enumerate_rows, storage_and_bandwidth_caps
from repairbound.prover import FamilyError, build_lp, default_family, pool_rows, prove
from repairbound.ratlp import LPRow, solve
from repairbound.region import from_halfplanes
from repairbound.universe import build_universe

DATA = Path(__file__).resolve().parent.parent / "data"


def canon_of(u, *tokens):
    return u.canon_mask(u.closure_mask(u.mask_of_tokens(tokens)))


@pytest.fixture(scope="module")
def u54():
    return build_universe(5, 4)


@pytest.fixture(scope="module")
def base54(u54):
    return default_family(u54)


@pytest.fixture(scope="module")
def table3_54(u54):
    return default_family(u54, seeds=load_terms(DATA / "prop2.terms.json", 5))


@pytest.fixture(scope="module")
def union54(u54):
    seeds = load_terms(DATA / "prop1.terms.json", 5) + load_terms(DATA / "prop2.terms.json", 5)
    return default_family(u54, seeds=seeds)


def test_default_family_depth0_contents(u54, base54):
    assert len(base54) == 6
    for toks in (("S1->2",), ("W1",), ("W1", "W2"), ("W1", "W2", "W3")):
        assert canon_of(u54, *toks) in base54
    # the 4-node subset plus one more helper spans, so it is not stored
    assert canon_of(u54, "W1") in base54


def test_default_family_skips_spanning_seed(u54, base54):
    fam = default_family(u54, seeds=[["W1", "W2", "W3", "S5->4"]])
    assert fam == base54


def test_default_family_cap_names_the_round(u54):
    with pytest.raises(FamilyError, match="closure round 1"):
        default_family(u54, depth=1, cap=10)
    with pytest.raises(FamilyError, match="base classes"):
        default_family(u54, cap=3)


def test_default_family_stops_once_a_round_adds_no_class(monkeypatch):
    # the (3,2) depth-0 family is closed after two rounds; a third finds
    # nothing new and ends the growth however many rounds were asked for
    rounds = []
    closure_round = prover.closure_round

    def counted(*args):
        rounds.append(len(args[1]))
        return closure_round(*args)

    monkeypatch.setattr(prover, "closure_round", counted)
    u = build_universe(3, 2)
    closed = default_family(u, depth=2)
    rounds.clear()
    assert default_family(u, depth=32) == closed
    assert rounds == [2, 7, 9]


def test_load_seed_terms_accepts_certificates_too():
    # seed files are read by certificate.load_terms, bare or as certificates
    bare = load_terms(DATA / "prop2.terms.json", 5)
    full = load_terms(DATA / "prop2.cert.json", 5)
    assert bare == full
    assert len(bare) == 30


def test_load_seed_terms_errors(tmp_path):
    with pytest.raises(OSError):
        load_terms(tmp_path / "missing.json", 5)
    bad = tmp_path / "bad.json"
    bad.write_text('{"terms": [{"id": "T1"}]}')
    with pytest.raises(CertificateError, match="terms\\[0\\]"):
        load_terms(bad, 5)
    bad.write_text('{"rows": []}')
    with pytest.raises(CertificateError, match="'terms'"):
        load_terms(bad, 5)


def copied_pool_rows(u, fam):
    """pool_rows by copy: every row that carries BIGB is rebuilt as a new
    dict without it."""
    lprows = []
    for e in storage_and_bandwidth_caps(u) + enumerate_rows(u, fam):
        coeffs = e.coeffs
        const = coeffs.get(BIGB, 0)
        if const:
            coeffs = {c: v for c, v in coeffs.items() if c != BIGB}
        lprows.append(LPRow(coeffs, const))
    return lprows


def test_pool_rows_match_the_copied_rows(u54, base54):
    # popping BIGB from the expressions enumerate_rows just built gives
    # the rows, key order included, that copying them gave, on the
    # (4,3,3) depth-1 pool, where 426 of 851 rows carry BIGB, and on the
    # (5,4,4) depth-0 pool, where 31 of 66 do
    u43 = build_universe(4, 3)
    pools = ((u43, default_family(u43, depth=1), 851, 426), (u54, base54, 66, 31))
    for u, fam, size, with_b in pools:
        rows, copied = pool_rows(u, fam), copied_pool_rows(u, fam)
        assert [(list(r.coeffs.items()), r.const) for r in rows] == [
            (list(r.coeffs.items()), r.const) for r in copied
        ]
        assert not any(BIGB in r.coeffs for r in rows)
        assert (len(rows), sum(1 for r in rows if r.const)) == (size, with_b)


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


def test_prove_on_a_shared_pool_matches_a_fresh_one(u54, table3_54):
    rows = pool_rows(u54, table3_54)
    for direction in ((1, 0), (0, 1), (15, 10)):
        shared = prove(u54, table3_54, direction, rows=rows)
        fresh = prove(u54, table3_54, direction)
        assert serialize(shared.certificate) == serialize(fresh.certificate)


def test_prove_writes_sorted_term_tokens(u54, base54):
    pb = prove(u54, base54, (3, 1))
    terms = pb.certificate.terms
    assert terms
    for toks in terms.values():
        assert toks == sorted(toks)
        # each term is a closed set of its class, by its tokens
        m = u54.mask_of_tokens(toks)
        assert u54.closure_mask(m) == m and m.bit_count() == len(toks)


def test_prove_scale_equivariance(u54, base54):
    one = prove(u54, base54, (3, 1))
    two = prove(u54, base54, (6, 2))
    assert two.value == 2 * one.value
    assert check_sum(two.certificate)[1] == check_sum(one.certificate)[1] == (3, 1, 1)


def test_prove_fractional_direction_matches_its_integer_multiple():
    # build_lp scales (1/2, 1/3) by 6 to the integer objective (3, 2), so
    # both directions solve one LP: the same rows, terms and target, at
    # one sixth of the value
    u = build_universe(4, 3)
    fam = default_family(u, depth=1)
    rows = pool_rows(u, fam)
    half_third = (Fraction(1, 2), Fraction(1, 3))
    assert build_lp(u, fam, half_third, rows).objective == {"alpha": 3, "beta": 2}
    frac = prove(u, fam, half_third, rows=rows)
    whole = prove(u, fam, (3, 2), rows=rows)
    c, w = frac.certificate, whole.certificate
    assert (c.rows, c.terms, c.target) == (w.rows, w.terms, w.target)
    assert frac.value == whole.value / 6
    assert frac.direction == half_third
    assert c.meta["direction"] == ["1/2", "1/3"]
    assert c.meta["value"] == str(frac.value)


def test_prove_union_family_facets(u54, union54):
    pb = prove(u54, union54, (15, 10))
    assert pb.value == 6
    assert check_sum(pb.certificate)[1] == (15, 10, 6)
    pb = prove(u54, union54, (5, 10))
    assert pb.value == 3
    assert check_sum(pb.certificate)[1] == (5, 10, 3)


def test_family_growth_never_weakens(u54, base54):
    deeper = default_family(u54, depth=1)
    assert base54 < deeper
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
    assert swept == exact
