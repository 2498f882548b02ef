"""Acceptance gate: one test per release criterion, one pass/fail line
each under pytest -v.  Every numeric claim here is exact rational
arithmetic; the only tolerances are the stated runtime budgets."""

import copy
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

from repairbound.certificate import check_sum, load, load_terms, serialize, verify
from repairbound.cli import provenance, read_options
from repairbound.cutset import facets
from repairbound.instance import enumerate_rows
from repairbound.prover import default_family, prove
from repairbound.ratlp import check_duals
from repairbound.region import emit, from_halfplanes
from repairbound.universe import build_universe

DATA = Path(__file__).resolve().parent.parent / "data"
EXACT_54 = [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]


def report(n: int, text: str) -> None:
    print(f"criterion {n} PASS: {text}")


def evaluate(row, values) -> Fraction:
    # the row's left-hand side at a point given as column -> value
    return sum(
        (c * values.get(col, Fraction(0)) for col, c in row.coeffs.items()),
        Fraction(0),
    )


def test_criterion_1_first_shipped_certificate():
    u = build_universe(5, 4)
    cert = load(DATA / "prop1.cert.json")
    t0 = time.monotonic()
    res = verify(u, cert)
    elapsed = time.monotonic() - t0
    assert res.overall == "VALID"
    assert res.meaning == (15, 10, 6)
    assert res.bound == "15α+10β ≥ 6B"
    assert cert.target == {"beta": 10, "alpha": 15, "B": -6}
    assert elapsed < 10
    report(1, f"13-row certificate VALID as 15α+10β ≥ 6B in {elapsed:.2f}s")


def test_criterion_2_second_shipped_certificate():
    u = build_universe(5, 4)
    cert = load(DATA / "prop2.cert.json")
    t0 = time.monotonic()
    res = verify(u, cert)
    elapsed = time.monotonic() - t0
    assert res.overall == "VALID"
    assert res.meaning == (5, 10, 3)
    assert res.bound == "5α+10β ≥ 3B"
    assert cert.target == {"beta": 20, "alpha": 10, "B": -6}
    assert elapsed < 60
    report(2, f"25-row certificate VALID as 5α+10β ≥ 3B in {elapsed:.2f}s")


def test_criterion_3_mutation_suite():
    u = build_universe(5, 4)
    mutants = 0
    for name in ("prop1", "prop2"):
        pristine = load(DATA / f"{name}.cert.json")
        spots = [("row", i, key) for i, row in enumerate(pristine.rows) for key in row]
        spots += [("target", None, key) for key in pristine.target]
        for kind, i, key in spots:
            coeffs = pristine.rows[i] if kind == "row" else pristine.target
            for value in (-coeffs[key], coeffs[key] + 1, coeffs[key] - 1):
                cert = copy.deepcopy(pristine)
                where = cert.rows[i] if kind == "row" else cert.target
                if value:
                    where[key] = value
                else:
                    del where[key]
                res = verify(u, cert)
                assert res.overall != "VALID", (name, kind, i, key, value)
                mutants += 1
    assert mutants > 300
    report(3, f"{mutants} single-coefficient mutations all rejected")


def test_criterion_4_rediscovery_of_shipped_bounds():
    u = build_universe(5, 4)
    seeds = load_terms(DATA / "prop1.terms.json", 5) + load_terms(DATA / "prop2.terms.json", 5)
    fam = default_family(u, seeds=seeds)
    times = []
    for direction, value, meaning in (
        ((15, 10), Fraction(6), (15, 10, 6)),
        ((5, 10), Fraction(3), (5, 10, 3)),
    ):
        t0 = time.monotonic()
        pb = prove(u, fam, direction)
        elapsed = time.monotonic() - t0
        assert pb.value == value
        assert check_sum(pb.certificate) == (True, meaning)
        assert verify(u, pb.certificate).overall == "VALID"
        assert elapsed < 600
        times.append(elapsed)
    report(
        4,
        "solve rediscovers 15α+10β ≥ 6B and 5α+10β ≥ 3B with round-trip "
        f"certificates in {times[0]:.1f}s / {times[1]:.1f}s",
    )


def test_criterion_5_known_facets():
    u = build_universe(5, 4)
    base = default_family(u)
    assert prove(u, base, (1, 0)).value == Fraction(1, 4)
    assert prove(u, base, (3, 1)).value == 1
    seeded = default_family(u, seeds=load_terms(DATA / "prop2.terms.json", 5))
    assert prove(u, seeded, (0, 1)).value == Fraction(1, 10)
    report(5, "directions (1,0), (3,1), (0,1) prove 1/4, 1, 1/10 exactly")


def test_criterion_6_region_assembly():
    assembled = from_halfplanes(facets(5, 4) + ((15, 10, 6), (5, 10, 3)))
    exact = from_halfplanes(EXACT_54)
    assert assembled == exact
    assert exact.vertices == (
        (Fraction(1, 4), Fraction(1, 4)),
        (Fraction(4, 15), Fraction(1, 5)),
        (Fraction(3, 10), Fraction(3, 20)),
        (Fraction(2, 5), Fraction(1, 10)),
    )
    for fmt in ("csv", "svg"):
        assert emit(exact, fmt) == emit(exact, fmt)
    report(6, "cut-set facets plus the two proved lines equal the exact region")


def test_criterion_7_property_suites():
    # closure axioms: extensive, monotone, idempotent
    u = build_universe(5, 4)
    rng = random.Random(11)
    masks = [rng.getrandbits(u.num_vars) for _ in range(60)]
    for m in masks:
        c = u.closure_mask(m)
        assert c & m == m
        assert u.closure_mask(c) == c
        for other in masks[:10]:
            assert u.closure_mask(m | other) & c == c

    # canonical representative is orbit-invariant, exhaustively over pi
    for nn, kk, count in ((4, 3, 12), (5, 4, 6)):
        un = build_universe(nn, kk)
        for m in [rng.getrandbits(un.num_vars) for _ in range(count)]:
            want = un.canon_mask(m)
            for pi in itertools.permutations(range(1, nn + 1)):
                assert un.canon_mask(un.apply_perm_mask(m, pi)) == want

    # every generated constraint and certificate row is nonnegative on
    # the replication vector (all columns equal one unit of stored data)
    # and evaluates to zero on the all-zero vector
    fam = default_family(u)
    for row in enumerate_rows(u, fam):
        assert sum(row.coeffs.values()) >= 0
        assert evaluate(row, {}) == 0
    for name in ("prop1", "prop2"):
        cert = load(DATA / f"{name}.cert.json")
        for row in cert.rows + [cert.target]:
            assert sum(row.values()) >= 0

    # exact strong duality against a brute-force vertex oracle
    from test_ratlp import brute_force_box_min, canonical, outcome, random_lp

    oracle_rng = random.Random(2026)
    checked = 0
    for _ in range(40):
        lp = random_lp(oracle_rng, max_cols=4, max_rows=6)
        one_form, back = canonical(lp)
        sol = outcome(one_form)
        if isinstance(sol, str):  # no optimum
            continue
        assert check_duals(one_form, sol)
        assert brute_force_box_min(lp, 10**9) == back(sol).value
        checked += 1
    assert checked >= 10

    # serialization and configuration round trips are deterministic
    for name in ("prop1", "prop2"):
        blob = (DATA / f"{name}.cert.json").read_bytes()
        assert serialize(load(DATA / f"{name}.cert.json")) == blob
    argv = ["region", "--n", "5", "--k", "4", "--builtin-eq1"]
    assert provenance(read_options(argv)) == provenance(read_options(argv))
    report(7, "closure, canon, nonnegativity, duality, round-trip properties hold")


def test_criterion_8_separation_beyond_cutset():
    from test_cutset import feasible

    u = build_universe(4, 3)
    fam = default_family(u, depth=1)
    pb = prove(u, fam, (4, 6))
    assert verify(u, pb.certificate).overall == "VALID"
    cut_region = from_halfplanes(facets(4, 3))
    witnesses = [
        (x, y)
        for x, y in cut_region.vertices
        if feasible(3, 3, x, y) and 4 * x + 6 * y < pb.value
    ]
    assert witnesses, "no cut-set point falls outside the proved bound"
    x, y = witnesses[0]
    report(
        8,
        f"(4,3,3) solve proves 4α+6β ≥ {pb.value} which cuts off the "
        f"cut-set point ({x}, {y})",
    )
