import hashlib
import random
from fractions import Fraction
from pathlib import Path

import pytest

from repairbound.certificate import load, term_columns
from repairbound.instance import (
    ALPHA,
    BETA,
    BIGB,
    LinExpr,
    column_key,
    enumerate_rows,
    instance_row,
    instances,
    storage_and_bandwidth_caps,
)
from repairbound.prover import default_family, load_seed_terms
from repairbound.universe import (
    EntropyClass,
    build_universe,
    closure_round,
    index_for_token,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def closed(u, *tokens):
    return u.indices_of(u.closure_mask(u.mask_of_tokens(tokens)))


def key(u, closed_mask):
    return BIGB if closed_mask == u.full_mask else u.canon_mask(closed_mask)


def submodularity(u, a, b):
    # the instance row H(a) + H(b) >= H(a|b union) + H(a&b) of closed a, b
    ma, mb = u.mask_of(a), u.mask_of(b)
    desc = tuple(key(u, m) for m in (ma, mb, u.closure_mask(ma | mb), ma & mb))
    return instance_row(u, desc, {}, "submodularity")


def monotonicity(u, a, b):
    # the instance row H(b) >= H(a) of closed a within b
    ma, mb = u.mask_of(a), u.mask_of(b)
    kind = "spanning-value" if mb == u.full_mask else "monotonicity"
    return instance_row(u, (key(u, mb), 0, key(u, ma), 0), {}, kind)


def replication_value(row, b0=Fraction(7)):
    # every nonempty set, alpha, beta and B all carry entropy b0
    return sum(c * b0 for c in row.coeffs.values())


def test_caps_shape():
    u = build_universe(5, 4)
    rows = list(storage_and_bandwidth_caps(u))
    assert len(rows) == 2
    a, b = rows
    assert a.kind == "storage-cap" and a.coeffs[ALPHA] == 1
    assert b.kind == "bandwidth-cap" and b.coeffs[BETA] == 1
    (wcls,) = [c for c in a.coeffs if c != ALPHA]
    assert a.coeffs[wcls] == -1 and wcls.size == 5
    (scls,) = [c for c in b.coeffs if c != BETA]
    assert b.coeffs[scls] == -1 and scls.size == 1


def test_submodularity_disjoint_pair():
    u = build_universe(5, 4)
    row = submodularity(u, closed(u, "W1"), closed(u, "S5->4"))
    assert row.kind == "submodularity"
    assert sorted(row.coeffs.values()) == [-1, 1, 1]
    assert len(row.coeffs) == 3  # empty intersection dropped


def test_submodularity_spanning_union_hits_bigb():
    u = build_universe(5, 4)
    row = submodularity(u, closed(u, "W1", "W2", "W3"), closed(u, "S5->4"))
    assert row.coeffs[BIGB] == -1


def test_submodularity_identity_is_zero_row():
    u = build_universe(5, 4)
    a = closed(u, "W1", "W2")
    assert submodularity(u, a, a).is_zero()


def test_monotonicity_rows():
    u = build_universe(5, 4)
    w1 = closed(u, "W1")
    row = monotonicity(u, (), w1)
    assert list(row.coeffs.values()) == [Fraction(1)]
    top = monotonicity(u, w1, range(u.num_vars))
    assert top.kind == "spanning-value"
    assert top.coeffs[BIGB] == 1
    assert monotonicity(u, w1, w1).is_zero()


def test_rows_nonnegative_on_replication_and_zero_vectors():
    u = build_universe(4, 3)
    fam = {
        u.canon_mask(u.mask_of_tokens(t))
        for t in (["W1"], ["S1->2"], ["W1", "W2"], ["W1", "S3->2"])
    }
    rows = enumerate_rows(u, fam, bases=[0, *fam])
    assert rows
    for row in rows:
        assert replication_value(row) >= 0
        assert row.evaluate({}) == 0


def test_rows_reference_only_family_classes():
    u = build_universe(4, 3)
    fam = {
        u.canon_mask(u.mask_of_tokens(t))
        for t in (["W1"], ["S1->2"], ["W1", "W2"])
    }
    for row in enumerate_rows(u, fam, bases=[0, *fam]):
        for col in row.coeffs:
            if col in (ALPHA, BETA, BIGB):
                continue
            assert col.mask in fam


def test_generation_symmetry():
    u = build_universe(5, 4)
    a = u.closure_mask(u.mask_of_tokens(["W1", "S3->2"]))
    b = u.closure_mask(u.mask_of_tokens(["S4->2", "S5->2"]))
    pi = (3, 1, 5, 2, 4)
    row1 = submodularity(u, u.indices_of(a), u.indices_of(b))
    row2 = submodularity(
        u,
        u.indices_of(u.apply_perm_mask(a, pi)),
        u.indices_of(u.apply_perm_mask(b, pi)),
    )
    assert row1.coeffs == row2.coeffs


def test_enumerate_rows_deterministic_and_deduped():
    u = build_universe(4, 3)
    fam = {
        u.canon_mask(u.mask_of_tokens(t))
        for t in (["W1"], ["S1->2"], ["W1", "W2"], ["W1", "S4->3"])
    }
    r1 = enumerate_rows(u, fam, bases=[0, *fam])
    r2 = enumerate_rows(u, sorted(fam), bases=sorted([0, *fam]))
    assert [r.signature() for r in r1] == [r.signature() for r in r2]
    sigs = [r.signature() for r in r1]
    assert len(sigs) == len(set(sigs))


def test_enumerate_rows_rejects_bad_family():
    u = build_universe(4, 3)
    with pytest.raises(ValueError):
        enumerate_rows(u, {u.canon_mask(u.mask_of_tokens(["W1", "W2", "W3"]))})
    bad = u.closure_mask(u.mask_of_tokens(["W2"]))
    assert bad != u.canon_mask(bad)
    with pytest.raises(ValueError):
        enumerate_rows(u, {bad})


def test_column_key_orders_reserved_before_classes():
    u = build_universe(4, 3)
    cls = u.canon_class(u.mask_of_tokens(["W1"]))
    keys = sorted([column_key(cls), column_key(ALPHA), column_key(BIGB), column_key(BETA)])
    assert keys == [column_key(ALPHA), column_key(BETA), column_key(BIGB), column_key(cls)]


def test_linexpr_helpers():
    row = LinExpr({ALPHA: Fraction(2), BETA: Fraction(-1)}, "storage-cap")
    assert row.evaluate({ALPHA: Fraction(1), BETA: Fraction(1)}) == 1
    assert not row.is_zero()


def test_random_submodularity_instances_sound():
    # exhaustive-ish spot check against the replication screen
    rng = random.Random(77)
    u = build_universe(4, 3)
    toks_all = [f"W{i}" for i in range(1, 5)] + [
        f"S{i}->{j}" for i in range(1, 5) for j in range(1, 5) if i != j
    ]
    for _ in range(40):
        a = u.closure_mask(u.mask_of_tokens(rng.sample(toks_all, rng.randrange(0, 6))))
        b = u.closure_mask(u.mask_of_tokens(rng.sample(toks_all, rng.randrange(0, 6))))
        row = submodularity(u, u.indices_of(a), u.indices_of(b))
        assert replication_value(row) >= 0


def pool_digest(rows) -> str:
    return hashlib.sha256(
        repr([(r.kind, r.signature()) for r in rows]).encode()
    ).hexdigest()


def test_pools_are_pinned():
    # digests of pools that the prover and the verifier build; a change
    # in any row, kind, order or dedup winner changes them
    u54 = build_universe(5, 4)
    seeds = load_seed_terms(DATA / "prop1.terms.json") + load_seed_terms(
        DATA / "prop2.terms.json"
    )
    masks = [c.mask for c in default_family(u54, seeds=seeds).classes]
    rows = storage_and_bandwidth_caps(u54) + enumerate_rows(u54, masks)
    assert len(rows) == 3614
    assert pool_digest(rows) == (
        "b1c393f4ff3479dfc1d32a3717ad8c725d9c84e086f0992f7d44766c3b8a3f9e"
    )

    u43 = build_universe(4, 3)
    masks = [c.mask for c in default_family(u43, depth=1).classes]
    rows = storage_and_bandwidth_caps(u43) + enumerate_rows(u43, masks)
    assert len(rows) == 851
    assert pool_digest(rows) == (
        "11a83b7235abfb2a204071a3119059a3da785be0b2b96e7a30ece74d9b2e1eda"
    )

    # the anchored depth-2 rung, elementals included, of prop2 row 12
    cert = load(DATA / "prop2.cert.json")
    term_cols = term_columns(u54, cert)
    base = {
        u54.canon_mask(u54.var_bit(0)),
        u54.canon_mask(u54.var_bit(index_for_token(5, "S1->2"))),
    } | {
        term_cols[key].mask
        for key in cert.rows[12]
        if isinstance(term_cols.get(key), EntropyClass)
    }
    fam, done = closure_round(u54, base, 5000)
    assert done and len(fam) == 20
    bases = [0] + sorted(base, reverse=True)
    rows = enumerate_rows(u54, fam, anchors=base, bases=bases)
    assert len(rows) == 282
    assert pool_digest(rows) == (
        "65588221f3626115ea36d8331aafc82ca3420a62c40211cbb0e2d88e8eb34e3f"
    )

    # the same rung from the generator: the pool minus its per-class rows
    # (some instances collapse to a per-class row, such as an elemental
    # whose two single-variable growths both span; the per-class row
    # comes first in the pool and wins the dedup)
    cols: dict = {}
    per_class = set()
    for m in fam:
        mono = instance_row(u54, (m, 0, 0, 0), cols, "monotonicity")
        span = instance_row(u54, (BIGB, 0, m, 0), cols, "spanning-value")
        per_class |= {mono.signature(), span.signature()}
    generated: dict = {}
    for desc in instances(u54, fam, base, sorted(bases, reverse=True)):
        row = instance_row(u54, desc, cols)
        if not row.is_zero():
            generated.setdefault(row.signature(), row)
    assert sorted(
        (r.kind, sig) for sig, r in generated.items() if sig not in per_class
    ) == sorted(
        (r.kind, r.signature()) for r in rows if r.signature() not in per_class
    )
