import hashlib
import logging
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from repairbound import instance
from repairbound.certificate import _term_column, load, load_terms
from repairbound.instance import (
    ALPHA,
    BETA,
    BIGB,
    KIND_ORDER,
    LinExpr,
    column_key,
    enumerate_rows,
    instance_row,
    instances,
    storage_and_bandwidth_caps,
)
from repairbound.prover import default_family
from repairbound.universe import (
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
    return instance_row(desc, "submodularity")


def monotonicity(u, a, b):
    # the instance row H(b) >= H(a) of closed a within b
    ma, mb = u.mask_of(a), u.mask_of(b)
    kind = "spanning-value" if mb == u.full_mask else "monotonicity"
    return instance_row((key(u, mb), 0, key(u, ma), 0), kind)


def signature(row) -> tuple:
    # the row's (column_key, coefficient) pairs in column order; column
    # keys are distinct, so the coefficients never decide the order
    return tuple(sorted((column_key(c), v) for c, v in row.coeffs.items()))


def evaluate(row, values):
    # the row's left-hand side at a point given as column -> value
    return sum(
        (c * values.get(col, Fraction(0)) for col, c in row.coeffs.items()),
        Fraction(0),
    )


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
    assert a.coeffs[wcls] == -1 and wcls.bit_count() == 5
    (scls,) = [c for c in b.coeffs if c != BETA]
    assert b.coeffs[scls] == -1 and scls.bit_count() == 1


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
    assert not submodularity(u, a, a).coeffs


def test_monotonicity_rows():
    u = build_universe(5, 4)
    w1 = closed(u, "W1")
    row = monotonicity(u, (), w1)
    assert list(row.coeffs.values()) == [Fraction(1)]
    top = monotonicity(u, w1, range(u.num_vars))
    assert top.kind == "spanning-value"
    assert top.coeffs[BIGB] == 1
    assert not monotonicity(u, w1, w1).coeffs


def test_rows_nonnegative_on_replication_and_zero_vectors():
    u = build_universe(4, 3)
    fam = {
        u.canon_mask(u.mask_of_tokens(t))
        for t in (["W1"], ["S1->2"], ["W1", "W2"], ["W1", "S3->2"])
    }
    rows = enumerate_rows(u, fam)
    rows += [instance_row(d) for d in instances(u, fam, bases=[0, *fam])]
    assert rows
    for row in rows:
        assert replication_value(row) >= 0
        assert evaluate(row, {}) == 0


def test_rows_reference_only_family_classes():
    u = build_universe(4, 3)
    fam = {
        u.canon_mask(u.mask_of_tokens(t))
        for t in (["W1"], ["S1->2"], ["W1", "W2"])
    }
    rows = enumerate_rows(u, fam)
    rows += [instance_row(d) for d in instances(u, fam, bases=[0, *fam])]
    for row in rows:
        for col in row.coeffs:
            if col in (ALPHA, BETA, BIGB):
                continue
            assert col in fam


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
    r1 = enumerate_rows(u, fam)
    r2 = enumerate_rows(u, sorted(fam))
    assert [signature(r) for r in r1] == [signature(r) for r in r2]
    sigs = [signature(r) for r in r1]
    assert len(sigs) == len(set(sigs))
    # the elemental instances too, for bases given in one order
    bases = sorted([0, *fam], reverse=True)
    assert list(instances(u, fam, bases=bases)) == list(instances(u, sorted(fam), bases=bases))


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
    cls = u.canon_mask(u.mask_of_tokens(["W1"]))
    keys = sorted([column_key(cls), column_key(ALPHA), column_key(BIGB), column_key(BETA)])
    assert keys == [column_key(ALPHA), column_key(BETA), column_key(BIGB), column_key(cls)]


def test_column_key_matches_size_and_index_tuple_order():
    # the mask key against the slow path it replaces: every mask at n = 4,
    # seeded samples of every size at n = 5 and n = 6
    u4 = build_universe(4, 3)
    cases = [(u4, list(range(1 << u4.num_vars)))]
    rng = random.Random(808)
    for n in (5, 6):
        u = build_universe(n, n - 1)
        masks = [
            u.mask_of(rng.sample(range(u.num_vars), rng.randrange(u.num_vars + 1)))
            for _ in range(4000)
        ]
        cases.append((u, masks))
    for u, masks in cases:
        cols = [BIGB, *masks, BETA, ALPHA]
        rng.shuffle(cols)
        fast = sorted(cols, key=column_key)
        assert fast == sorted(cols, key=lambda c: indices_key(u, c))
        assert fast[:3] == [ALPHA, BETA, BIGB]


def test_linexpr_helpers():
    row = LinExpr({ALPHA: Fraction(2), BETA: Fraction(-1)}, "storage-cap")
    assert evaluate(row, {ALPHA: Fraction(1), BETA: Fraction(1)}) == 1
    assert row.coeffs


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


def indices_key(u, col):
    # the column order by (size, index tuple) that column_key stands in for
    if col in (ALPHA, BETA, BIGB):
        return column_key(col)
    return (3, col.bit_count(), u.indices_of(col))


def pool_digest(u, rows) -> str:
    # keys by index tuple and coefficients by str, so the digest does not
    # depend on how a class or a coefficient is represented
    sigs = [
        (r.kind, tuple(sorted((indices_key(u, c), str(v)) for c, v in r.coeffs.items())))
        for r in rows
    ]
    return hashlib.sha256(repr(sigs).encode()).hexdigest()


def assert_integer_rows(rows):
    assert all(type(v) is int for r in rows for v in r.coeffs.values())
    assert all(
        type(c) is int for r in rows for c in r.coeffs if c not in (ALPHA, BETA, BIGB)
    )


def test_pools_are_pinned():
    # digests of two pools that the prover builds and of one rung's pool
    # that the verifier's separation searches; a change in any row, kind,
    # order or dedup winner changes them
    u54 = build_universe(5, 4)
    seeds = load_terms(DATA / "prop1.terms.json", 5) + load_terms(DATA / "prop2.terms.json", 5)
    masks = default_family(u54, seeds=seeds)
    rows = storage_and_bandwidth_caps(u54) + enumerate_rows(u54, masks)
    assert len(rows) == 3614
    assert_integer_rows(rows)
    assert pool_digest(u54, rows) == (
        "de49515d826a5ec5480267e85155e4176575812622dfd189cdd26147f363eec0"
    )

    u43 = build_universe(4, 3)
    masks = default_family(u43, depth=1)
    rows = storage_and_bandwidth_caps(u43) + enumerate_rows(u43, masks)
    assert len(rows) == 851
    assert_integer_rows(rows)
    assert pool_digest(u43, rows) == (
        "df0ff9bc8f6060b2a89e034f255a6b7238afa1c56a162e76a913f6fa387532cc"
    )

    # the anchored depth-2 rung, elementals included, of prop2 row 12, as
    # the signature reference pools the instances its separation scans
    cert = load(DATA / "prop2.cert.json")
    term_cols = {tid: _term_column(u54, toks) for tid, toks in cert.terms.items()}
    base = {
        u54.canon_mask(u54.var_bit(0)),
        u54.canon_mask(u54.var_bit(index_for_token(5, "S1->2"))),
    } | {
        term_cols[key]
        for key in cert.rows[12]
        if isinstance(term_cols.get(key), int)
    }
    fam, done = closure_round(u54, base, 5000)
    assert done and len(fam) == 20
    bases = [0] + sorted(base, reverse=True)
    rows = reference_enumerate_rows(u54, fam, anchors=base, need=1, bases=bases)
    assert len(rows) == 282
    assert_integer_rows(rows)
    assert pool_digest(u54, rows) == (
        "5231b41ae865a20e6e46478c40f8339c9944aa442440efc3821e157d04e85a1c"
    )

    # the same rung from the generator: the pool minus its per-class rows
    # (some instances collapse to a per-class row, such as an elemental
    # whose two single-variable growths both span; the per-class row
    # comes first in the pool and wins the dedup)
    per_class = set()
    for m in fam:
        mono = instance_row((m, 0, 0, 0), "monotonicity")
        span = instance_row((BIGB, 0, m, 0), "spanning-value")
        per_class |= {signature(mono), signature(span)}
    generated: dict = {}
    for desc in instances(u54, fam, base, 1, sorted(bases, reverse=True)):
        row = instance_row(desc)
        if row.coeffs:
            generated.setdefault(signature(row), row)
    assert sorted(
        (r.kind, sig) for sig, r in generated.items() if sig not in per_class
    ) == sorted(
        (r.kind, signature(r)) for r in rows if signature(r) not in per_class
    )


def reference_instances(u, fam_masks, anchors=(), need=0, bases=()):
    # the slow path: canonicalize every argument, then test membership;
    # need 0 keeps every pair, need 1 the pairs touching the anchors,
    # need 2 the pairs inside them
    allowed = set(fam_masks) | {0, BIGB}
    fam = sorted(fam_masks, reverse=True)
    for ai, ra in enumerate(fam):
        for rb in fam[ai:]:
            if need == 1 and ra not in anchors and rb not in anchors:
                continue
            if need == 2 and not (ra in anchors and rb in anchors):
                continue
            for m in u.orbit_masks(rb):
                if m == ra:
                    continue
                inter = ra & m
                ki = u.canon_mask(inter)
                if ki not in allowed:
                    continue
                ku = key(u, u.closure_mask(ra | m))
                if ku not in allowed:
                    continue
                yield (ra, rb, ku, ki)
                if inter == m:
                    yield (ra, 0, rb, 0)
                elif inter == ra:
                    yield (rb, 0, ra, 0)
    nv = u.num_vars
    for c_mask in bases:
        outside = [v for v in range(nv) if not c_mask >> (nv - 1 - v) & 1]
        for xi, x in enumerate(outside):
            kx = key(u, u.closure_mask(c_mask | u.var_bit(x)))
            if kx not in allowed:
                continue
            for y in outside[xi + 1:]:
                ky = key(u, u.closure_mask(c_mask | u.var_bit(y)))
                if ky not in allowed:
                    continue
                kxy = key(u, u.closure_mask(c_mask | u.var_bit(x) | u.var_bit(y)))
                if kxy not in allowed:
                    continue
                yield (kx, ky, kxy, c_mask)


def random_family(u, rng, size):
    # canonical masks of random closed sets: each stands for its whole orbit
    fam = set()
    while len(fam) < size:
        picked = rng.sample(range(u.num_vars), rng.randrange(1, u.n + 2))
        m = u.canon_mask(u.mask_of(picked))
        if m != u.full_mask:
            fam.add(m)
    return fam


def test_instances_match_canonicalizing_reference():
    # every pair rule on every family: all pairs, pairs touching the
    # anchors, pairs inside them
    rng = random.Random(515)
    within_yields = set()
    for n, k, size in ((4, 3, 9), (5, 4, 6)):
        for trial in range(8):
            u = build_universe(n, k)
            fam = random_family(u, rng, size)
            anchors = set(rng.sample(sorted(fam), 3))
            bases = []
            if trial % 2:
                bases = sorted(rng.sample(sorted(fam | {0}), 3), reverse=True)
            slow = build_universe(n, k)
            for held, need in (((), 0), (anchors, 1), (anchors, 2)):
                got = list(instances(u, fam, held, need, bases))
                want = list(reference_instances(slow, fam, held, need, bases))
                assert got or need == 2, (n, k, trial, held, need)
                assert got == want, (n, k, trial, held, need)
                if got and need == 2:
                    within_yields.add(n)
    # three anchors need not hold a pair with a descriptor, but at each
    # size some family's do
    assert within_yields == {4, 5}


def scan_every_pair_instances(u, fam_masks, anchors=(), need=0, bases=()):
    # the generator that tests the pair rule on every (ra, rb) pair and
    # closes C+y once per (x, y) pair: instances must give its exact
    # descriptor sequence, which the verifier's working rows follow
    fam = sorted(fam_masks, reverse=True)
    orbits = {r: u.orbit_masks(r) for r in fam}
    keys = {m: r for r, orbit in orbits.items() for m in orbit}
    keys[0] = 0
    keys[u.full_mask] = BIGB
    for ai, ra in enumerate(fam):
        for rb in fam[ai:]:
            if need and (ra in anchors) + (rb in anchors) < need:
                continue
            for m in orbits[rb]:
                if m == ra:
                    continue
                inter = ra & m
                ki = keys.get(inter)
                if ki is None:
                    continue
                ku = keys.get(u.closure_mask(ra | m))
                if ku is None:
                    continue
                yield (ra, rb, ku, ki)
                if inter == m:
                    yield (ra, 0, rb, 0)
    nv = u.num_vars
    for c_mask in bases:
        outside = [v for v in range(nv) if not c_mask >> (nv - 1 - v) & 1]
        for xi, x in enumerate(outside):
            bx = u.var_bit(x)
            kx = keys.get(u.closure_mask(c_mask | bx))
            if kx is None:
                continue
            for y in outside[xi + 1:]:
                by = u.var_bit(y)
                ky = keys.get(u.closure_mask(c_mask | by))
                if ky is None:
                    continue
                kxy = keys.get(u.closure_mask(c_mask | bx | by))
                if kxy is None:
                    continue
                yield (kx, ky, kxy, c_mask)


def test_instances_match_the_every_pair_scan():
    # the same descriptors in the same order, for every pair rule, with
    # and without elemental bases, anchors drawn from the family
    rng = random.Random(2020)
    for n, k, size in ((4, 3, 10), (5, 4, 8)):
        for trial in range(6):
            u = build_universe(n, k)
            fam = random_family(u, rng, size)
            anchors = frozenset(rng.sample(sorted(fam), rng.randrange(1, size)))
            for bases in ((), sorted(rng.sample(sorted(fam | {0}), 3), reverse=True)):
                for held, need in (((), 0), (anchors, 1), (anchors, 2)):
                    got = list(instances(u, fam, held, need, bases))
                    want = list(scan_every_pair_instances(u, fam, held, need, bases))
                    assert got == want, (n, k, trial, bases, need)
                    assert got or need == 2, (n, k, trial, bases, need)


def test_instances_read_only_the_family_from_a_full_member_index():
    # instances reads the universe's member index, which also holds the
    # orbits of classes outside the family: here every union and
    # intersection class of a closure round, random extra classes, and
    # the empty and full masks.  It must still give the exact descriptor
    # sequence of the every-pair scan on a fresh universe
    rng = random.Random(2323)
    for n, k, size in ((4, 3, 8), (5, 4, 6)):
        for trial in range(4):
            u = build_universe(n, k)
            fam = random_family(u, rng, size)
            closure_round(u, fam, 400)
            for m in (0, u.full_mask, *(rng.getrandbits(u.num_vars) for _ in range(20))):
                u.canon_mask(m)
            assert len(set(u.class_of.values()) - fam) > len(fam), (n, k, trial)
            anchors = frozenset(rng.sample(sorted(fam), rng.randrange(1, size)))
            for bases in ((), sorted(rng.sample(sorted(fam | {0}), 3), reverse=True)):
                for held, need in (((), 0), (anchors, 1), (anchors, 2)):
                    got = list(instances(u, fam, held, need, bases))
                    fresh = build_universe(n, k)
                    want = list(scan_every_pair_instances(fresh, fam, held, need, bases))
                    assert got == want, (n, k, trial, bases, need)


def test_instances_hold_no_member_map_of_their_own():
    # a work guard on memory: the within rung's scan of the 148-class
    # depth-2 family of prop1's row 12 (12,254 orbit members), right after
    # the closure round that grew it, peaks at 17,544 traced bytes; a
    # per-call map from every member to its class peaked at 891,936
    u = build_universe(5, 4)
    cert = load(DATA / "prop1.cert.json")
    base = {_term_column(u, cert.terms[t]) for t in cert.rows[12] if t.startswith("T")}
    base |= {c for cap in storage_and_bandwidth_caps(u) for c in cap.coeffs if type(c) is int}
    fam, done = closure_round(u, base, 5000)
    assert done and len(fam) == 148
    tracemalloc.start()
    try:
        assert sum(1 for _ in instances(u, fam, base, 2)) == 794
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 100_000


def test_pair_rules_nest_over_a_closure_round():
    # over a family grown from random classes, with the old family as
    # anchors: each rule keeps exactly the descriptors of the pairs it
    # admits, so the pairs inside it, the pairs touching it and all pairs
    # give nested descriptor sets
    rng = random.Random(1111)
    for n, k, size, trials in ((4, 3, 4, 4), (5, 4, 2, 2)):
        for trial in range(trials):
            u = build_universe(n, k)
            prev = random_family(u, rng, size)
            fam, done = closure_round(u, prev, 400)
            assert done, (n, k, trial)
            every = set(instances(u, fam))
            within, touching = (
                {d for d in every if sum(c in prev for c in pair_of(d)) >= need}
                for need in (2, 1)
            )
            assert set(instances(u, fam, prev, 2)) == within, (n, k, trial)
            assert set(instances(u, fam, prev, 1)) == touching, (n, k, trial)
            assert within <= touching <= every, (n, k, trial)
            assert within and within < touching < every, (n, k, trial)


def pair_of(desc):
    # the (representative, orbit class) pair a descriptor came from: a
    # monotonicity descriptor (ra, 0, rb, 0) names it in its first and
    # third keys
    return (desc[0], desc[2]) if desc[1] == 0 else desc[:2]


def test_instances_canonicalize_no_mask_outside_the_family():
    # the member index stays as it was, and the only orbit tuples built
    # are those of family classes
    u = build_universe(5, 4)
    fam = random_family(u, random.Random(9), 6)
    orbits_before = dict(u._orbit_cache)
    members_before = dict(u.class_of)
    descs = list(instances(u, fam, bases=[0, max(fam)]))
    assert descs
    assert u.class_of == members_before
    assert set(u._orbit_cache) - set(orbits_before) <= fam
    assert all(u._orbit_cache[c] == orbits_before[c] for c in orbits_before)
    # the slow path does canonicalize masks outside the family
    assert list(reference_instances(u, fam, bases=[0, max(fam)])) == descs
    assert len(u.class_of) > len(members_before)


def test_enumerate_rows_logs_pool_counts(caplog):
    u = build_universe(4, 3)
    masks = default_family(u, depth=1)
    with caplog.at_level(logging.DEBUG, logger="repairbound.instance"):
        enumerate_rows(u, masks)
        enumerate_rows(u, masks)
    lines = [r.getMessage() for r in caplog.records if r.name == "repairbound.instance"]
    assert lines == [
        "pool: 20 classes, 304 orbit members, 2411 descriptors (954 distinct), 849 rows"
    ] * 2


def reference_enumerate_rows(u, fam_masks, anchors=(), need=0, bases=()):
    # the slow path: a LinExpr and a signature for every distinct
    # descriptor, deduplicated and sorted on (kind, signature); it takes
    # the pair rule and the elemental bases of instances, so it also
    # builds a verifier rung's whole pool
    fam_masks = sorted(set(fam_masks), reverse=True)
    rows = []
    for m in fam_masks:
        rows.append(instance_row((m, 0, 0, 0), "monotonicity"))
        rows.append(instance_row((BIGB, 0, m, 0), "spanning-value"))
    bases = sorted(set(bases), reverse=True)
    for desc in dict.fromkeys(instances(u, fam_masks, anchors, need, bases)):
        rows.append(instance_row(desc))
    seen = {}
    for row in rows:
        if row.coeffs:
            seen.setdefault(signature(row), row)
    order = sorted(seen, key=lambda sig: (KIND_ORDER[seen[sig].kind], sig))
    return [seen[sig] for sig in order]


def test_enumerate_rows_matches_signature_reference():
    # the same kinds, coefficients and order as deduplicating and sorting
    # on signatures
    rng = random.Random(2017)
    for n, k, size in ((4, 3, 9), (5, 4, 7)):
        for trial in range(6):
            u = build_universe(n, k)
            fam = random_family(u, rng, size)
            got = enumerate_rows(u, fam)
            want = reference_enumerate_rows(u, fam)
            assert [(r.kind, r.coeffs) for r in got] == [
                (r.kind, r.coeffs) for r in want
            ], (n, k, trial)


def test_enumerate_rows_keys_each_class_once(monkeypatch):
    # rows are keyed by column ranks, so column_key runs once per class
    # of the family, not once per coefficient of every descriptor
    calls = []
    column_key = instance.column_key
    monkeypatch.setattr(instance, "column_key", lambda col: calls.append(col) or column_key(col))
    for n, k, depth, size in ((4, 3, 1, 20), (5, 4, 1, 33)):
        u = build_universe(n, k)
        fam = default_family(u, depth=depth)
        assert len(fam) == size
        calls.clear()
        enumerate_rows(u, fam)
        assert len(calls) <= len(fam), (n, k, len(calls))
