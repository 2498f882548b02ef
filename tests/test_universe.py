import itertools
import logging
import random
import sys

import pytest

from repairbound.prover import default_family
from repairbound.universe import (
    UnsupportedConfiguration,
    build_universe,
    closure_round,
    index_for_token,
    token_for_index,
)


def all_tokens(n):
    toks = [f"W{i}" for i in range(1, n + 1)]
    toks += [f"S{i}->{j}" for i in range(1, n + 1) for j in range(1, n + 1) if j != i]
    return toks


def naive_closure(n, k, toks):
    """Reference fixpoint on token sets, no bit tricks."""
    s = set(toks)
    changed = True
    while changed:
        changed = False
        for i in range(1, n + 1):
            if f"W{i}" in s:
                for j in range(1, n + 1):
                    if j != i and f"S{i}->{j}" not in s:
                        s.add(f"S{i}->{j}")
                        changed = True
        for j in range(1, n + 1):
            if f"W{j}" not in s and all(
                f"S{i}->{j}" in s for i in range(1, n + 1) if i != j
            ):
                s.add(f"W{j}")
                changed = True
    if sum(1 for i in range(1, n + 1) if f"W{i}" in s) >= k:
        return set(all_tokens(n))
    return s


def closure_tokens(u, toks):
    closed = u.closure_mask(u.mask_of_tokens(toks))
    return {token_for_index(u.n, v) for v in u.indices_of(closed)}


def random_token_set(rng, n):
    toks = all_tokens(n)
    size = rng.randrange(0, len(toks) + 1)
    return set(rng.sample(toks, size))


def test_build_universe_sizes():
    assert build_universe(5, 4).num_vars == 25
    assert build_universe(4, 3).num_vars == 16
    assert build_universe(3, 2).num_vars == 9


def test_build_universe_rejects_bad_parameters():
    with pytest.raises(UnsupportedConfiguration):
        build_universe(2, 1)
    with pytest.raises(UnsupportedConfiguration):
        build_universe(5, 1)
    with pytest.raises(UnsupportedConfiguration):
        build_universe(5, 5)
    with pytest.raises(UnsupportedConfiguration):
        build_universe(5, 4, d=3)
    with pytest.raises(UnsupportedConfiguration, match="n must be <= 6"):
        build_universe(7, 6)
    build_universe(5, 4, d=4)


def test_token_round_trip():
    for n in (3, 4, 5, 6):
        for v in range(n * n):
            assert index_for_token(n, token_for_index(n, v)) == v
    with pytest.raises(ValueError):
        index_for_token(5, "W6")
    with pytest.raises(ValueError):
        index_for_token(5, "S1->1")
    with pytest.raises(ValueError):
        index_for_token(5, "X2")


def test_closure_of_single_node():
    u = build_universe(5, 4)
    want = {"W1", "S1->2", "S1->3", "S1->4", "S1->5"}
    assert closure_tokens(u, ["W1"]) == want


def test_closure_completes_repaired_node():
    u = build_universe(5, 4)
    start = ["S1->5", "S2->5", "S3->5", "S4->5"]
    want = set(start) | {"W5"} | {f"S5->{j}" for j in (1, 2, 3, 4)}
    assert closure_tokens(u, start) == want


def test_closure_of_k_nodes_spans():
    u = build_universe(5, 4)
    m = u.mask_of_tokens(["W1", "W2", "W3", "W4"])
    assert u.closure_mask(m) == u.full_mask


def test_closure_axioms_match_naive_oracle():
    rng = random.Random(101)
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 4), (6, 3), (6, 5)):
        u = build_universe(n, k)
        for _ in range(60):
            toks = random_token_set(rng, n)
            cl = closure_tokens(u, toks)
            assert cl == naive_closure(n, k, toks)
            assert toks <= cl
            m = u.mask_of_tokens(cl)
            assert u.closure_mask(m) == m  # idempotent
            # monotone against a random superset
            extra = toks | random_token_set(rng, n)
            assert cl <= naive_closure(n, k, extra)


def test_canon_merges_relabeled_sets():
    u = build_universe(5, 4)
    c = lambda toks: u.canon_mask(u.mask_of_tokens(toks))
    assert c(["W2"]) == c(["W1"])
    assert c(["S5->2", "W2"]) == c(["S1->3", "W3"])
    assert c(["W1"]) != c(["S1->2"])


def test_canon_is_lex_least_orbit_member():
    rng = random.Random(202)
    for n, k in ((4, 3), (5, 4)):
        u = build_universe(n, k)
        perms = list(itertools.permutations(range(1, n + 1)))
        for _ in range(25):
            m = u.closure_mask(u.mask_of_tokens(random_token_set(rng, n)))
            images = {u.apply_perm_mask(m, pi) for pi in perms}
            best = min(images, key=u.indices_of)
            assert u.canon_mask(m) == best


def test_canon_orbit_invariance_exhaustive():
    rng = random.Random(303)
    for n, k in ((4, 3), (5, 4)):
        u = build_universe(n, k)
        perms = list(itertools.permutations(range(1, n + 1)))
        for _ in range(20):
            m = u.mask_of_tokens(random_token_set(rng, n))
            base = u.canon_mask(m)
            for pi in perms:
                assert u.canon_mask(u.apply_perm_mask(m, pi)) == base
            assert u.canon_mask(u.closure_mask(m)) == base


def test_orbit_soundness():
    rng = random.Random(404)
    u = build_universe(5, 4)
    perms = list(itertools.permutations(range(1, 6)))
    for _ in range(20):
        a = u.closure_mask(u.mask_of_tokens(random_token_set(rng, 5)))
        b = u.apply_perm_mask(a, rng.choice(perms))
        assert u.canon_mask(a) == u.canon_mask(b)
        assert any(u.apply_perm_mask(a, pi) == b for pi in perms)


def test_orbit_masks_lists_whole_orbit():
    u = build_universe(5, 4)
    m = u.closure_mask(u.mask_of_tokens(["W1"]))
    orb = u.orbit_masks(m)
    assert len(orb) == 5
    assert orb[0] == u.canon_mask(m)
    assert sorted(orb, reverse=True) == list(orb)
    assert all(u.closure_mask(x) == x for x in orb)


def test_lazy_orbits_match_an_eager_reference():
    # canon_mask takes the max of a mask's images and indexes them
    # unsorted; orbit_masks sorts a class's orbit on its first read.  On
    # seeded random masks, canonicalized in a random order, both agree
    # with sorting every orbit as it is found: the same class for every
    # mask, the same member index, and the same orbit tuple per class
    rng = random.Random(2828)
    for n, k in ((4, 3), (5, 4), (6, 5)):
        u = build_universe(n, k)
        masks = [rng.getrandbits(u.num_vars) for _ in range(40 if n == 6 else 120)]
        masks += [u.closure_mask(m) for m in masks[:20]]
        rng.shuffle(masks)
        class_of, orbits = {}, {}
        for m in masks:
            closed = u.closure_mask(m)
            if closed not in class_of:
                images = tuple(sorted(set(u._images(closed)), reverse=True))
                class_of.update(dict.fromkeys(images, images[0]))
                orbits[images[0]] = images
            assert u.canon_mask(m) == class_of[closed], (n, k, m)
        assert u.class_of == class_of, (n, k)
        assert u.classes_found == len(orbits), (n, k)
        assert not u._orbit_cache  # no tuple is built before it is read
        for m in rng.sample(masks, len(masks)):
            assert u.orbit_masks(m) == orbits[class_of[u.closure_mask(m)]], (n, k, m)
        assert u._orbit_cache == orbits and u.class_of == class_of, (n, k)


def test_intersection_of_closed_masks_is_closed():
    # instances reads an intersection's class without closing it first
    rng = random.Random(606)
    toks = {n: all_tokens(n) for n in range(3, 7)}
    for n in range(3, 7):
        for k in range(2, n):
            u = build_universe(n, k)
            for _ in range(40):
                a, b = (
                    u.closure_mask(u.mask_of_tokens(rng.sample(toks[n], rng.randrange(2 * n))))
                    for _ in range(2)
                )
                assert u.closure_mask(a & b) == a & b, (n, k, a, b)


def test_byte_tables_match_apply_perm_mask():
    # the table images, in permutation order, against the per-variable
    # relabeling, for every slot width: 2 bytes at n = 3 and 4 (n = 4
    # fills its 16 bits exactly), 4 bytes at n = 5, 8 bytes at n = 6
    rng = random.Random(707)
    for n, k in ((3, 2), (4, 3), (5, 4), (6, 5)):
        u = build_universe(n, k)
        perms = list(itertools.permutations(range(1, n + 1)))
        for _ in range(8):
            m = u.mask_of_tokens(random_token_set(rng, n))
            assert list(u._images(m)) == [u.apply_perm_mask(m, pi) for pi in perms]


def test_orbits_match_brute_force_relabeling():
    # the orbit tables against every permutation applied one variable at
    # a time, on closed masks of every (n, k) the package models
    rng = random.Random(808)
    for n in range(3, 7):
        perms = list(itertools.permutations(range(1, n + 1)))
        toks = all_tokens(n)
        for k in range(2, n):
            u = build_universe(n, k)
            for _ in range(12 if n == 6 else 30):
                m = u.closure_mask(u.mask_of_tokens(rng.sample(toks, rng.randrange(2 * n))))
                orbit = tuple(sorted({u.apply_perm_mask(m, pi) for pi in perms}, reverse=True))
                assert u.orbit_masks(m) == orbit, (n, k, m)
                assert all(u.canon_mask(x) == orbit[0] for x in orbit), (n, k, m)


def test_orbit_tables_stay_small_and_lazy():
    u = build_universe(6, 5)
    u.closure_mask(u.mask_of_tokens(["W1", "S2->3"]))
    assert u._perm_tables is None  # closure alone builds no tables
    u.canon_mask(u.mask_of_tokens(["W1"]))
    # 9 chunks x 16 chunk values x 720 permutations = 103,680 images
    entries = sum(len(t) for t in u._perm_tables) * len(u._perms)
    assert entries <= 150_000
    # packed into 8-byte slots, about 0.83 MB
    assert deep_size(u._perm_tables) <= 1_000_000


def deep_size(obj, seen=None) -> int:
    # bytes held by obj and by the lists and tuples it reaches, each
    # object counted once
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, (list, tuple)):
        size += sum(deep_size(x, seen) for x in obj)
    return size


def test_is_spanning():
    u = build_universe(5, 4)
    t = lambda toks: u.closure_mask(u.mask_of_tokens(toks)) == u.full_mask
    assert t(["W1", "W2", "W3", "W4"])
    assert not t(["W1", "W2", "W3"])
    assert t(["W1", "W2", "W3", "S5->4"])
    assert not t(["S4->5", "W5", "W2", "W1"])


def test_spanning_monotone():
    rng = random.Random(505)
    u = build_universe(5, 4)
    for _ in range(50):
        a = random_token_set(rng, 5)
        b = a | random_token_set(rng, 5)
        if u.closure_mask(u.mask_of_tokens(a)) == u.full_mask:
            assert u.closure_mask(u.mask_of_tokens(b)) == u.full_mask


def test_canon_mask_of_one_node_holds_its_fan_out():
    u = build_universe(5, 4)
    cls = u.canon_mask(u.mask_of_tokens(["W3"]))
    assert type(cls) is int
    assert cls.bit_count() == 5


def test_closure_round_adds_unions_and_intersections():
    u = build_universe(4, 3)
    w1 = u.canon_mask(u.mask_of_tokens(["W1"]))
    s12 = u.canon_mask(u.mask_of_tokens(["S1->2"]))
    grown, done = closure_round(u, {w1, s12}, 100)
    assert done and {w1, s12} <= grown
    # W1 joined with the orbit member W2 of its own class
    assert u.canon_mask(u.mask_of_tokens(["W1", "W2"])) in grown
    assert all(u.canon_mask(m) == m and m != u.full_mask for m in grown)
    again, _ = closure_round(u, {w1, s12}, 100)
    assert again == grown
    _, done = closure_round(u, {w1, s12}, 2)
    assert not done


def test_closure_round_logs_family_growth(caplog):
    # deterministic counters only: a fresh universe gives the same line
    with caplog.at_level(logging.DEBUG, logger="repairbound.universe"):
        for _ in range(2):
            default_family(build_universe(4, 3), depth=1)
        u = build_universe(4, 3)
        base = default_family(u)
        _, done = closure_round(u, base, 6)
    assert not done
    lines = [r.getMessage() for r in caplog.records if r.name == "repairbound.universe"]
    # the member index ends holding every member of the 20 classes out
    assert lines[:2] == [
        "closure round: 4 classes in, 20 classes out, 114 pairs scanned, "
        "16 canon_mask misses, 304 orbit members indexed"
    ] * 2
    assert len(lines) == 3 and lines[2].endswith(
        ", 94 orbit members indexed, stopped at the cap"
    )
