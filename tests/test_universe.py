import itertools
import random

import pytest

from repairbound.universe import (
    EntropyClass,
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
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 4)):
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
    c = lambda toks: u.canon_class(u.mask_of_tokens(toks))
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


def test_entropy_class_tokens_sorted():
    u = build_universe(5, 4)
    cls = u.canon_class(u.mask_of_tokens(["W3"]))
    assert cls.tokens() == sorted(cls.tokens())
    assert isinstance(cls, EntropyClass)
    assert cls.size == 5


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
