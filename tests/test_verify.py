import logging
import random
from pathlib import Path

import pytest

from repairbound import certificate, cli, instance, ratlp
from repairbound.certificate import (
    Certificate,
    CertificateError,
    _row_expr,
    _rungs,
    _term_column,
    _one_pool_row,
    _try_pool_active,
    check_row,
    load,
    verify,
)
from repairbound.instance import (
    ALPHA,
    BETA,
    BIGB,
    LinExpr,
    enumerate_rows,
    instance_row,
    instances,
    pool_columns,
    storage_and_bandwidth_caps,
)
from repairbound.ratlp import IncrementalDualSolver, LPProblem, LPRow
from repairbound.universe import (
    build_universe,
    closure_round,
    index_for_token,
    token_for_index,
)
from test_instance import reference_enumerate_rows
from test_ratlp import bound_lps_433

DATA = Path(__file__).resolve().parent.parent / "data"

CHAIN_TERMS = {
    "T1": ("W1",),
    "T2": ("W1", "W2"),
    "T3": ("W1", "W2", "W3"),
}
# per-node storage four times over covers the whole file
CHAIN_ROWS = [
    {"alpha": 1, "T1": -1},
    {"alpha": 1, "T1": 1, "T2": -1},
    {"alpha": 1, "T2": 1, "T3": -1},
    {"alpha": 1, "T3": 1, "B": -1},
]


def chain_cert(rows=None, target=None):
    return Certificate(
        5,
        4,
        4,
        dict(CHAIN_TERMS),
        [dict(r) for r in (rows or CHAIN_ROWS)],
        dict(target or {"alpha": 4, "B": -1}),
    )


def test_verify_chain_certificate_valid():
    u = build_universe(5, 4)
    report = verify(u, chain_cert())
    assert report.overall == "VALID"
    assert report.meaning == (4, 0, 1)
    assert report.bound == "4α ≥ 1B"
    assert all(rc.status == "valid" and rc.depth == 1 for rc in report.row_status)


def test_check_row_rejects_bad_index_and_depth():
    u = build_universe(5, 4)
    cert = chain_cert()
    with pytest.raises(CertificateError, match="out of range"):
        check_row(u, cert, 99)
    with pytest.raises(CertificateError, match="max_depth"):
        check_row(u, cert, 0, max_depth=0)


def test_check_row_false_row_is_unverified_not_invalid():
    u = build_universe(5, 4)
    # H(W1,W2) >= 2 H(W1) fails on replication; no witness can exist
    cert = chain_cert(rows=[{"T2": 1, "T1": -2}], target={"T2": 1, "T1": -2})
    rc = check_row(u, cert, 0)
    assert rc.status == "unverified"
    assert rc.detail


def test_check_row_uses_equality_anchors():
    u = build_universe(5, 4)
    # H(W1) - alpha and H(S1->2) - beta are only nonnegative because the
    # verifier pins alpha and beta to those entropies, the convention
    # the shipped tables rely on for their negative-beta rows
    cert = Certificate(
        5,
        4,
        4,
        {"T1": ("W1",), "T2": ("S1->2",)},
        [{"T1": 1, "alpha": -1}, {"T2": 1, "beta": -1}],
        {"T1": 1, "alpha": -1, "T2": 1, "beta": -1},
    )
    assert check_row(u, cert, 0).status == "valid"
    assert check_row(u, cert, 1).status == "valid"


def one_row_cert(tokens, row):
    return Certificate(5, 4, 4, {"T1": tokens}, [row], dict(row))


def test_witness_multipliers_are_positive():
    # each cap is pinned as the cap row and then its negation, so every
    # witness is a positive combination of rows that are each >= 0
    u = build_universe(5, 4)
    for name in ("prop1", "prop2"):
        report = verify(u, load(DATA / f"{name}.cert.json"))
        assert report.overall == "VALID"
        for rc in report.row_status:
            assert all(lam > 0 for lam, _ in rc.witness), (name, rc.index)
    for tokens, row, cap in (
        (("W1",), {"T1": 1, "alpha": -1}, "negated-storage-cap"),
        (("W1",), {"T1": 2, "alpha": -1}, "negated-storage-cap"),
        (("S1->2",), {"T1": 1, "beta": -1}, "negated-bandwidth-cap"),
    ):
        rc = check_row(u, one_row_cert(tokens, row), 0)
        assert (rc.status, rc.depth) == ("valid", 1), row
        assert all(lam > 0 for lam, _ in rc.witness), row
        assert cap in [r.kind for _, r in rc.witness], row
    rc = check_row(u, one_row_cert(("W1",), {"T1": 1, "alpha": -2}), 0)
    assert rc.status == "unverified"


def test_verify_unverified_overall():
    u = build_universe(5, 4)
    rows = CHAIN_ROWS + [{"T2": 1, "T1": -2}, {"T1": 2, "T2": -1}]
    report = verify(u, chain_cert(rows=rows))
    assert report.overall == "UNVERIFIED"
    assert [rc.index for rc in report.row_status if rc.status != "valid"] == [4]
    assert any("rows not certified" in d for d in report.diagnostics)


def test_verify_sum_mismatch_is_invalid_and_names_columns():
    u = build_universe(5, 4)
    rows = [dict(r) for r in CHAIN_ROWS]
    rows[1]["T2"] = -2
    report = verify(u, chain_cert(rows=rows))
    assert report.overall == "INVALID"
    assert not report.sum_ok
    assert any("'T2'" in d for d in report.diagnostics)
    assert report.row_status == []  # short-circuits before row work


def test_verify_target_shape_is_checked():
    u = build_universe(5, 4)
    rows = [{"T1": 1, "alpha": -1}]
    cert = Certificate(5, 4, 4, {"T1": ("W1",)}, rows, {"T1": 1, "alpha": -1})
    report = verify(u, cert)
    assert report.overall == "INVALID"
    assert report.sum_ok  # sums match, but the target is not a bound line
    assert any("not of the form" in d for d in report.diagnostics)


def test_verify_problem_mismatch():
    u = build_universe(4, 3)
    report = verify(u, chain_cert())
    assert report.overall == "INVALID"
    assert any("problem mismatch" in d for d in report.diagnostics)


def test_shipped_certificates_row_depths():
    u = build_universe(5, 4)
    report = verify(u, load(DATA / "prop1.cert.json"))
    assert report.overall == "VALID"
    depths = {rc.depth for rc in report.row_status}
    assert depths <= {1, 2} and 2 in depths  # one row needs a closure round


def recombined(witness) -> dict:
    total: dict = {}
    for lam, row in witness:
        for col, v in row.coeffs.items():
            total[col] = total.get(col, 0) + lam * v
    return {col: v for col, v in total.items() if v}


def full_pool_reference(u, fam, anchors, need, bases, expr):
    # the slow path of a rung's search: the rung's whole pool and the
    # pinned caps, built at once and solved cold; a witness list when
    # the row's minimum over that cone is zero, else None
    rows = reference_enumerate_rows(u, fam, anchors, need, bases) + certificate._pinned_caps(u)
    lp = LPProblem(pool_columns(fam), dict(expr.coeffs), [LPRow(r.coeffs) for r in rows])
    sol = ratlp.solve(lp)
    if sol.status == "unbounded":
        return None
    assert (sol.status, sol.value) == ("optimal", 0)
    return tuple((lam, rows[i]) for i, lam in enumerate(sol.duals) if lam)


def both_searches(u, base, expr):
    # on every rung of at most 24 classes up to depth 2, rungs after a
    # success included: the rung's (depth, need, whether it has elemental
    # bases), the reference's witness and the active set's, which must
    # both exist or both be None
    for fam, bases, anchors, need, depth in _rungs(u, base, 2):
        if fam is not None and len(fam) <= 24:
            full = full_pool_reference(u, fam, anchors, need, bases, expr)
            active = _try_pool_active(u, fam, anchors, need, bases, expr)
            assert (full is None) == (active is None), (expr, depth, need)
            yield (depth, need, bool(bases)), full, active


def test_full_pool_and_active_set_rungs_agree():
    # the active set is every rung's search; on every small-family rung of
    # randomly picked shipped rows it must find a witness exactly when the
    # full-pool reference does, and each witness must add up to the row
    rng = random.Random(606)
    u = build_universe(5, 4)
    w_cls = u.canon_mask(u.var_bit(0))
    s_cls = u.canon_mask(u.var_bit(index_for_token(5, "S1->2")))
    outcomes = set()
    for name in ("prop1", "prop2"):
        cert = load(DATA / f"{name}.cert.json")
        term_cols = {tid: _term_column(u, toks) for tid, toks in cert.terms.items()}
        for index in rng.sample(range(len(cert.rows)), 10):
            row = cert.rows[index]
            expr = _row_expr(row, term_cols)
            base = {w_cls, s_cls} | {
                term_cols[key]
                for key in row
                if isinstance(term_cols.get(key), int)
            }
            for (depth, _, _), full, active in both_searches(u, base, expr):
                for witness in (full, active):
                    if witness is not None:
                        assert recombined(witness) == expr.coeffs, (name, index, depth)
                outcomes.add((full is None, depth))
    # the sample covers rungs that fail, rungs that succeed, and a small
    # depth-2 family
    assert {(True, 1), (False, 1), (False, 2)} <= outcomes


def test_closure_round_runs_only_after_depth_one_fails(monkeypatch):
    # prop1 row 0 is certified at depth 1 and row 4 needs depth 2; the
    # ladder grows a depth-2 family only once the depth-1 rung fails
    rounds = []
    closure_round = certificate.closure_round

    def counted(*args):
        rounds.append(args)
        return closure_round(*args)

    monkeypatch.setattr(certificate, "closure_round", counted)
    u = build_universe(5, 4)
    cert = load(DATA / "prop1.cert.json")
    rc = check_row(u, cert, 0)
    assert (rc.status, rc.depth, len(rounds)) == ("valid", 1, 0)
    rc = check_row(u, cert, 4)
    assert (rc.status, rc.depth, len(rounds)) == ("valid", 2, 1)


def test_check_row_logs_one_line_per_rung(caplog):
    # prop2 row 0 needs the depth-2 rungs; the lines carry no time, so two
    # runs on fresh universes agree line for line
    cert = load(DATA / "prop2.cert.json")
    runs = []
    for _ in range(2):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repairbound.certificate"):
            rc = check_row(build_universe(5, 4), cert, 0)
        assert rc.status == "valid" and rc.depth == 2
        runs.append(
            [r.getMessage() for r in caplog.records if r.name == "repairbound.certificate"]
        )
    assert runs[0] == runs[1]
    # depth 1 is one rung; depth 2 certifies the row on its first rung
    assert runs[0] == [
        "row 0, depth 1: 4 classes, unanchored, 5 elemental bases: no witness",
        "row 0, depth 2: 51 classes, within, 5 elemental bases: valid",
    ]


def test_family_cap_leaves_a_row_unverified(monkeypatch):
    # prop1 row 4 needs a depth-2 family; a closure round past the cap
    # ends the ladder, and the row says why
    monkeypatch.setattr(certificate, "FAMILY_CAP", 20)
    rc = check_row(build_universe(5, 4), load(DATA / "prop1.cert.json"), 4)
    assert (rc.status, rc.detail) == ("unverified", "family size cap exceeded")


# row 0 claims H(S1->2) >= H(W1) for (3,2,2), which is false; its family
# stops growing after the depth-3 round, at 9 classes
SATURATING_CERT = (
    '{"problem":{"n":3,"k":2,"d":2},"terms":[{"id":"T1","vars":["W1"]},'
    '{"id":"T2","vars":["S1->2"]}],"rows":[{"coeffs":{"T2":1,"T1":-1}},'
    '{"coeffs":{"T1":1,"T2":-1,"alpha":1}}],"target":{"coeffs":{"alpha":1}}}'
)


def test_ladder_stops_once_a_closure_round_adds_no_class(monkeypatch):
    # every rung past a round that adds no class would repeat the
    # unrestricted rung that just failed, so the ladder stops there and
    # the row still reports the whole depth budget; trying every depth
    # up to 32 made 95 rung attempts
    attempts = []
    search = certificate._try_pool_active

    def counted(*args):
        attempts.append(len(args[1]))  # the rung's family size
        return search(*args)

    monkeypatch.setattr(certificate, "_try_pool_active", counted)
    cert = certificate.parse(SATURATING_CERT)
    rc = check_row(build_universe(3, 2), cert, 0, max_depth=32)
    assert (rc.status, rc.depth, rc.detail) == ("unverified", 32, "pool exhausted")
    assert len(attempts) <= 8, attempts


# the rows of the shipped certificates that need a closure round
DEPTH_TWO_ROWS = {"prop1": (4, 10, 12), "prop2": (0, 4)}


def recorded_rungs(monkeypatch):
    # the (need, depth) of every rung check_row asks for
    tried = []
    rungs = certificate._rungs

    def recording(*args):
        for rung in rungs(*args):
            tried.append(rung[3:])
            yield rung

    monkeypatch.setattr(certificate, "_rungs", recording)
    return tried


def test_shipped_outcomes_are_pinned():
    # (status, depth, detail) of every shipped row at each depth budget;
    # a change to the ladder must not move a row
    u = build_universe(5, 4)
    for name, size in (("prop1", 13), ("prop2", 25)):
        cert = load(DATA / f"{name}.cert.json")
        assert len(cert.rows) == size
        for max_depth in (1, 2, 3):
            want = [("valid", 1, "")] * size
            for index in DEPTH_TWO_ROWS[name]:
                want[index] = (
                    ("unverified", 1, "pool exhausted") if max_depth == 1 else ("valid", 2, "")
                )
            report = verify(u, cert, max_depth=max_depth)
            got = [(rc.status, rc.depth, rc.detail) for rc in report.row_status]
            assert got == want, (name, max_depth)


def test_shipped_depth_two_rows_use_the_within_rung(monkeypatch):
    # each depth-2 row is certified by the pairs inside its depth-1
    # family, so neither the touching nor the unrestricted pool is built;
    # these are the shipped witnesses of the active-set rung, and each
    # must add up to its row exactly
    tried = recorded_rungs(monkeypatch)
    u = build_universe(5, 4)
    for name, rows in DEPTH_TWO_ROWS.items():
        cert = load(DATA / f"{name}.cert.json")
        term_cols = {tid: _term_column(u, toks) for tid, toks in cert.terms.items()}
        for index in rows:
            tried.clear()
            rc = check_row(u, cert, index)
            assert (rc.status, rc.depth) == ("valid", 2), (name, index)
            assert tried == [(0, 1), (2, 2)], (name, index)
            expr = _row_expr(cert.rows[index], term_cols)
            assert recombined(rc.witness) == expr.coeffs, (name, index)


def test_active_set_rungs_draw_few_descriptors(monkeypatch):
    # work counts in place of a timing while both shipped certificates
    # verify: the 10 active-set rungs draw 6,077 descriptors, bounded
    # here with a margin of about 32%; a ladder that tried the touching
    # rung before the within rung would draw 63,320.  Only the active-set
    # rungs' draws count, not the small ones of the one-row match.
    # column_key runs 359 times, once per class of each pool_columns
    # call.  No solver is given two rows with equal coefficients.
    drawn = []
    given = {}  # solver -> every row given to it
    keyed = []
    in_active = []
    try_pool_active = certificate._try_pool_active

    def active(*args):
        in_active.append(True)
        try:
            return try_pool_active(*args)
        finally:
            in_active.pop()

    def counted(*args):
        descs = list(instances(*args))
        if in_active:
            drawn.append(len(descs))
        return iter(descs)

    init, add_rows = IncrementalDualSolver.__init__, IncrementalDualSolver.add_rows

    def recorded_init(solver, columns, objective, rows):
        given[solver] = list(rows)
        init(solver, columns, objective, rows)

    def recorded_add_rows(solver, rows):
        rows = list(rows)
        given[solver] += rows
        add_rows(solver, rows)

    column_key = instance.column_key

    def counted_key(col):
        keyed.append(col)
        return column_key(col)

    monkeypatch.setattr(certificate, "instances", counted)
    monkeypatch.setattr(certificate, "_try_pool_active", active)
    monkeypatch.setattr(IncrementalDualSolver, "__init__", recorded_init)
    monkeypatch.setattr(IncrementalDualSolver, "add_rows", recorded_add_rows)
    monkeypatch.setattr(instance, "column_key", counted_key)
    u = build_universe(5, 4)
    for name in ("prop1", "prop2"):
        assert verify(u, load(DATA / f"{name}.cert.json")).overall == "VALID"
    assert len(drawn) == len(given) == 10
    assert sum(drawn) <= 8000
    assert len(keyed) <= 1000
    for rows in given.values():
        assert len({frozenset(r.coeffs.items()) for r in rows}) == len(rows)


def test_pivots_store_few_basis_entries(monkeypatch):
    # a work count in place of a timing: summed over the 166 pivots made
    # while both shipped certificates verify, the entries that M = D·B⁻¹
    # stores before each pivot are 18,826, bounded here with a margin of
    # about 219%; dense rows would hold all 1,206,305 cells
    stored = []
    pivot = ratlp._Simplex._pivot

    def counted(sx, leave, enter, u):
        stored.append(sum(map(len, sx.M)))
        return pivot(sx, leave, enter, u)

    monkeypatch.setattr(ratlp._Simplex, "_pivot", counted)
    u = build_universe(5, 4)
    for name in ("prop1", "prop2"):
        assert verify(u, load(DATA / f"{name}.cert.json")).overall == "VALID"
    assert len(stored) == 166
    assert sum(stored) <= 60000


def test_dual_steps_rescale_only_when_the_determinant_moves(monkeypatch):
    # a work count in place of a timing: a pivot on |p| = D moves only
    # the entries of y in the pivot row, and only the other pivots
    # rescale the whole of y, which makes a new list.  Of the 166 pivots
    # made while both shipped certificates verify, 134 keep D, and of the
    # 297 of the five (4,3,3) depth-1 bound LPs, 216 do; each run prices
    # after every pivot, so every pivot is followed by one price
    seen = {"y": None, "kept": None}
    steps = []  # per pivot: (whether D stayed, whether y is a new list)
    run, price, pivot = ratlp._Simplex.run, ratlp._Simplex._price, ratlp._Simplex._pivot

    def counted_run(sx, cost, ban_art):
        seen["y"] = seen["kept"] = None
        return run(sx, cost, ban_art)

    def counted_pivot(sx, leave, enter, u):
        d = sx.D
        pivot(sx, leave, enter, u)
        seen["kept"] = sx.D == d

    def counted_price(sx, cost, y, ban_art, scan, batch):
        if seen["kept"] is not None:
            steps.append((seen["kept"], y is not seen["y"]))
            seen["kept"] = None
        seen["y"] = y
        return price(sx, cost, y, ban_art, scan, batch)

    monkeypatch.setattr(ratlp._Simplex, "run", counted_run)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", counted_pivot)
    monkeypatch.setattr(ratlp._Simplex, "_price", counted_price)
    u = build_universe(5, 4)
    for name in ("prop1", "prop2"):
        assert verify(u, load(DATA / f"{name}.cert.json")).overall == "VALID"
    assert (len(steps), sum(k for k, _ in steps)) == (166, 134)
    assert all(kept != rescaled for kept, rescaled in steps)
    steps.clear()
    for lp in bound_lps_433():
        ratlp.solve(lp)
    assert (len(steps), sum(k for k, _ in steps)) == (297, 216)
    assert all(kept != rescaled for kept, rescaled in steps)


def test_active_set_rungs_that_fail_add_few_rows(monkeypatch):
    # a work count for rungs that find no witness, which no shipped row
    # reaches: six unanchored depth-2 rungs on families of 43 to 89
    # classes (the cap classes and two random classes, grown one round),
    # each over a row that sums three pool instances and takes away one
    # class.  The rows that separation adds are 2,252, bounded here with
    # a margin of about 22%; picking 200 rows a round instead of 100 they
    # are 3,927, without the strided picks 5,077, and with the elemental
    # instances of the bases in the start set 2,427
    added = []
    add_rows = IncrementalDualSolver.add_rows

    def counted(self, rows):
        added.append(len(rows))
        return add_rows(self, rows)

    monkeypatch.setattr(IncrementalDualSolver, "add_rows", counted)
    rng = random.Random(5)
    u = build_universe(5, 4)
    caps = {u.canon_mask(u.var_bit(0)), u.canon_mask(u.var_bit(index_for_token(5, "S1->2")))}
    rungs = 0
    while rungs < 6:
        base = set(caps)
        while len(base) < 4:
            m = u.closure_mask(u.mask_of(rng.sample(range(u.num_vars), rng.randrange(1, 6))))
            if m != u.full_mask:
                base.add(u.canon_mask(m))
        fam, done = closure_round(u, base, 5000)
        if not (done and 43 <= len(fam) <= 89):
            continue
        fam = frozenset(fam)
        bases = (0, *sorted(base, reverse=True))
        pool = [d for d in dict.fromkeys(instances(u, fam, (), 0, bases)) if d[1]]
        coeffs: dict = {}
        for desc in rng.sample(pool, 3):
            for col, v in instance_row(desc).coeffs.items():
                coeffs[col] = coeffs.get(col, 0) + v
        cls = rng.choice(sorted(fam))
        coeffs[cls] = coeffs.get(cls, 0) - 1
        expr = LinExpr({c: v for c, v in coeffs.items() if v}, "certificate-row")
        assert _try_pool_active(u, fam, (), 0, bases, expr) is None
        rungs += 1
    assert sum(added) <= 2750


def row_certificate(u, coeffs):
    # a one-row certificate over class masks and the reserved columns,
    # one term per class
    terms, row = {}, {}
    for col, v in coeffs.items():
        if col in (ALPHA, BETA, BIGB):
            row[col] = v
        else:
            tid = f"T{len(terms) + 1}"
            terms[tid] = tuple(token_for_index(u.n, i) for i in u.indices_of(col))
            row[tid] = v
    return Certificate(u.n, u.k, u.d, terms, [row], dict(row))


def test_touching_rung_certifies_a_row_the_within_rung_misses(monkeypatch):
    # seeded search for such a row: grow the cap classes and two random
    # classes by one round, then add a submodularity instance over a pair
    # that touches the old family to one over a pair inside it whose union
    # or intersection cancels the touching pair's new class
    tried = recorded_rungs(monkeypatch)
    rng = random.Random(7)
    u = build_universe(5, 4)
    caps = {u.canon_mask(u.var_bit(0)), u.canon_mask(u.var_bit(index_for_token(5, "S1->2")))}
    for trial in range(20):
        base = set(caps)
        while len(base) < 4:
            m = u.closure_mask(u.mask_of(rng.sample(range(u.num_vars), rng.randrange(1, 6))))
            if m != u.full_mask:
                base.add(u.canon_mask(m))
        fam, done = closure_round(u, base, 5000)
        assert done
        within = dict.fromkeys(d for d in instances(u, fam, base, 2) if d[1])
        touching = [
            d for d in dict.fromkeys(instances(u, fam, base, 1)) if d[1] and d not in within
        ]
        outer = rng.choice(touching)
        fresh = outer[1] if outer[0] in base else outer[0]
        inner = [d for d in within if fresh in d[2:]]
        if not inner:
            continue
        coeffs: dict = {}
        for desc in (outer, rng.choice(inner)):
            for col, v in instance_row(desc).coeffs.items():
                coeffs[col] = coeffs.get(col, 0) + v
        cert = row_certificate(u, {c: v for c, v in coeffs.items() if v})
        tried.clear()
        rc = check_row(u, cert, 0)
        if tried[-2:] == [(2, 2), (1, 2)]:
            break
    else:
        pytest.fail("no row needs the touching rung")
    assert (rc.status, rc.depth) == ("valid", 2)
    term_cols = {tid: _term_column(u, toks) for tid, toks in cert.terms.items()}
    assert recombined(rc.witness) == _row_expr(cert.rows[0], term_cols).coeffs


def first_rung_family(u, coeffs):
    # the family of check_row's first rung: the row's classes and the caps'
    cols = [*coeffs]
    for cap in storage_and_bandwidth_caps(u):
        cols += cap.coeffs
    return frozenset(c for c in cols if type(c) is int)


def random_small_base(rng, u, caps):
    # the cap classes and two random classes
    base = set(caps)
    while len(base) < len(caps) + 2:
        m = u.closure_mask(u.mask_of(rng.sample(range(u.num_vars), rng.randrange(1, 5))))
        if m != u.full_mask:
            base.add(u.canon_mask(m))
    return base


def random_pool_row_draws(rng, u, pool, columns):
    # rows drawn around a rung-1 pool: (shape, coefficients)
    shape = rng.choice(("multiple", "nonnegative", "changed", "sum", "negated"))
    row = dict(rng.choice(pool).coeffs)
    if shape == "multiple":
        lam = rng.randint(1, 4)
        row = {c: lam * v for c, v in row.items()}
    elif shape == "nonnegative":
        row = {c: rng.randint(1, 3) for c in rng.sample(columns, rng.randint(1, 3))}
    elif shape == "changed":
        col = rng.choice(columns)
        row[col] = row.get(col, 0) + rng.choice((-2, -1, 1, 2))
    elif shape == "sum":
        for col, v in rng.choice(pool).coeffs.items():
            row[col] = row.get(col, 0) + v
    else:
        row = {c: -v for c, v in row.items()}
    return shape, {c: v for c, v in row.items() if v}


def caps_draw(rng, u, pool):
    # a pool row times 1..3 plus multiples, of either sign, of the caps
    lam = rng.randint(1, 3)
    row = {c: lam * v for c, v in rng.choice(pool).coeffs.items()}
    for cap in storage_and_bandwidth_caps(u):
        a = rng.randint(-3, 3)
        for col, v in cap.coeffs.items():
            row[col] = row.get(col, 0) + a * v
    return "caps", {c: v for c, v in row.items() if v}


def test_one_pool_row_match_agrees_with_the_first_rung(monkeypatch):
    # the match before the ladder is a fast path of the first rung.  On
    # seeded rows around small families' pools: a row it accepts is
    # certified by the rung-1 LP too, with the ladder's status and depth,
    # and its witness has positive multipliers, at most one entry that is
    # not a cap, and leaves the row a slack with no negative coefficient
    # (or is empty for a row with no negative coefficient); a row it
    # declines gets the ladder's result unchanged, witness included;
    # every multiple of a pool row is accepted, and so is one plus any
    # multiples of the caps.  A match that skipped the gcd division would
    # decline the multiples, one that never used a negated cap would
    # decline rows with a negative alpha or beta, and one that accepted
    # negated instances would certify rows the ladder leaves unverified.
    rng = random.Random(2501)
    seen = set()
    for n, k in ((4, 3), (5, 4)):
        u = build_universe(n, k)
        caps = first_rung_family(u, {})
        for _ in range(16):
            base = random_small_base(rng, u, caps)
            pool = enumerate_rows(u, base) + certificate._pinned_caps(u)
            columns = [ALPHA, BETA, BIGB, *sorted(base)]
            for _ in range(16):
                if rng.random() < 0.25:
                    shape, coeffs = caps_draw(rng, u, pool)
                else:
                    shape, coeffs = random_pool_row_draws(rng, u, pool, columns)
                if not coeffs:
                    continue
                cert = row_certificate(u, coeffs)
                fast = check_row(u, cert, 0, max_depth=1)
                with monkeypatch.context() as m:
                    m.setattr(certificate, "_one_pool_row", lambda *args: None)
                    slow = check_row(u, cert, 0, max_depth=1)
                expr = LinExpr(coeffs)
                witness = _one_pool_row(u, expr)
                seen.add((shape, witness is not None))
                if witness is None:
                    assert shape not in ("multiple", "caps"), coeffs
                    assert fast == slow, coeffs
                    continue
                assert (fast.status, fast.depth, fast.detail) == ("valid", 1, "")
                assert (slow.status, slow.depth, slow.detail) == ("valid", 1, ""), coeffs
                assert fast.witness == witness
                fam = first_rung_family(u, coeffs)
                assert full_pool_reference(u, fam, (), 0, (), expr) is not None
                assert all(lam > 0 for lam, _ in witness), coeffs
                assert sum(not row.kind.endswith("-cap") for _, row in witness) <= 1, coeffs
                total = recombined(witness)
                assert all(coeffs.get(c, 0) >= total.get(c, 0) for c in {*coeffs, *total})
                if not witness:
                    assert min(coeffs.values()) > 0
    # accepted multiples, cap sums and nonnegative rows, and declined rows
    # of the other shapes, all occur
    assert {
        ("multiple", True),
        ("caps", True),
        ("nonnegative", True),
        ("changed", False),
        ("sum", False),
        ("negated", False),
    } <= seen, seen


def test_active_set_and_full_pool_agree_on_random_rows():
    # the verifier's one row search against its slow path, on seeded rows
    # around small families' rung-1 pools at (4,3) and (5,4): on every
    # rung of at most 24 classes up to depth 2, the active set finds a
    # witness exactly when the full-pool reference does.  Each
    # witness has positive multipliers and adds up to the row less a
    # slack with no negative coefficient, which x >= 0 covers; the slack
    # is zero on the shipped rows, but on a row such as an instance plus
    # H(A) the LP leaves H(A) in its reduced costs.  The pairs of the base
    # family without elemental bases, once a rung of their own, form a pool
    # inside the depth-1 rung's, so that rung finds a witness whenever the
    # reference finds one over those pairs alone
    rng = random.Random(2602)
    seen = set()
    for n, k in ((4, 3), (5, 4)):
        u = build_universe(n, k)
        caps = first_rung_family(u, {})
        for _ in range(6):
            base = random_small_base(rng, u, caps)
            pool = enumerate_rows(u, base) + certificate._pinned_caps(u)
            columns = [ALPHA, BETA, BIGB, *sorted(base)]
            for _ in range(8):
                _, coeffs = random_pool_row_draws(rng, u, pool, columns)
                if not coeffs:
                    continue
                expr = LinExpr(coeffs)
                base = first_rung_family(u, coeffs)
                pairs_only = full_pool_reference(u, base, (), 0, (), expr)
                for rung, full, active in both_searches(u, base, expr):
                    if rung[0] == 1:
                        assert pairs_only is None or active is not None, coeffs
                    for witness in (full, active):
                        if witness is not None:
                            assert all(lam > 0 for lam, _ in witness)
                            total = recombined(witness)
                            slack = [coeffs.get(c, 0) - total.get(c, 0) for c in {*coeffs, *total}]
                            assert min(slack) >= 0, (coeffs, total)
                    seen.add((n, *rung, active is not None))
    # both sizes reach every rung kind, each with and without a witness
    kinds = ((1, 0, True), (2, 2, True), (2, 1, True), (2, 0, True))
    assert {(n, *kind, found) for n in (4, 5) for kind in kinds for found in (False, True)} <= seen


def test_rows_that_are_one_pool_row_need_no_lp(monkeypatch, tmp_path):
    # a work count in place of a timing: every row of the seven
    # certificates that the benchmark's prove workload writes is one pool
    # row plus pinned caps, so verifying them solves no LP at all.  Of
    # the rows of both shipped certificates, only those that need a
    # closure round reach the ladder; they build 10 active-set solvers
    # and make no cold solve
    monkeypatch.chdir(tmp_path)
    for d in ("1,0", "2,1", "4,6", "1,3", "0,1"):
        assert cli.main(["solve", "--n", "4", "--k", "3", "--depth", "1", "--dir", d]) == 0
    assert cli.main(["solve", "--n", "5", "--k", "4", "--dir", "1,0", "--dir", "15,10"]) == 0
    paths = sorted(tmp_path.glob("bound-*.cert.json"))
    assert len(paths) == 7
    solves = []
    solve = ratlp.solve
    # the verifier holds no name of its own for solve, so wrapping it in
    # ratlp catches every call
    assert solve not in vars(certificate).values()

    def counted(lp):
        solves.append(lp)
        return solve(lp)

    monkeypatch.setattr(ratlp, "solve", counted)
    monkeypatch.setattr(certificate, "IncrementalDualSolver", None)  # no rung may run
    universes = {(4, 3): build_universe(4, 3), (5, 4): build_universe(5, 4)}
    for path in paths:
        cert = load(path)
        report = verify(universes[cert.n, cert.k], cert)
        assert report.overall == "VALID", path
        assert {(rc.status, rc.depth) for rc in report.row_status} == {("valid", 1)}
    assert solves == []
    monkeypatch.undo()
    solvers = []
    init = IncrementalDualSolver.__init__

    def counted_init(solver, *args):
        solvers.append(solver)
        init(solver, *args)

    on = {}  # the certificate and row that check_row is on
    laddered = {"prop1": set(), "prop2": set()}
    check, search = certificate.check_row, certificate._try_pool_active

    def tracked_check(u, cert, index, **kwargs):
        on["row"] = index
        return check(u, cert, index, **kwargs)

    def tracked_search(*args):
        laddered[on["name"]].add(on["row"])
        return search(*args)

    monkeypatch.setattr(ratlp, "solve", counted)
    monkeypatch.setattr(IncrementalDualSolver, "__init__", counted_init)
    monkeypatch.setattr(certificate, "check_row", tracked_check)
    monkeypatch.setattr(certificate, "_try_pool_active", tracked_search)
    for name in ("prop1", "prop2"):
        on["name"] = name
        assert verify(universes[5, 4], load(DATA / f"{name}.cert.json")).overall == "VALID"
    assert laddered == {name: set(rows) for name, rows in DEPTH_TWO_ROWS.items()}
    assert (len(solves), len(solvers)) == (0, 10)


def test_matched_rows_log_one_line(caplog):
    # a row that the match certifies logs one line in the rung lines'
    # place, naming each witness entry's kind; prop1 rows 5, 7, 8, 9 and
    # 11 are each one submodularity instance, and rows 0, 1, 2, 3 and 6
    # one submodularity instance plus pinned caps; a row that is caps
    # alone names only the caps
    u = build_universe(5, 4)

    def logged(check):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="repairbound.certificate"):
            check()
        return [r.getMessage() for r in caplog.records if r.name == "repairbound.certificate"]

    lines = logged(lambda: verify(u, load(DATA / "prop1.cert.json")))
    assert logged(lambda: check_row(u, one_row_cert(("W1",), {"T1": 2, "beta": 1}), 0)) == [
        "row 0, depth 1: no negative coefficient"
    ]
    assert logged(lambda: check_row(u, one_row_cert(("W1",), {"T1": 3, "alpha": -3}), 0)) == [
        "row 0, depth 1: one pool row (negated-storage-cap)"
    ]
    row = {"alpha": 1, "beta": 1, "T1": -1, "T2": -1}
    caps_only = Certificate(5, 4, 4, {"T1": ("W1",), "T2": ("S1->2",)}, [row], dict(row))
    assert logged(lambda: check_row(u, caps_only, 0)) == [
        "row 0, depth 1: pinned caps (storage-cap, bandwidth-cap)"
    ]
    want = {i: "one pool row (submodularity)" for i in (5, 7, 8, 9, 11)}
    for i, caps in (
        (0, "storage-cap, bandwidth-cap"),
        (1, "storage-cap"),
        (2, "storage-cap"),
        (3, "bandwidth-cap"),
        (6, "storage-cap"),
    ):
        want[i] = f"one pool row (submodularity) and pinned caps ({caps})"
    matched = [line for line in lines if ": one pool row (" in line]
    assert matched == [f"row {i}, depth 1: {want[i]}" for i in sorted(want)]
    for i, line in want.items():
        assert [x for x in lines if x.startswith(f"row {i}, ")] == [f"row {i}, depth 1: {line}"]
