import random
from pathlib import Path

import pytest

from repairbound.certificate import (
    Certificate,
    CertificateError,
    _row_expr,
    _rungs,
    _try_pool,
    _try_pool_active,
    check_row,
    load,
    term_columns,
    verify,
)
from repairbound.universe import EntropyClass, build_universe, index_for_token

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


def test_full_pool_and_active_set_rungs_agree():
    # both row-search paths stay (the family size picks one); on every
    # small-family rung of randomly picked shipped rows they must find a
    # witness together or fail together, and each witness must add up to
    # the row exactly
    rng = random.Random(606)
    u = build_universe(5, 4)
    w_cls = u.canon_class(u.var_bit(0))
    s_cls = u.canon_class(u.var_bit(index_for_token(5, "S1->2")))
    outcomes = set()
    for name in ("prop1", "prop2"):
        cert = load(DATA / f"{name}.cert.json")
        term_cols = term_columns(u, cert)
        for index in rng.sample(range(len(cert.rows)), 10):
            row = cert.rows[index]
            expr = _row_expr(row, term_cols)
            base = {w_cls.mask, s_cls.mask} | {
                term_cols[key].mask
                for key in row
                if isinstance(term_cols.get(key), EntropyClass)
            }
            rungs, _ = _rungs(u, base, 2, 5000)
            for fam, bases, anchors, depth in rungs:
                if len(fam) > 24:
                    continue
                full = _try_pool(u, fam, anchors, bases, expr)
                active = _try_pool_active(u, fam, anchors, bases, expr)
                assert (full is None) == (active is None), (name, index, depth)
                for witness in (full, active):
                    if witness is not None:
                        assert recombined(witness) == expr.coeffs
                outcomes.add((full is None, depth))
    # the sample covers rungs that fail, rungs that succeed, and a small
    # depth-2 family
    assert {(True, 1), (False, 1), (False, 2)} <= outcomes
