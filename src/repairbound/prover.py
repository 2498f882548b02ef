"""Outer-bound discovery: subset families, the family-restricted LP,
and integer certificate extraction.

A bound in direction (c_a, c_b) is proved by minimizing c_a*alpha +
c_b*beta over the symmetry-reduced constraint pool of a chosen class
family, with the spanning value normalized to one.  The optimal duals
are cleared to integers and re-emitted as certificate rows whose column
sums reproduce the target exactly; positive reduced costs are absorbed
by one final nonnegativity row so the sum check never depends on which
columns the optimum happened to leave at zero.  Every emitted
certificate is re-verified before it is returned.  The prover reads no
files: family seeds arrive as token tuples (see certificate.load_terms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certificate import DEFAULT_MAX_DEPTH, Certificate, CertificateError, check_sum, verify
from .instance import (
    ALPHA,
    BETA,
    BIGB,
    column_key,
    enumerate_rows,
    pool_columns,
    storage_and_bandwidth_caps,
)
from .ratlp import LPProblem, LPRow, solve
from .universe import Universe, closure_round, index_for_token, token_for_index

DEFAULT_FAMILY_CAP = 20000


class FamilyError(ValueError):
    """Family construction failed or exceeded its size cap."""


@dataclass(frozen=True)
class ProvedBound:
    direction: tuple
    value: Fraction
    certificate: Certificate


def default_family(
    u: Universe, seeds=(), depth: int = 0, cap: int = DEFAULT_FAMILY_CAP
) -> frozenset:
    """Deterministic family heuristic: a frozenset of canonical class
    masks.

    Base classes: every singleton variable; every proper node-only
    subset; every such subset augmented by one repair message into a
    missing node; the seeds, each a tuple of variable tokens.  Then up
    to `depth` rounds (the first that adds no class ends them) of pairwise
    union/intersection closure over (representative, orbit member)
    pairs, so the family stays a union of full symmetry orbits rather
    than depending on which member is canonical.  Spanning sets are
    never stored; they are represented by the reserved spanning column
    wherever a constraint touches one.
    """
    if depth < 0:
        raise FamilyError("depth must be nonnegative")
    masks: set = set()

    def add(mask: int) -> None:
        closed = u.closure_mask(mask)
        if closed != u.full_mask:
            masks.add(u.canon_mask(closed))

    for v in range(u.num_vars):
        add(u.var_bit(v))

    node_sets = []
    for bits in range(1, 1 << u.n):
        mask = 0
        for i in range(u.n):
            if bits >> i & 1:
                mask |= u.var_bit(i)
        node_sets.append((bits, mask))
        add(mask)

    for bits, mask in node_sets:
        for j in range(u.n):
            if bits >> j & 1:
                continue
            for i in range(u.n):
                if i != j and not bits >> i & 1:
                    add(mask | u.var_bit(index_for_token(u.n, f"S{i + 1}->{j + 1}")))

    for tokens in seeds:
        add(u.mask_of_tokens(tokens))

    if len(masks) > cap:
        raise FamilyError(f"{len(masks)} base classes exceed the family size cap {cap}")

    for round_no in range(1, depth + 1):
        grown, completed = closure_round(u, masks, cap)
        if not completed:
            raise FamilyError(f"family size cap exceeded in closure round {round_no}")
        if len(grown) == len(masks):
            break  # closed, so every later round returns it unchanged
        masks = grown

    return frozenset(masks)


def _check_direction(direction) -> tuple:
    """The direction as two Fractions and the lcm of their denominators."""
    ca, cb = (Fraction(x) for x in direction)
    if ca < 0 or cb < 0 or (ca == 0 and cb == 0):
        raise ValueError("direction must be nonnegative and not both zero")
    return ca, cb, math.lcm(ca.denominator, cb.denominator)


def pool_rows(u: Universe, fam: frozenset) -> list:
    """The bound LP's rows over a family, for every direction: the caps,
    then one row per pooled constraint in pool order, with its BIGB
    coefficient as the constant.  Each row takes over the coefficient
    dict of the expression just built for it, with BIGB popped out."""
    if not fam:
        raise FamilyError("empty family")
    return [
        LPRow(e.coeffs, e.coeffs.pop(BIGB, 0))
        for e in storage_and_bandwidth_caps(u) + enumerate_rows(u, fam)
    ]


def build_lp(u: Universe, fam: frozenset, direction, rows=None) -> LPProblem:
    """The family-restricted bound LP with the spanning value fixed at
    one: minimize the direction, scaled by the lcm of its denominators,
    over alpha, beta and the family's class entropies subject to every
    pooled constraint.  rows, when given, are the family's pool_rows,
    built once for several directions."""
    ca, cb, s = _check_direction(direction)
    if rows is None:
        rows = pool_rows(u, fam)
    columns = [c for c in pool_columns(fam) if c != BIGB]
    return LPProblem(columns, {ALPHA: int(ca * s), BETA: int(cb * s)}, rows)


def _display_order(coeffs: dict) -> list:
    head = [c for c in (BETA, ALPHA) if c in coeffs]
    mid = sorted((c for c in coeffs if type(c) is int), key=column_key)
    tail = [BIGB] if BIGB in coeffs else []
    return head + mid + tail


def prove(
    u: Universe, fam: frozenset, direction, max_depth: int = DEFAULT_MAX_DEPTH, rows=None
) -> ProvedBound:
    """Solve the direction LP and extract a self-contained certificate.

    Rows with nonzero multipliers are scaled by the answer's common
    denominator, which clears every multiplier and reduced cost, divided
    by the collective gcd, and written out pre-multiplied; reduced costs
    on columns the optimum left out of play become one trailing
    all-positive row.  The
    result is re-verified before return.  rows are passed on to build_lp.
    The target is built from build_lp's integer objective, and the LP's
    value is divided by the direction's scale for the proved value.
    """
    lp = build_lp(u, fam, direction, rows)
    ca, cb, s = _check_direction(direction)
    sol = solve(lp)
    value = sol.value / s

    # the multipliers and the reduced costs, as numerators over sol.den
    reduced = {col: v * sol.den for col, v in lp.objective.items()}
    for i, lam in sol.dual_num.items():
        for col, cv in lp.rows[i].coeffs.items():
            reduced[col] = reduced.get(col, 0) - lam * cv
    smults = {col: rc for col, rc in reduced.items() if rc}
    g = math.gcd(*sol.dual_num.values(), *smults.values()) or 1

    out_rows = []
    for i, mult in sol.dual_num.items():
        row = lp.rows[i]
        coeffs = dict(row.coeffs)
        if row.const:
            coeffs[BIGB] = row.const
        out_rows.append({c: mult // g * v for c, v in coeffs.items()})
    if smults:
        out_rows.append({c: s // g for c, s in smults.items()})

    term_ids: dict = {}
    rows_json = []
    for coeffs in out_rows:
        row_json = {}
        for col in _display_order(coeffs):
            if type(col) is int and col not in term_ids:
                term_ids[col] = f"T{len(term_ids) + 1}"
            row_json[term_ids.get(col, col)] = coeffs[col]
        rows_json.append(row_json)

    scale = Fraction(sol.den, g)
    target_full = {
        BETA: lp.objective[BETA] * scale,
        ALPHA: lp.objective[ALPHA] * scale,
        BIGB: -sol.value * scale,
    }
    target = {}
    for col, v in target_full.items():
        if v:
            if v.denominator != 1:
                raise CertificateError("target failed to clear to integers")
            target[col] = int(v)

    cert = Certificate(
        n=u.n,
        k=u.k,
        d=u.d,
        terms={
            tid: sorted(token_for_index(u.n, v) for v in u.indices_of(m))
            for m, tid in term_ids.items()
        },
        rows=rows_json,
        target=target,
        meta={
            "direction": [str(ca), str(cb)],
            "value": str(value),
            "family-size": len(fam),
        },
    )

    if not check_sum(cert)[0]:
        raise CertificateError("extracted rows do not sum to the target")
    report = verify(u, cert, max_depth=max_depth)
    if report.overall != "VALID":
        raise CertificateError(
            f"emitted certificate failed re-verification: {report.overall}"
        )
    return ProvedBound((ca, cb), value, cert)
