"""Outer-bound discovery: subset families, the family-restricted LP,
and integer certificate extraction.

A bound in direction (c_a, c_b) is proved by minimizing c_a*alpha +
c_b*beta over the symmetry-reduced constraint pool of a chosen class
family, with the spanning value normalized to one.  The optimal duals
are cleared to integers and re-emitted as certificate rows whose column
sums reproduce the target exactly; positive reduced costs are absorbed
by one final nonnegativity row so the sum check never depends on which
columns the optimum happened to leave at zero.  Every emitted
certificate is re-verified before it is returned.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .certificate import Certificate, CertificateError, check_sum, verify
from .instance import (
    ALPHA,
    BETA,
    BIGB,
    column_key,
    enumerate_rows,
    storage_and_bandwidth_caps,
)
from .ratlp import LPError, LPProblem, LPRow, solve
from .universe import EntropyClass, Universe, closure_round, index_for_token

DEFAULT_FAMILY_CAP = 20000


class FamilyError(ValueError):
    """Family construction failed or exceeded its size cap."""


@dataclass(frozen=True)
class SubsetFamily:
    """A set of canonical entropy classes.

    Spanning sets are never stored; they are represented by the
    reserved spanning column wherever a constraint touches one.
    """

    classes: frozenset

    def sorted_classes(self) -> list:
        return sorted(self.classes, key=column_key)

    def __len__(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class ProvedBound:
    direction: tuple
    value: Fraction
    certificate: Certificate


def load_seed_terms(path) -> list[list[str]]:
    """Read variable-token lists from a JSON term file.

    Accepts any object with a "terms" array of {"id", "vars"} entries,
    which covers both bare seed files and full certificate files.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise FamilyError(f"cannot read seed terms from {path}: {e}") from e
    if not isinstance(data, dict) or "terms" not in data:
        raise FamilyError(f"{path}: expected an object with a 'terms' array")
    terms = data["terms"]
    if not isinstance(terms, list):
        raise FamilyError(f"{path}: 'terms' must be an array")
    out = []
    for i, entry in enumerate(terms):
        if (
            not isinstance(entry, dict)
            or not isinstance(entry.get("vars"), list)
            or not all(isinstance(t, str) for t in entry["vars"])
        ):
            raise FamilyError(f"{path}: terms[{i}] needs a 'vars' array of tokens")
        out.append(list(entry["vars"]))
    return out


def default_family(
    u: Universe, seeds=(), depth: int = 0, cap: int = DEFAULT_FAMILY_CAP
) -> SubsetFamily:
    """Deterministic family heuristic.

    Base classes: every singleton variable; every proper node-only
    subset; every such subset augmented by one repair message into a
    missing node; the seeds.  Then `depth` rounds of pairwise
    union/intersection closure over (representative, orbit member)
    pairs, so the family stays a union of full symmetry orbits rather
    than depending on which member is canonical.
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
                    add(mask | u.var_bit(u.n + i * (u.n - 1) + (j if j < i else j - 1)))

    for vars_ in seeds:
        add(
            u.mask_of(
                index_for_token(u.n, t) if isinstance(t, str) else t for t in vars_
            )
        )

    if len(masks) > cap:
        raise FamilyError(f"family size cap exceeded by {len(masks)} base classes")

    for round_no in range(1, depth + 1):
        masks, completed = closure_round(u, masks, cap)
        if not completed:
            raise FamilyError(f"family size cap exceeded in closure round {round_no}")

    return SubsetFamily(frozenset(EntropyClass(u.n, u.k, m) for m in masks))


def _check_direction(direction) -> tuple:
    ca, cb = (Fraction(x) for x in direction)
    if ca < 0 or cb < 0 or (ca == 0 and cb == 0):
        raise ValueError("direction must be nonnegative and not both zero")
    return ca, cb


def build_lp(u: Universe, fam: SubsetFamily, direction) -> LPProblem:
    """The family-restricted bound LP with the spanning value fixed at
    one: minimize the direction over alpha, beta and the family's class
    entropies subject to every pooled constraint.  Each pool row becomes
    one LP row, in pool order, with its BIGB coefficient as the constant."""
    ca, cb = _check_direction(direction)
    if not fam.classes:
        raise FamilyError("empty family")
    lprows = []
    for e in storage_and_bandwidth_caps(u) + enumerate_rows(u, fam.sorted_classes()):
        coeffs = {c: v for c, v in e.coeffs.items() if c != BIGB}
        lprows.append(LPRow(coeffs, e.coeffs.get(BIGB, Fraction(0)), ">="))
    columns = [ALPHA, BETA] + fam.sorted_classes()
    return LPProblem(columns, {ALPHA: ca, BETA: cb}, lprows, set(columns))


def _display_order(coeffs: dict) -> list:
    head = [c for c in (BETA, ALPHA) if c in coeffs]
    mid = sorted((c for c in coeffs if isinstance(c, EntropyClass)), key=column_key)
    tail = [BIGB] if BIGB in coeffs else []
    return head + mid + tail


def prove(u: Universe, fam: SubsetFamily, direction, max_depth: int = 2) -> ProvedBound:
    """Solve the direction LP and extract a self-contained certificate.

    Rows with nonzero duals are scaled by the least common multiple of
    all dual and reduced-cost denominators, divided by the collective
    gcd, and written out pre-multiplied; reduced costs on columns the
    optimum left out of play become one trailing all-positive row.  The
    result is re-verified before return.
    """
    lp = build_lp(u, fam, direction)
    ca, cb = lp.objective[ALPHA], lp.objective[BETA]
    sol = solve(lp)
    if sol.status != "optimal":
        raise LPError(f"bound LP came back {sol.status}")
    value = sol.value

    reduced = dict(lp.objective)
    for lam, row in zip(sol.duals, lp.rows):
        if lam:
            for col, cv in row.coeffs.items():
                reduced[col] = reduced.get(col, Fraction(0)) - lam * cv
    slack = {col: rc for col, rc in reduced.items() if rc}

    lcm = math.lcm(*(q.denominator for q in (*sol.duals, *slack.values())))
    mults = [int(lam * lcm) for lam in sol.duals]
    smults = {col: int(rc * lcm) for col, rc in slack.items()}
    g = 0
    for m in (*mults, *smults.values()):
        g = math.gcd(g, m)
    g = g or 1

    out_rows = []
    for mult, row in zip(mults, lp.rows):
        if mult:
            coeffs = dict(row.coeffs)
            if row.const:
                coeffs[BIGB] = row.const
            out_rows.append({c: mult // g * int(v) for c, v in coeffs.items()})
    if smults:
        out_rows.append({c: s // g for c, s in smults.items()})

    term_ids: dict = {}
    rows_json = []
    for coeffs in out_rows:
        row_json = {}
        for col in _display_order(coeffs):
            if isinstance(col, EntropyClass) and col not in term_ids:
                term_ids[col] = f"T{len(term_ids) + 1}"
            key = term_ids[col] if isinstance(col, EntropyClass) else col
            row_json[key] = coeffs[col]
        rows_json.append(row_json)

    scale = Fraction(lcm, g)
    target_full = {BETA: cb * scale, ALPHA: ca * scale, BIGB: -value * scale}
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
        terms={tid: cls.tokens() for cls, tid in term_ids.items()},
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
