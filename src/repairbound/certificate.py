"""Integer proof certificates: strict JSON codec, exact column-sum
check, per-row semantic verification, and LaTeX export.

A certificate asserts one linear storage-bandwidth bound as a short
table: a list of entropy terms, integer coefficient rows, and a target
row.  Soundness rests on two independent checks.  First, the rows must
sum column by column to the target, exactly.  Second, every row must
itself be a valid information inequality; the verifier searches the
Shannon instances over the row's own term classes for a nonnegative
rational combination, with an exact LP that grows its rows by
separation, never trusting the prover's working.

This module alone reads the certificate format; load_terms reads the
term table of a bare term file or a certificate, for the prover's seeds.

A row that is a positive multiple of one row of the first rung's pool
plus multiples of the pinned capacity rows, or that has no negative
coefficient, is certified by a direct match, with no pool and no LP.
Every other row escalates through a ladder: pairwise submodularity and
single-variable-growth instances over the row's classes, then families
grown by union/intersection closure rounds.  Each grown family is tried with
three pair rules in turn: the pairs inside the previous family (those
its closure round just scanned), the pairs touching it, then every
pair.  Every rung makes the same active-set search.  A closure round
runs only after every earlier rung has failed.  A row that exhausts the
ladder is reported unverified, never invalid; only a failed sum check
or a malformed target makes a certificate invalid.
"""

from __future__ import annotations

import json
import logging
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources

from .instance import (
    ALPHA,
    BETA,
    BIGB,
    LinExpr,
    instance_row,
    instances,
    pool_columns,
    storage_and_bandwidth_caps,
)
from .ratlp import IncrementalDualSolver, LPRow
from .universe import Universe, closure_round, index_for_token

log = logging.getLogger("repairbound.certificate")

RESERVED_COLUMNS = (ALPHA, BETA, BIGB)

_TERM_ID = re.compile(r"^T[1-9][0-9]*$")

# verification ladder defaults: depth counts family generations, the
# family size cap aborts a closure round that explodes
DEFAULT_MAX_DEPTH = 2
FAMILY_CAP = 5000


class CertificateError(ValueError):
    """Raised for malformed certificate files or inconsistent content."""


@dataclass
class Certificate:
    """Parsed certificate: problem size, terms, coefficient rows, target.

    Insertion order of terms, rows, and coefficient keys is preserved,
    so serialize(parse(data)) == data for data in serialize's own layout
    (the shipped files and every file solve writes).  Other valid data,
    compact or with raw UTF-8 in meta, parses to the same certificate
    and is rewritten once in that layout, which is then a fixed point.
    """

    n: int
    k: int
    d: int
    terms: dict  # term id -> tuple of variable tokens
    rows: list  # list of {column key: int}
    target: dict  # {column key: int}
    meta: dict = field(default_factory=dict)

    @property
    def problem(self) -> tuple:
        return (self.n, self.k, self.d)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CertificateError(msg)


def _as_int(value, where: str) -> int:
    _require(
        isinstance(value, int) and not isinstance(value, bool),
        f"{where}: expected an integer, got {value!r}",
    )
    return value


def _parse_coeffs(obj, where: str, term_ids) -> dict:
    _require(isinstance(obj, dict), f"{where}: expected an object")
    _require(set(obj) == {"coeffs"}, f"{where}: expected exactly one key 'coeffs'")
    coeffs = obj["coeffs"]
    _require(isinstance(coeffs, dict), f"{where}.coeffs: expected an object")
    out = {}
    for key, value in coeffs.items():
        if key not in RESERVED_COLUMNS and key not in term_ids:
            raise CertificateError(f"{where}.coeffs: undeclared column {key!r}")
        v = _as_int(value, f"{where}.coeffs[{key!r}]")
        _require(v != 0, f"{where}.coeffs[{key!r}]: zero coefficients must be omitted")
        out[key] = v
    return out


def _decode(data):
    """JSON of bytes or str; every decoder failure is a CertificateError."""
    try:
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return json.loads(data)
    except UnicodeDecodeError as e:
        raise CertificateError(f"not valid UTF-8: {e}") from e
    except json.JSONDecodeError as e:
        raise CertificateError(
            f"JSON syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e
    except (RecursionError, ValueError) as e:
        raise CertificateError(f"cannot decode JSON: {e}") from e


def _parse_terms(entries, n: int) -> dict:
    """The term table {id: tuple of variable tokens} of a "terms" array,
    each token checked against n nodes."""
    _require(isinstance(entries, list), "terms: expected an array")
    terms: dict = {}
    for pos, entry in enumerate(entries):
        where = f"terms[{pos}]"
        _require(isinstance(entry, dict), f"{where}: expected an object")
        _require(set(entry) == {"id", "vars"}, f"{where}: expected exactly keys id, vars")
        tid = entry["id"]
        _require(isinstance(tid, str) and _TERM_ID.match(tid), f"{where}: bad term id {tid!r}")
        _require(tid not in terms, f"{where}: duplicate term id {tid!r}")
        toks = entry["vars"]
        _require(isinstance(toks, list) and toks, f"{where}.vars: expected a nonempty array")
        seen = set()
        for tok in toks:
            _require(isinstance(tok, str), f"{where}.vars: expected strings")
            try:
                index_for_token(n, tok)
            except ValueError as e:
                raise CertificateError(f"{where}.vars: {e}") from e
            _require(tok not in seen, f"{where}.vars: duplicate token {tok!r}")
            seen.add(tok)
        terms[tid] = tuple(toks)
    return terms


def parse(data) -> Certificate:
    """Strict parse of certificate JSON (bytes or str).

    Rejects unknown fields, undeclared columns, non-integer or zero
    coefficients, duplicate or malformed term ids, and invalid variable
    tokens.  Syntax errors report line and column.
    """
    obj = _decode(data)
    _require(isinstance(obj, dict), "top level: expected an object")
    extra = set(obj) - {"problem", "terms", "rows", "target", "meta"}
    _require(not extra, f"top level: unknown fields {sorted(extra)}")
    for key in ("problem", "terms", "rows", "target"):
        _require(key in obj, f"top level: missing field {key!r}")

    prob = obj["problem"]
    _require(isinstance(prob, dict), "problem: expected an object")
    _require(set(prob) == {"n", "k", "d"}, "problem: expected exactly keys n, k, d")
    n = _as_int(prob["n"], "problem.n")
    k = _as_int(prob["k"], "problem.k")
    d = _as_int(prob["d"], "problem.d")
    _require(n >= 1 and k >= 1 and d >= 1, "problem: n, k, d must be positive")

    terms = _parse_terms(obj["terms"], n)
    _require(isinstance(obj["rows"], list), "rows: expected an array")
    rows = [_parse_coeffs(r, f"rows[{i}]", terms) for i, r in enumerate(obj["rows"])]
    target = _parse_coeffs(obj["target"], "target", terms)

    meta = obj.get("meta", {})
    _require(isinstance(meta, dict), "meta: expected an object")
    return Certificate(n, k, d, terms, rows, target, meta)


def serialize(cert: Certificate) -> bytes:
    obj = {
        "problem": {"n": cert.n, "k": cert.k, "d": cert.d},
        "terms": [{"id": tid, "vars": list(toks)} for tid, toks in cert.terms.items()],
        "rows": [{"coeffs": dict(row)} for row in cert.rows],
        "target": {"coeffs": dict(cert.target)},
        "meta": cert.meta,
    }
    return (json.dumps(obj, indent=1) + "\n").encode("utf-8")


def load(path) -> Certificate:
    with open(path, "rb") as f:
        return parse(f.read())


def load_terms(path, n: int) -> list:
    """Token tuples of the terms of a bare term file or a certificate,
    checked for n nodes as parse checks a certificate's terms."""
    with open(path, "rb") as f:
        obj = _decode(f.read())
    _require(isinstance(obj, dict) and "terms" in obj, "top level: expected a 'terms' array")
    return list(_parse_terms(obj["terms"], n).values())


def load_bundled(name: str) -> Certificate:
    """Load one of the certificates shipped inside the package."""
    blob = resources.files("repairbound").joinpath("data", f"{name}.cert.json")
    return parse(blob.read_bytes())


# -- exact sum check ---------------------------------------------------


def column_sums(rows) -> dict:
    """Exact column sums of coefficient rows, zero sums dropped."""
    sums: dict = {}
    for row in rows:
        for key, v in row.items():
            sums[key] = sums.get(key, 0) + v
    return {key: v for key, v in sums.items() if v}


def check_sum(cert: Certificate):
    """Column sums of the rows against the target, exactly.

    Returns (sum_ok, meaning) where meaning is the gcd-reduced (a, b, c)
    of a target of the shape a*alpha + b*beta - c*B with a, b, c >= 0
    and not all zero, or None when the target has any other shape.
    """
    sum_ok = column_sums(cert.rows) == cert.target

    meaning = None
    if set(cert.target) <= set(RESERVED_COLUMNS):
        a = cert.target.get(ALPHA, 0)
        b = cert.target.get(BETA, 0)
        c = -cert.target.get(BIGB, 0)
        if a >= 0 and b >= 0 and c >= 0 and (a or b or c):
            g = math.gcd(a, math.gcd(b, c))
            meaning = (a // g, b // g, c // g)
    return sum_ok, meaning


def format_plane(a, b, c) -> str:
    """a*alpha + b*beta >= c as printed, e.g. ``3α+1β ≥ 1``."""
    left = "+".join(s for s in (a and f"{a}α", b and f"{b}β") if s) or "0"
    return f"{left} ≥ {c}"


def format_meaning(meaning) -> str:
    return format_plane(*meaning) + "B"


# -- per-row semantic verification -------------------------------------


@dataclass
class RowCheck:
    index: int
    status: str  # "valid" | "unverified"
    depth: int
    witness: tuple = ()  # ((multiplier, pool row LinExpr), ...) when valid
    detail: str = ""


def _term_column(u: Universe, toks):
    m = u.closure_mask(u.mask_of_tokens(toks))
    return BIGB if m == u.full_mask else u.canon_mask(m)


def _row_expr(row: dict, term_cols: dict) -> LinExpr:
    coeffs: dict = {}
    for key, v in row.items():
        if key == ALPHA or key == BETA or key == BIGB:
            col = key
        else:
            col = term_cols[key]
        coeffs[col] = coeffs.get(col, 0) + v
    return LinExpr({c: v for c, v in coeffs.items() if v}, "certificate-row")


def _pinned_caps(u: Universe) -> list:
    """Each capacity row, then its negation: together they pin the cap
    to equality.  Pinning is sound for tabulated bounds, whose targets
    carry nonnegative alpha and beta weight, so slack in either cap only
    loosens the bound; rows are free to spend cap slack against entropy
    terms (some shipped rows carry negative cap coefficients)."""
    rows = []
    for cap in storage_and_bandwidth_caps(u):
        neg = LinExpr({c: -v for c, v in cap.coeffs.items()}, "negated-" + cap.kind)
        rows += (cap, neg)
    return rows


def _one_pool_row(u: Universe, expr: LinExpr):
    """Decide, without an LP, a row that the first rung would certify with
    at most one row of its pool plus pinned caps: () for a row with no
    negative coefficient (x >= 0 alone bounds it), a witness of
    (multiplier, row) pairs, or None.

    The row's alpha and beta coefficients move onto the pinned caps, a
    cap for a positive coefficient and its negation for a negative one.
    A rest with a negative coefficient must then be, divided by its gcd,
    a spanning row B - H(A) or one instance over a pair of its positive
    classes (for the monotonicity shape H(A) - H(B), the pair (A, B)).
    The witness is the instance row, if any, then the caps.  Every entry
    is a row of the first rung's pool or a pinned cap, and the witness is
    recombined before it is returned: it must leave the row a slack with
    no negative coefficient, the first rung's own acceptance condition.
    So that rung's LP would certify a matched row too; the match only
    skips work, and a row it declines goes on through the ladder."""
    if all(v > 0 for v in expr.coeffs.values()):
        return ()
    rest = dict(expr.coeffs)
    caps = _pinned_caps(u)
    pinned = []
    for col, cap, neg in zip((ALPHA, BETA), caps[::2], caps[1::2]):
        a = rest.get(col, 0)
        if a:
            for c, v in cap.coeffs.items():
                rest[c] = rest.get(c, 0) - a * v
            pinned.append((Fraction(a), cap) if a > 0 else (Fraction(-a), neg))
    rest = {c: v for c, v in rest.items() if v}
    witness = []
    if any(v < 0 for v in rest.values()):
        g = math.gcd(*rest.values())
        want = {c: v // g for c, v in rest.items()}
        classes = frozenset(c for c in want if c != BIGB)
        pos = {c for c, v in want.items() if v > 0}
        if BIGB in pos:
            # only a spanning row has a positive B
            candidates = [instance_row((BIGB, 0, c, 0), "spanning-value") for c in classes]
        elif len(pos) <= 2:
            # an instance row's positive part is {ka, kb}; a monotonicity
            # row H(ka) - H(ku) is drawn from the pair (ka, ku)
            anchors = classes if len(want) == 2 and len(pos) == 1 else pos
            candidates = map(instance_row, instances(u, classes, anchors, 2))
        else:
            return None
        match = next((row for row in candidates if row.coeffs == want), None)
        if match is None:
            return None
        witness.append((Fraction(g), match))
    witness += pinned
    slack = dict(expr.coeffs)
    for lam, row in witness:
        for c, v in row.coeffs.items():
            slack[c] = slack.get(c, 0) - lam * v
    if any(v < 0 for v in slack.values()):
        return None
    return tuple(witness)


def _try_pool_active(u: Universe, fam_masks, anchors, need, bases, expr: LinExpr):
    """Minimize the row over the cone cut out by the rung's pool and the
    pinned caps; return a witness list when the minimum is zero, else
    None.  This is every rung's search: solve a boxed relaxation over a
    small working row set, separate the instances that its optimum
    violates, and repeat with a warm basis.  Separation scans the rung's
    whole instance space, so the answer is that of an LP over the whole
    pool, which is never built.

    The box is the one row B <= 1: the start set's spanning rows
    B - H(A) >= 0 bound every class through B, and the pinned caps tie
    alpha and beta to the classes of W1 and S1->2, which every rung's
    family holds, so the relaxation is bounded.  At a boxed optimum of
    zero the box multiplier vanishes (it is the optimum itself), so the
    boxed duals restricted to pool rows and caps already form the cone
    witness.
    """
    descriptors = list(dict.fromkeys(instances(u, fam_masks, anchors, need, bases)))

    # start from one spanning row per class and the pinned caps
    fam = sorted(fam_masks, reverse=True)
    start = [instance_row((BIGB, 0, m, 0), "spanning-value") for m in fam]
    start += _pinned_caps(u)

    # Monotonicity instances are cheap (two nonzeros) and prune most of the
    # degenerate corners the boxed relaxation would otherwise wander through,
    # so start with all of them in the working set.
    start += [instance_row(desc) for desc in descriptors if desc[1] == 0]
    descriptors = [desc for desc in descriptors if desc[1]]

    active = {}  # the working rows by their coefficients, in LP row order
    for row in start:
        active.setdefault(frozenset(row.coeffs.items()), row)

    lp_rows = [LPRow({BIGB: -1}, 1)] + [LPRow(r.coeffs) for r in active.values()]
    solver = IncrementalDualSolver(pool_columns(fam_masks), dict(expr.coeffs), lp_rows)

    batch = 100
    for _ in range(200):
        sol = solver.solve()
        if sol.value_num == 0:
            rows = list(active.values())
            return tuple(
                (Fraction(lam, sol.den), rows[i - 1]) for i, lam in sol.dual_num.items() if i
            )

        # the primal over its denominator: only signs and order are read
        val = dict(sol.primal_num)
        val[0] = 0

        violated = []
        for idx, (ka, kb, ku, ki) in enumerate(descriptors):
            v = val[ka] + val[kb] - val[ku] - val[ki]
            if v < 0:
                violated.append((v, idx))
        if not violated:
            return None
        violated.sort()
        picks = violated[:batch]
        rest = violated[batch:]
        stride = max(1, len(rest) // batch)
        picks += rest[::stride][:batch]
        fresh = []
        for _, idx in picks:
            row = instance_row(descriptors[idx])
            key = frozenset(row.coeffs.items())
            if key not in active:
                active[key] = row
                fresh.append(LPRow(row.coeffs))
        if not fresh:
            raise CertificateError("separation produced only duplicate rows")
        solver.add_rows(fresh)
    raise CertificateError("active-set row search failed to converge")


def _rungs(u: Universe, base, max_depth: int):
    """Yield the ladder over a row's base classes, one rung at a time:
    (family, elemental bases, pair anchors, need, reported depth), read as
    in ``instances``.  Every rung takes the elementals grown from the
    empty set and from each base class, so depth 1 is one rung: every
    pair of the base family and those elementals, a pool that holds the
    pool of the same pairs alone.  Each depth g >= 2 has
    three rungs over its grown family, whose pair pools nest: the pairs
    with both classes in the family of depth g-1 (need 2), the pairs
    touching it (need 1), then every pair (need 0).  The closure round
    that grows the family of depth g runs only when the first rung of
    that depth is asked for, so only after every earlier rung has failed.
    A round that hits the family cap yields None for the family and ends
    the ladder short of max_depth.  A round that adds no class ends it,
    as every deeper rung would repeat the unrestricted one that failed."""
    bases = (0, *sorted(base, reverse=True))
    fam = frozenset(base)
    yield fam, bases, (), 0, 1
    for depth in range(2, max_depth + 1):
        grown, done = closure_round(u, fam, FAMILY_CAP)
        if not done:
            yield None, bases, (), 0, depth - 1
            return
        if len(grown) == len(fam):
            return
        prev, fam = fam, frozenset(grown)
        yield fam, bases, prev, 2, depth
        yield fam, bases, prev, 1, depth
        yield fam, bases, (), 0, depth


def check_row(
    u: Universe, cert: Certificate, index: int, max_depth: int = DEFAULT_MAX_DEPTH
) -> RowCheck:
    """Verify one coefficient row as an information inequality.

    The search family starts from the row's own term classes plus the
    classes of the two capacity rows (one node, one message), then grows
    by closure rounds up to max_depth generations; each round runs only
    once every earlier rung has failed.  Valid rows report the
    generation that certified them and a rational witness; rows that
    exhaust the ladder come back unverified (never invalid), at depth
    max_depth also when a round that adds no class ends it early.  A row
    that _one_pool_row matches skips the ladder, at depth 1.  Each rung
    tried logs one DEBUG line of its sizes and outcome; the match logs
    one line naming each witness entry's kind, in witness order.
    """
    if not 0 <= index < len(cert.rows):
        raise CertificateError(f"row index {index} out of range")
    if max_depth < 1:
        raise CertificateError("max_depth must be at least 1")

    row = cert.rows[index]
    term_cols = {
        key: _term_column(u, cert.terms[key]) for key in row if key not in RESERVED_COLUMNS
    }
    expr = _row_expr(row, term_cols)
    witness = _one_pool_row(u, expr)
    if witness is not None:
        if log.isEnabledFor(logging.DEBUG):
            kinds = [w.kind for _, w in witness]
            if not kinds:
                line = "no negative coefficient"
            elif len(kinds) == 1:
                line = f"one pool row ({kinds[0]})"
            elif kinds[0].endswith("-cap"):
                line = f"pinned caps ({', '.join(kinds)})"
            else:
                line = f"one pool row ({kinds[0]}) and pinned caps ({', '.join(kinds[1:])})"
            log.debug("row %d, depth 1: %s", index, line)
        return RowCheck(index, "valid", 1, witness)
    cols = list(term_cols.values())
    for cap in storage_and_bandwidth_caps(u):
        cols += cap.coeffs
    base = {col for col in cols if col not in RESERVED_COLUMNS}
    for fam_masks, bases, anchors, need, depth in _rungs(u, base, max_depth):
        if fam_masks is None:
            return RowCheck(index, "unverified", depth, detail="family size cap exceeded")
        witness = _try_pool_active(u, fam_masks, anchors, need, bases, expr)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "row %d, depth %d: %d classes, %s, %d elemental bases: %s",
                index,
                depth,
                len(fam_masks),
                ("unanchored", "anchored", "within")[need],
                len(bases),
                "no witness" if witness is None else "valid",
            )
        if witness is not None:
            return RowCheck(index, "valid", depth, witness)
    return RowCheck(index, "unverified", max_depth, detail="pool exhausted")


# -- whole-certificate verification ------------------------------------


@dataclass
class VerifyReport:
    overall: str  # "VALID" | "INVALID" | "UNVERIFIED"
    sum_ok: bool
    meaning: tuple | None
    row_status: list
    diagnostics: list

    @property
    def bound(self) -> str | None:
        return format_meaning(self.meaning) if self.meaning else None


def verify(u: Universe, cert: Certificate, max_depth: int = DEFAULT_MAX_DEPTH) -> VerifyReport:
    """Full certificate check: problem match, exact column sums, then
    semantic verification of every row.

    VALID requires everything to pass.  A sum or target-shape failure is
    INVALID and skips row checks.  Rows that cannot be certified within
    the depth budget leave the certificate UNVERIFIED.
    """
    diagnostics: list = []
    if (u.n, u.k, u.d) != cert.problem:
        diagnostics.append(
            f"problem mismatch: certificate is for {cert.problem}, universe is "
            f"({u.n}, {u.k}, {u.d})"
        )
        return VerifyReport("INVALID", False, None, [], diagnostics)

    sum_ok, meaning = check_sum(cert)
    if meaning is None:
        diagnostics.append(
            "target is not of the form a*alpha + b*beta - c*B with a, b, c >= 0"
        )
    if not sum_ok:
        sums = column_sums(cert.rows)
        bad = sorted(
            key
            for key in set(sums) | set(cert.target)
            if sums.get(key, 0) != cert.target.get(key, 0)
        )
        diagnostics.append(f"column sums do not match the target in {bad}")
    if not sum_ok or meaning is None:
        return VerifyReport("INVALID", sum_ok, meaning, [], diagnostics)

    row_status = [check_row(u, cert, i, max_depth=max_depth) for i in range(len(cert.rows))]
    bad_rows = [rc.index for rc in row_status if rc.status != "valid"]
    if bad_rows:
        diagnostics.append(f"rows not certified within depth {max_depth}: {bad_rows}")
        return VerifyReport("UNVERIFIED", sum_ok, meaning, row_status, diagnostics)
    return VerifyReport("VALID", sum_ok, meaning, row_status, diagnostics)


# -- LaTeX export ------------------------------------------------------


def _token_tex(tok: str) -> str:
    if tok.startswith("W"):
        return f"W_{{{tok[1:]}}}"
    src, dst = tok[1:].split("->")
    return f"S_{{{src}\\rightarrow {dst}}}"


def _column_tex(key: str) -> str:
    if key == ALPHA:
        return "\\alpha"
    if key == BETA:
        return "\\beta"
    if key == BIGB:
        return "B"
    return f"T_{{{key[1:]}}}"


def _display_columns(cert: Certificate) -> list:
    used = set(cert.target)
    for row in cert.rows:
        used.update(row)
    cols = [c for c in (BETA, ALPHA) if c in used]
    cols += sorted(cert.terms, key=lambda t: int(t[1:]))
    if BIGB in used:
        cols.append(BIGB)
    return cols


def to_latex(cert: Certificate) -> str:
    """Deterministic LaTeX rendering: a term table mapping every column
    label to its entropy expression, and the coefficient matrix with the
    target as the final row."""
    cols = _display_columns(cert)

    lines = ["\\begin{tabular}{|c|c|}", "\\hline", "label & meaning \\\\", "\\hline"]
    for key in cols:
        label = f"${_column_tex(key)}$"
        if key in RESERVED_COLUMNS:
            meaning = label
        else:
            inner = ",".join(_token_tex(t) for t in sorted(cert.terms[key]))
            meaning = f"$H({inner})$"
        lines.append(f"{label} & {meaning} \\\\")
    lines += ["\\hline", "\\end{tabular}", ""]

    lines += [f"\\begin{{tabular}}{{|*{{{len(cols)}}}{{c}}|}}", "\\hline"]
    lines.append(" & ".join(f"${_column_tex(c)}$" for c in cols) + " \\\\")
    lines.append("\\hline")
    for row in cert.rows:
        cells = [str(row[c]) if c in row else "" for c in cols]
        lines.append(" & ".join(cells) + " \\\\")
    lines.append("\\hline\\hline")
    cells = [str(cert.target[c]) if c in cert.target else "" for c in cols]
    lines.append(" & ".join(cells) + " \\\\")
    lines += ["\\hline", "\\end{tabular}", ""]
    return "\n".join(lines)
