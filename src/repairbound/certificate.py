"""Integer proof certificates: strict JSON codec, exact column-sum
check, per-row semantic verification, and LaTeX export.

A certificate asserts one linear storage-bandwidth bound as a short
table: a list of entropy terms, integer coefficient rows, and a target
row.  Soundness rests on two independent checks.  First, the rows must
sum column by column to the target, exactly.  Second, every row must
itself be a valid information inequality; the verifier rebuilds a
constraint pool from the row's own term sets and searches for a
nonnegative rational combination with an exact LP, never trusting the
prover's working.

Row verification escalates through a ladder: pairwise submodularity
over the row's classes, then single-variable-growth instances, then
families grown by union/intersection closure rounds (each round tried
first with pairs anchored on the previous family, then unrestricted).
A row that exhausts the ladder is reported unverified, never invalid;
only a failed sum check or a malformed target makes a certificate
invalid.
"""

from __future__ import annotations

import json
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
    column_key,
    enumerate_rows,
    instance_row,
    instances,
    storage_and_bandwidth_caps,
)
from .ratlp import IncrementalDualSolver, LPProblem, LPRow, solve
from .universe import EntropyClass, Universe, closure_round, index_for_token

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

    Insertion order of terms, rows, and coefficient keys is preserved
    so that serialize(parse(data)) == data for any valid input.
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


def parse(data) -> Certificate:
    """Strict parse of certificate JSON (bytes or str).

    Rejects unknown fields, undeclared columns, non-integer or zero
    coefficients, duplicate or malformed term ids, and invalid variable
    tokens.  Syntax errors report line and column.
    """
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise CertificateError(f"not valid UTF-8: {e}") from e
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as e:
        raise CertificateError(
            f"JSON syntax error at line {e.lineno}, column {e.colno}: {e.msg}"
        ) from e

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

    _require(isinstance(obj["terms"], list), "terms: expected an array")
    terms: dict = {}
    for pos, entry in enumerate(obj["terms"]):
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
    return BIGB if m == u.full_mask else u.canon_class(m)


def term_columns(u: Universe, cert: Certificate) -> dict:
    """Map each term id to its canonical closed class, or to the total
    information column when the term's closure spans the universe."""
    return {tid: _term_column(u, toks) for tid, toks in cert.terms.items()}


def _row_expr(row: dict, term_cols: dict) -> LinExpr:
    coeffs: dict = {}
    for key, v in row.items():
        if key == ALPHA or key == BETA or key == BIGB:
            col = key
        else:
            col = term_cols[key]
        coeffs[col] = coeffs.get(col, 0) + v
    return LinExpr({c: Fraction(v) for c, v in coeffs.items() if v}, "certificate-row")


def _columns(u: Universe, fam_masks) -> list:
    return [ALPHA, BETA, BIGB] + sorted(
        (EntropyClass(u.n, u.k, m) for m in fam_masks), key=column_key
    )


def _lp_row(row: LinExpr) -> LPRow:
    # The two capacity rows are pinned to equality, every other row is
    # >= 0.  Pinning is sound for tabulated bounds, whose targets carry
    # nonnegative alpha and beta weight, so slack in either cap only
    # loosens the bound; rows are free to spend cap slack against entropy
    # terms (some shipped rows carry negative cap coefficients).
    rel = "=" if row.kind.endswith("-cap") else ">="
    return LPRow(dict(row.coeffs), Fraction(0), rel)


def _try_pool(u: Universe, fam_masks, anchors, bases, expr: LinExpr):
    """Minimize the row over the cone cut out by the rung's pool and the
    pinned caps.  Returns a witness list when the minimum is zero, else None."""
    all_rows = enumerate_rows(u, fam_masks, anchors, bases) + storage_and_bandwidth_caps(u)
    columns = _columns(u, fam_masks)
    lp = LPProblem(
        columns=columns,
        objective=dict(expr.coeffs),
        rows=[_lp_row(r) for r in all_rows],
        nonneg=set(columns),
    )
    sol = solve(lp, orientation="dual", known_feasible=True)
    if sol.status == "unbounded":
        return None
    if sol.status != "optimal" or sol.value != 0:
        raise CertificateError(f"row LP reported {sol.status}: solver invariant broken")
    return tuple(
        (lam, all_rows[i]) for i, lam in enumerate(sol.duals) if lam != 0
    )


def _try_pool_active(u: Universe, fam_masks, anchors, bases, expr: LinExpr):
    """Active-set variant of _try_pool for large families: solve a boxed
    relaxation over a small working row set, separate violated instances
    at the optimum, repeat with a warm basis.  Exactly the same answer
    as enumerating the whole pool, since separation scans the identical
    instance space.

    At a boxed optimum of zero the box multipliers vanish (their sum is
    the optimum itself), so the boxed duals restricted to pool rows and
    caps already form the cone witness.
    """
    descriptors = list(dict.fromkeys(instances(u, fam_masks, anchors, bases)))

    # start from the pool over the elemental bases, one spanning row per
    # class and the pinned caps
    active = enumerate_rows(u, [b for b in bases if b], bases=bases)
    cols: dict = {}
    for m in sorted(fam_masks, reverse=True):
        active.append(instance_row(u, (BIGB, 0, m, 0), cols, "spanning-value"))
    active += storage_and_bandwidth_caps(u)
    sigs = {r.signature() for r in active}

    # Monotonicity instances are cheap (two nonzeros) and prune most of the
    # degenerate corners the boxed relaxation would otherwise wander through,
    # so start with all of them in the working set.
    submod_descriptors = []
    for desc in descriptors:
        if desc[1] == 0:
            row = instance_row(u, desc, cols)
            sig = row.signature()
            if sig not in sigs:
                sigs.add(sig)
                active.append(row)
        else:
            submod_descriptors.append(desc)
    descriptors = submod_descriptors

    columns = _columns(u, fam_masks)
    box = [LPRow({c: Fraction(-1)}, Fraction(1), ">=") for c in columns]
    n_box = len(box)
    solver = IncrementalDualSolver(
        columns, dict(expr.coeffs), box + [_lp_row(r) for r in active], set(columns)
    )

    batch = 200
    for _ in range(200):
        sol = solver.solve()
        if sol.value == 0:
            return tuple(
                (lam, active[i - n_box])
                for i, lam in enumerate(sol.duals)
                if lam != 0 and i >= n_box
            )

        den = math.lcm(*(v.denominator for v in sol.primal.values()))
        val = {0: 0, BIGB: int(sol.primal[BIGB] * den)}
        for col, v in sol.primal.items():
            if isinstance(col, EntropyClass):
                val[col.mask] = int(v * den)

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
        if rest:
            stride = max(1, len(rest) // batch)
            picks += rest[::stride][:batch]
        fresh = []
        for _, idx in picks:
            row = instance_row(u, descriptors[idx], cols)
            sig = row.signature()
            if sig not in sigs:
                sigs.add(sig)
                active.append(row)
                fresh.append(LPRow(dict(row.coeffs), Fraction(0), ">="))
        if not fresh:
            raise CertificateError("separation produced only duplicate rows")
        solver.add_rows(fresh)
    raise CertificateError("active-set row search failed to converge")


def _rungs(u: Universe, base, max_depth: int, family_cap: int):
    """The ladder over a row's base classes: (family, elemental bases,
    pair anchors, reported depth) per rung, and whether a closure round
    hit the family cap.  Every rung but the first takes the elementals
    grown from the empty set and from each base class."""
    bases = (0, *sorted(base, reverse=True))
    rungs = [(frozenset(base), (), None, 1), (frozenset(base), bases, None, 1)]
    fam = set(base)
    for gen in range(1, max_depth):
        prev = frozenset(fam)
        fam, done = closure_round(u, fam, family_cap)
        if not done:
            return rungs, True
        rungs.append((frozenset(fam), bases, prev, gen + 1))
        rungs.append((frozenset(fam), bases, None, gen + 1))
    return rungs, False


def check_row(
    u: Universe,
    cert: Certificate,
    index: int,
    max_depth: int = DEFAULT_MAX_DEPTH,
    family_cap: int = FAMILY_CAP,
) -> RowCheck:
    """Verify one coefficient row as an information inequality.

    The search family starts from the row's own term classes plus the
    classes of the two capacity rows (one node, one message), then grows
    by closure rounds up to max_depth generations.  Valid rows report the
    generation that certified them and a rational witness; rows that
    exhaust the ladder come back unverified (never invalid).
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
    cols = list(term_cols.values())
    for cap in storage_and_bandwidth_caps(u):
        cols += cap.coeffs
    base = {col.mask for col in cols if isinstance(col, EntropyClass)}
    rungs, capped = _rungs(u, base, max_depth, family_cap)

    depth_seen = 1
    for fam_masks, bases, anchors, depth in rungs:
        depth_seen = depth
        search = _try_pool if len(fam_masks) <= 24 else _try_pool_active
        witness = search(u, fam_masks, anchors, bases, expr)
        if witness is not None:
            return RowCheck(index, "valid", depth, witness)
    detail = "family size cap exceeded" if capped else "pool exhausted"
    return RowCheck(index, "unverified", depth_seen, detail=detail)


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


def verify(
    u: Universe,
    cert: Certificate,
    max_depth: int = DEFAULT_MAX_DEPTH,
    family_cap: int = FAMILY_CAP,
) -> VerifyReport:
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

    row_status = [
        check_row(u, cert, i, max_depth=max_depth, family_cap=family_cap)
        for i in range(len(cert.rows))
    ]
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
