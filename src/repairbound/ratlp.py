"""Exact rational linear programming with certified dual multipliers.

Minimizes a sparse rational objective over rows of the form
``coeffs . x + const >= 0`` (or ``= 0``) with a declared set of
nonnegative columns.  Everything runs on fractions.Fraction; an optimal
answer is accepted only after an exact certificate check (primal
feasibility, dual feasibility, equal objective values), so a returned
"optimal" is a proof, not an estimate.

The solver is a two-phase revised simplex with a dense basis inverse.
Bland's rule (lowest eligible index enters, ratio ties broken by lowest
basic index) keeps runs deterministic and cycle-free.  Problems with far
more rows than columns are solved through their explicit dual, whose
simplex basis stays small; the mapping back is exact either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

ZERO = Fraction(0)


class LPError(ValueError):
    """Malformed problem or a failed internal certification."""


@dataclass
class LPRow:
    coeffs: dict
    const: Fraction = ZERO
    rel: str = ">="


@dataclass
class LPProblem:
    columns: list
    objective: dict
    rows: list
    nonneg: set = field(default_factory=set)


@dataclass
class LPSolution:
    status: str  # optimal | unbounded | infeasible
    value: Fraction | None
    primal: dict
    duals: list


def _validate(lp: LPProblem):
    colset = set(lp.columns)
    if len(colset) != len(lp.columns):
        raise LPError("duplicate column ids")
    for c in lp.objective:
        if c not in colset:
            raise LPError(f"objective references unknown column {c!r}")
    for c in lp.nonneg:
        if c not in colset:
            raise LPError(f"nonneg references unknown column {c!r}")
    for i, r in enumerate(lp.rows):
        if r.rel not in (">=", "="):
            raise LPError(f"row {i} has unknown relation {r.rel!r}")
        for c in r.coeffs:
            if c not in colset:
                raise LPError(f"row {i} references unknown column {c!r}")


class _Simplex:
    """Standard-form carrier: columns split/slacked/artificialized,
    right-hand sides normalized nonnegative."""

    def __init__(self, lp: LPProblem):
        self.lp = lp
        m = len(lp.rows)
        self.m = m
        self.svars = []  # (kind, payload, sign); kind: col | slack | art
        self.col_map = {}
        for col in lp.columns:
            if col in lp.nonneg:
                self.col_map[col] = [(len(self.svars), 1)]
                self.svars.append(("col", col, 1))
            else:
                self.col_map[col] = [(len(self.svars), 1), (len(self.svars) + 1, -1)]
                self.svars.append(("col", col, 1))
                self.svars.append(("col", col, -1))
        b0 = [-Fraction(r.const) for r in lp.rows]
        self.rsign = [1 if v >= 0 else -1 for v in b0]
        self.b = [v if v >= 0 else -v for v in b0]
        cols = [[] for _ in self.svars]
        for i, r in enumerate(lp.rows):
            s = self.rsign[i]
            for col, v in r.coeffs.items():
                fv = Fraction(v)
                if not fv:
                    continue
                for j, sgn in self.col_map[col]:
                    cols[j].append((i, fv * s * sgn))
        slack_coeff = {}
        for i, r in enumerate(lp.rows):
            if r.rel == ">=":
                j = len(self.svars)
                slack_coeff[i] = (j, Fraction(-self.rsign[i]))
                self.svars.append(("slack", i, 1))
                cols.append([(i, Fraction(-self.rsign[i]))])
        self.basis = [-1] * m
        self.Binv = [[ZERO] * m for _ in range(m)]
        self.xb = list(self.b)
        for i in range(m):
            sc = slack_coeff.get(i)
            if sc is not None and (sc[1] > 0 or self.b[i] == 0):
                j, coeff = sc
                self.basis[i] = j
                self.Binv[i][i] = Fraction(1) / coeff
                self.xb[i] = self.b[i] / coeff
            else:
                j = len(self.svars)
                self.svars.append(("art", i, 1))
                cols.append([(i, Fraction(1))])
                self.basis[i] = j
                self.Binv[i][i] = Fraction(1)
        self.cols = cols
        self.is_art = [v[0] == "art" for v in self.svars]
        self.basis_set = set(self.basis)

    def _duals(self, cost):
        m = self.m
        y = [ZERO] * m
        for r in range(m):
            cb = cost[self.basis[r]]
            if cb:
                row = self.Binv[r]
                for i in range(m):
                    if row[i]:
                        y[i] += cb * row[i]
        return y

    def _column_in_basis_frame(self, j):
        u = [ZERO] * self.m
        for i, v in self.cols[j]:
            for r in range(self.m):
                w = self.Binv[r][i]
                if w:
                    u[r] += w * v
        return u

    def _pivot(self, leave, enter, u):
        piv = u[leave]
        row = self.Binv[leave]
        self.Binv[leave] = [v / piv for v in row]
        self.xb[leave] = self.xb[leave] / piv
        newrow = self.Binv[leave]
        newx = self.xb[leave]
        for i in range(self.m):
            if i == leave:
                continue
            f = u[i]
            if f:
                cur = self.Binv[i]
                self.Binv[i] = [a - f * bb for a, bb in zip(cur, newrow)]
                self.xb[i] -= f * newx
        self.basis_set.discard(self.basis[leave])
        self.basis_set.add(enter)
        self.basis[leave] = enter

    def _price_partial(self, cost, y, ban_art, start, batch):
        """Most negative reduced cost among the first `batch` eligible
        negatives met on a cyclic scan from `start`; ties to lowest index."""
        nv = len(self.svars)
        enter = -1
        best = ZERO
        seen = 0
        for off in range(nv):
            j = start + off
            if j >= nv:
                j -= nv
            if j in self.basis_set or (ban_art and self.is_art[j]):
                continue
            rc = cost[j]
            for i, v in self.cols[j]:
                if y[i]:
                    rc -= y[i] * v
            if rc < best or (rc < 0 and rc == best and j < enter):
                best = rc
                enter = j
            if rc < 0:
                seen += 1
                if seen >= batch:
                    break
        return enter

    def run(self, cost, ban_art):
        # Partial most-negative pricing moves fast through degenerate
        # stretches; a strict Bland interlude after a long stall keeps
        # the walk provably cycle-free.  Deterministic throughout.
        stall_limit = 2 * self.m + 16
        batch = 24
        start = 0
        stall = 0
        bland = False
        while True:
            y = self._duals(cost)
            if bland:  # Bland's rule: the lowest-index improving column
                enter = self._price_partial(cost, y, ban_art, 0, 1)
            else:
                enter = self._price_partial(cost, y, ban_art, start, batch)
            if enter < 0:
                return "optimal"
            start = enter + 1
            u = self._column_in_basis_frame(enter)
            leave = -1
            best = None
            for r in range(self.m):
                if u[r] > 0:
                    ratio = self.xb[r] / u[r]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leave])
                    ):
                        best = ratio
                        leave = r
            if leave < 0:
                return "unbounded"
            self._pivot(leave, enter, u)
            if best == 0:
                stall += 1
                if stall > stall_limit:
                    bland = True
            else:
                stall = 0
                bland = False

    def objective_value(self, cost):
        return sum(
            (cost[self.basis[r]] * self.xb[r] for r in range(self.m)), ZERO
        )

    def drive_out_artificials(self):
        for r in range(self.m):
            if not self.is_art[self.basis[r]]:
                continue
            basis_set = set(self.basis)
            row = self.Binv[r]
            for j in range(len(self.svars)):
                if j in basis_set or self.is_art[j]:
                    continue
                ur = ZERO
                for i, v in self.cols[j]:
                    if row[i]:
                        ur += row[i] * v
                if ur != 0:
                    # degenerate pivot: the artificial sits at zero, so
                    # the basic solution is unchanged
                    self._pivot(r, j, self._column_in_basis_frame(j))
                    break


def _phase1(lp: LPProblem):
    """Standard form of lp at a feasible basis with the artificials
    driven out, and the phase-2 cost vector; None when lp is infeasible."""
    sx = _Simplex(lp)
    cost1 = [Fraction(1) if sx.is_art[j] else ZERO for j in range(len(sx.svars))]
    if any(sx.is_art[j] for j in sx.basis) and sx.objective_value(cost1) != 0:
        status = sx.run(cost1, ban_art=False)
        if status != "optimal":  # phase 1 is bounded below by zero
            raise LPError("phase-1 anomaly")
        if sx.objective_value(cost1) != 0:
            return None
    sx.drive_out_artificials()
    cost2 = [ZERO] * len(sx.svars)
    for j, (kind, payload, sgn) in enumerate(sx.svars):
        if kind == "col":
            c = Fraction(lp.objective.get(payload, 0))
            if c:
                cost2[j] = sgn * c
    return sx, cost2


def _solve_primal(lp: LPProblem) -> LPSolution:
    started = _phase1(lp)
    if started is None:
        return LPSolution("infeasible", None, {}, [])
    sx, cost2 = started
    status = sx.run(cost2, ban_art=True)
    if status == "unbounded":
        return LPSolution("unbounded", None, {}, [])
    value = sx.objective_value(cost2)
    primal = {col: ZERO for col in lp.columns}
    for r in range(sx.m):
        kind, payload, sgn = sx.svars[sx.basis[r]]
        if kind == "col":
            primal[payload] += sgn * sx.xb[r]
    y = sx._duals(cost2)
    duals = [y[i] * sx.rsign[i] for i in range(sx.m)]
    sol = LPSolution("optimal", value, primal, duals)
    if not check_duals(lp, sol):
        raise LPError("internal certificate check failed")
    return sol


def dualize(lp: LPProblem) -> LPProblem:
    """Explicit dual, again as a minimization: optimal value negates,
    its primal is the original duals and vice versa."""
    cols = [("y", i) for i in range(len(lp.rows))]
    nonneg = {("y", i) for i, r in enumerate(lp.rows) if r.rel == ">="}
    objective = {}
    rowcoeffs = {col: {} for col in lp.columns}
    for i, r in enumerate(lp.rows):
        if r.const:
            objective[("y", i)] = Fraction(r.const)
        for col, v in r.coeffs.items():
            fv = Fraction(v)
            if fv:
                rowcoeffs[col][("y", i)] = -fv
    rows = [
        LPRow(
            rowcoeffs[col],
            Fraction(lp.objective.get(col, 0)),
            ">=" if col in lp.nonneg else "=",
        )
        for col in lp.columns
    ]
    return LPProblem(cols, objective, rows, nonneg)


def _dual_answer(lp: LPProblem, sx: _Simplex, cost) -> LPSolution:
    """The answer to lp read off an optimal basis of dualize(lp): the
    dual's primal values are lp's duals and its duals are lp's primal.
    Certified against lp itself before return."""
    duals = [ZERO] * len(lp.rows)
    for r in range(sx.m):
        kind, payload, sgn = sx.svars[sx.basis[r]]
        if kind == "col":
            duals[payload[1]] += sgn * sx.xb[r]
    y = sx._duals(cost)
    primal = {col: y[p] * sx.rsign[p] for p, col in enumerate(lp.columns)}
    sol = LPSolution("optimal", -sx.objective_value(cost), primal, duals)
    if not check_duals(lp, sol):
        raise LPError("dual-orientation certificate check failed")
    return sol


class IncrementalDualSolver:
    """Row generation with a warm basis: minimize a fixed objective over
    an append-only set of rows.

    The problem is solved through its explicit dual, where appending a
    primal row only appends a dual column, so the working basis stays
    feasible and each re-solve costs marginal pivots instead of a run
    from scratch.  The row set must keep the problem feasible and
    bounded at every stage (e.g. a cone intersected with a box); a stage
    that is not raises LPError.  Appended rows must be inequalities with
    zero constant.  Every solve() is certified exactly before return.
    """

    def __init__(self, columns, objective, rows, nonneg):
        self._plp = LPProblem(list(columns), dict(objective), list(rows), set(nonneg))
        _validate(self._plp)
        self._colpos = {col: p for p, col in enumerate(self._plp.columns)}
        started = _phase1(dualize(self._plp))
        if started is None:
            raise LPError("unbounded stage in incremental solver")
        self._sx, self._cost = started

    def add_rows(self, rows):
        sx = self._sx
        for r in rows:
            if r.rel != ">=" or r.const != 0:
                raise LPError("appended rows must be homogeneous inequalities")
            entries = []
            for col, v in r.coeffs.items():
                fv = Fraction(v)
                if fv:
                    p = self._colpos.get(col)
                    if p is None:
                        raise LPError(f"appended row references unknown column {col!r}")
                    entries.append((p, -fv * sx.rsign[p]))
            i = len(self._plp.rows)
            self._plp.rows.append(r)
            sx.svars.append(("col", ("y", i), 1))
            sx.cols.append(entries)
            sx.is_art.append(False)
            self._cost.append(ZERO)

    def solve(self) -> LPSolution:
        sx = self._sx
        if sx.run(self._cost, ban_art=True) != "optimal":
            raise LPError("infeasible stage in incremental solver")
        return _dual_answer(self._plp, sx, self._cost)


def solve(
    lp: LPProblem,
    orientation: str = "auto",
    known_feasible: bool = False,
) -> LPSolution:
    _validate(lp)
    if orientation == "auto":
        orientation = (
            "dual"
            if len(lp.rows) > max(3 * len(lp.columns), 200)
            else "primal"
        )
    if orientation == "primal":
        return _solve_primal(lp)
    if orientation != "dual":
        raise LPError(f"unknown orientation {orientation!r}")
    started = _phase1(dualize(lp))
    if started is not None:
        sx, cost = started
        if sx.run(cost, ban_art=True) == "optimal":
            return _dual_answer(lp, sx, cost)
        # dual unbounded: the original is infeasible
        return LPSolution("infeasible", None, {}, [])
    # dual infeasible: original is unbounded if feasible at all
    if known_feasible:
        return LPSolution("unbounded", None, {}, [])
    probe = _solve_primal(LPProblem(lp.columns, {}, lp.rows, lp.nonneg))
    if probe.status == "optimal":
        return LPSolution("unbounded", None, {}, [])
    return LPSolution("infeasible", None, {}, [])


def check_duals(lp: LPProblem, sol: LPSolution) -> bool:
    """Exact and independent: primal feasibility, dual sign and
    column-wise domination of the objective, and equal objective values."""
    if sol.status != "optimal" or sol.value is None:
        return False
    if len(sol.duals) != len(lp.rows):
        return False
    x = {c: Fraction(sol.primal.get(c, 0)) for c in lp.columns}
    for c in lp.nonneg:
        if x[c] < 0:
            return False
    for r, lam in zip(lp.rows, sol.duals):
        v = sum((Fraction(cv) * x[c] for c, cv in r.coeffs.items()), Fraction(r.const))
        if r.rel == ">=":
            if v < 0 or lam < 0:
                return False
        elif v != 0:
            return False
    for col in lp.columns:
        rc = Fraction(lp.objective.get(col, 0))
        for r, lam in zip(lp.rows, sol.duals):
            if lam:
                cv = r.coeffs.get(col)
                if cv:
                    rc -= lam * Fraction(cv)
        if col in lp.nonneg:
            if rc < 0:
                return False
        elif rc != 0:
            return False
    pval = sum((Fraction(v) * x[c] for c, v in lp.objective.items()), ZERO)
    dval = sum(
        (-lam * Fraction(r.const) for r, lam in zip(lp.rows, sol.duals) if lam), ZERO
    )
    return pval == dval == sol.value
