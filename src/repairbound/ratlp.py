"""Exact rational linear programming with certified dual multipliers.

Solves one form: minimize a sparse integer objective over ``x >= 0``
subject to integer rows ``coeffs . x + const >= 0``.  An equality is
written as a row and its negation, a free column as the difference of
two nonnegative ones, and rational data are scaled to integers by the
caller; every objective value, coefficient and constant must be an int,
and a bool is refused.  An optimal answer is held as integers over one
denominator, the determinant D of its basis, and is accepted only after
an exact certificate check (primal feasibility, dual feasibility, equal
objective values) made on those integers.  ``solve`` returns such an
optimal answer, a proof rather than an estimate, or raises LPError: when
the dual is unbounded the problem is infeasible, and when the dual is
infeasible the problem has no optimum.

The solver is a two-phase revised simplex over Python integers.  The
basis inverse is kept fraction-free (Edmonds 1967; Bareiss 1968) as the
integer matrix ``M = D·B⁻¹`` over one common denominator
``D = |det B|``, updated by exact integer division at every pivot.  Each
row of M is a dict of its nonzero entries, so a pivot costs what the
basis stores, not m², and the integer duals ``y = cost_B·M`` are computed
once per run and then carried through each pivot by the same exact step.
A pivot that keeps D, as most pivots of the degenerate bound LPs do,
moves y and each touched row of M in place, only at the pivot row's
entries, and each basic value of ``xb`` by one exact step, which a
degenerate pivot skips; only a pivot that moves D rebuilds rows.  Each
row of the problem is checked once, as it becomes a dual column.
Pricing and ratio tests compare integers, so each pivot is the one exact
rational arithmetic would choose; fractions appear only where a caller
reads an answer back as rationals.  Pricing is multiple: the improving
columns that a partial scan finds are repriced, the most negative
entering, until none improves.  Every run breaks ratio ties
lexicographically (Dantzig, Orden & Wolfe 1955), which cannot cycle and
halves the pivots on the degenerate bound LPs.  The order is anchored
at the starting basis and again after an artificial is driven out, and
an ``IncrementalDualSolver`` keeps its anchor across appended rows and
solves.  The tie rule picks which optimal vertex is
reached, so a certificate may list different rows for the same bound.
Every run is deterministic.  Every problem is solved
through its explicit dual, built in standard form straight from the
problem: its simplex basis has one row per column of the problem and so
stays small on the tall bound LPs, and each row of the problem, given or
appended, becomes a dual column through one method.  The answer is
read off the dual's basis in its own integers and certified against the
problem itself.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

ZERO = Fraction(0)

log = logging.getLogger("repairbound.ratlp")


class LPError(ValueError):
    """Malformed problem or a failed internal certification."""


@dataclass
class LPRow:
    """The row coeffs . x + const >= 0, in integers.  The solvers only
    read a row, never mutate it, so its coeffs dict may be shared with
    the caller's own rows."""

    coeffs: dict
    const: int = 0


@dataclass
class LPProblem:
    """Minimize objective . x over x >= 0 subject to every row."""

    columns: list
    objective: dict
    rows: list


@dataclass(repr=False)
class LPSolution:
    """An optimal LP answer, the only kind the solvers return, held in
    integers over one denominator ``den`` = D > 0: the value is
    ``value_num``/D, column c is ``primal_num[c]``/D, and row i's
    multiplier is ``dual_num[i]``/D, where ``dual_num`` holds the nonzero
    ones in increasing row index and every other row of the ``n_rows``
    has multiplier 0.  ``value``, ``primal`` (column -> Fraction) and
    ``duals`` (one Fraction per row) read the answer back as rationals."""

    den: int
    value_num: int
    primal_num: dict
    dual_num: dict
    n_rows: int

    @property
    def value(self):
        return Fraction(self.value_num, self.den)

    @property
    def primal(self):
        return {c: Fraction(v, self.den) for c, v in self.primal_num.items()}

    @property
    def duals(self):
        duals = [ZERO] * self.n_rows
        for i, v in self.dual_num.items():
            duals[i] = Fraction(v, self.den)
        return duals

    def __repr__(self):
        return (
            f"LPSolution(value={self.value!r}, "
            f"primal={self.primal!r}, duals={self.duals!r})"
        )


def _validate(lp: LPProblem):
    """Check the columns and the objective; append_rows checks each row
    as it converts it."""
    colset = set(lp.columns)
    if len(colset) != len(lp.columns):
        raise LPError("duplicate column ids")
    for c, v in lp.objective.items():
        if c not in colset:
            raise LPError(f"objective references unknown column {c!r}")
        if type(v) is not int:
            raise LPError(f"objective value {v!r} of column {c!r} is not an int")


class _Simplex:
    """Standard form of the explicit dual of an LPProblem and a simplex
    basis over it, in integers.

    Row p of the dual is column p of the problem: ``Σ_i a_ip·y_i <= c_p``.
    Column i of the dual is y_i >= 0, the multiplier of row i of the
    problem, with cost ``const_i``.  The y columns come first, in row
    order, then the slack of each dual row, then the artificials.  Row p is signed by ``rsign[p]`` so its right-hand side
    is nonnegative and a slack on a zero side is +1; every starting basic
    column is +1 in its row p.  The basis is held as ``M = D·B⁻¹`` and
    ``xb = D·x_B``, both integer, with ``D = |det B|``; row r of M is a
    dict {i: entry} of its nonzero entries.  ``run`` carries the duals
    ``y = cost_B·M`` through each pivot instead of recomputing them.
    Ratio ties are broken by the rows of M·B_a for the anchor basis B_a
    (``_anchor``).  ``cost`` is the phase-2 cost, set by ``_phase1``.
    """

    def __init__(self, lp: LPProblem):
        m = len(lp.columns)
        self.m = m
        self.colpos = {col: p for p, col in enumerate(lp.columns)}
        obj = [lp.objective.get(col, 0) for col in lp.columns]
        # makes -c_p >= 0, and +1 the slack of a column with c_p = 0
        self.rsign = [-1 if c >= 0 else 1 for c in obj]
        self.svars, self.cols, self.is_art = [], [], []  # svars: (kind, payload)
        self.append_rows(lp.rows, 0)
        slacks = len(self.svars)
        for p in range(m):
            self._add("slack", p, [(p, -self.rsign[p])])
        # the starting basis is the identity, so M is too
        self.D = 1
        self.basis = [-1] * m
        self.M = [None] * m
        self.xb = [abs(c) for c in obj]
        for p in range(m):
            j = slacks + p
            if self.rsign[p] > 0:  # the slack is -1: an artificial starts
                j = len(self.svars)
                self._add("art", p, [(p, 1)])
            self.basis[p] = j
            self.M[p] = {p: 1}
        self.basis_set = set(self.basis)
        self._anchor()
        self.reset_counts()

    def _add(self, kind, payload, entries):
        self.svars.append((kind, payload))
        self.cols.append(entries)
        self.is_art.append(kind == "art")

    def append_rows(self, rows, first):
        """Append rows first, first+1, ... of the problem as the dual
        columns y_i, each entry v of column p signed to -v·rsign[p].  A
        row is checked as it is read: its constant and coefficients must
        be ints (a bool is not) and its columns the problem's, else
        LPError names the row by its place in rows, and no row of the
        batch is appended."""
        colpos, rsign = self.colpos, self.rsign
        batch = []
        for n, r in enumerate(rows):
            if type(r.const) is not int:
                raise LPError(f"row {n} constant {r.const!r} is not an int")
            entries = []
            for col, v in r.coeffs.items():
                p = colpos.get(col)
                if p is None:
                    raise LPError(f"row {n} references unknown column {col!r}")
                if type(v) is not int:
                    raise LPError(f"row {n} coefficient {v!r} of column {col!r} is not an int")
                if v:
                    entries.append((p, -v * rsign[p]))
            batch.append(entries)
        for i, entries in enumerate(batch, first):
            self._add("y", i, entries)

    def reset_counts(self):
        """Start the deterministic counters: pivots, degenerate pivots,
        reduced costs evaluated and the largest bit length of D."""
        self.pivots = self.degenerate = self.priced = 0
        self.det_bits = self.D.bit_length()

    def _duals(self, cost):
        """cost_B·M, an integer vector."""
        y = [0] * self.m
        for j, row in zip(self.basis, self.M):
            cb = cost[j]
            if cb:
                for i, w in row.items():
                    y[i] += cb * w
        return y

    def _column_in_basis_frame(self, j):
        """M·a_j, an integer vector."""
        u = [0] * self.m
        for i, v in self.cols[j]:
            for r, row in enumerate(self.M):
                if i in row:
                    u[r] += row[i] * v
        return u

    def _pivot(self, leave, enter, u):
        """Bareiss step on p = u[leave]: row `leave` keeps its integers,
        every other row i becomes (p·M[i] − u[i]·M[leave]) / D, exactly,
        with zeros dropped, and D becomes p; all three flip sign when
        p < 0, the other rows still reading the unflipped pivot row.
        When p = D each u[i]·M[leave][k] is divisible by D, so row i
        moves in place, only at the pivot row's keys, and xb[i] only
        when the pivot is not degenerate; otherwise every touched row
        is rebuilt over the union of the two rows' keys."""
        M, xb, d = self.M, self.xb, self.D
        lrow, lx = M[leave], xb[leave]
        p = u[leave]
        if p < 0:
            p = -p
            u = [-f for f in u]
            M[leave] = {k: -a for k, a in lrow.items()}
            xb[leave] = -lx
        if p == d:
            litems = lrow.items()
            for i, f in enumerate(u):
                if f and i != leave:
                    row = M[i]
                    for k, c in litems:
                        if a := row.get(k, 0) - f * c // d:
                            row[k] = a
                        else:
                            del row[k]
                    if lx:
                        xb[i] -= f * lx // d
        else:
            lkeys = lrow.keys()
            for i, f in enumerate(u):
                if i == leave:
                    continue
                if f:
                    row = M[i]
                    M[i] = {k: a // d for k in row.keys() | lkeys
                            if (a := p * row.get(k, 0) - f * lrow.get(k, 0))}
                    xb[i] = (p * xb[i] - f * lx) // d
                else:
                    M[i] = {k: p * a // d for k, a in M[i].items()}
                    xb[i] = p * xb[i] // d
        self.D = p
        self.pivots += 1
        if not lx:
            self.degenerate += 1
        self.det_bits = max(self.det_bits, p.bit_length())
        self.basis_set.discard(self.basis[leave])
        self.basis_set.add(enter)
        self.basis[leave] = enter

    def _price(self, cost, y, ban_art, scan, batch):
        """(rc, j) of each of the first `batch` eligible columns of `scan`
        with a negative reduced cost, compared as cost_j·D − y·a_j.  Adds
        the reduced costs it evaluates to ``self.priced``."""
        basis_set, is_art, cols = self.basis_set, self.is_art, self.cols
        d = self.D
        found = []
        priced = 0
        for j in scan:
            if j in basis_set or (ban_art and is_art[j]):
                continue
            priced += 1
            rc = cost[j] * d
            for i, v in cols[j]:
                rc -= y[i] * v
            if rc < 0:
                found.append((rc, j))
                if len(found) >= batch:
                    break
        self.priced += priced
        return found

    def _anchor(self):
        """Order ratio ties from the current basis B_a on: by the rows of
        M·B_a, read in increasing position s of B_a.  ``anchor[s]`` is the
        column of B_a at s and ``touch[i]`` the positions whose column has
        an entry in row i, so a row of M·B_a is read where that row of M
        is stored.  At B_a every row is D·e_r."""
        self.anchor = [self.cols[j] for j in self.basis]
        self.touch = [[] for _ in range(self.m)]
        for s, col in enumerate(self.anchor):
            for i, _ in col:
                self.touch[i].append(s)

    def _lex_less(self, r, l, ur, ul):
        """Whether row r of M·B_a over ur precedes row l over ul
        lexicographically, compared by cross products.  Two rows of the
        nonsingular M·B_a never compare equal."""
        a, b, touch = self.M[r], self.M[l], self.touch
        for s in sorted({s for i in a.keys() | b.keys() for s in touch[i]}):
            x = z = 0
            for i, v in self.anchor[s]:
                x += a.get(i, 0) * v
                z += b.get(i, 0) * v
            x, z = x * ul, z * ur
            if x != z:
                return x < z
        return False

    def run(self, cost, ban_art):
        # Multiple pricing (Maros 2003, ch. 9): a major pass keeps the
        # first `batch` improving columns of a cyclic scan, and until none
        # of them improves any more only they are repriced, the most
        # negative entering; "optimal" needs a major pass that finds none.
        # Ratio ties are broken by the rows of M·B_a, which is the ratio
        # test of the right-hand side perturbed by B_a·(ε, ε², …) for the
        # anchor basis B_a: every row starts and stays positive in the
        # perturbed order, so the run cannot cycle.  The duals
        # y = cost_B·M are computed once and then carried through each
        # pivot by the same exact step as the rows of M.
        batch = 24
        start = 0
        xb = self.xb
        y = self._duals(cost)
        found = []
        while True:
            if found:  # reprice the candidates of the last major pass
                found = self._price(cost, y, ban_art, [j for _, j in found], batch)
            if not found:  # a major pass: the first negatives from start on
                n = len(self.cols)
                found = self._price(cost, y, ban_art, chain(range(start, n), range(start)), batch)
                if not found:
                    return "optimal"
                start = found[-1][1] + 1
            rc, enter = min(found)
            u = self._column_in_basis_frame(enter)
            # the least ratio xb[r]/u[r] over u[r] > 0, by cross products
            leave = -1
            for r, ur in enumerate(u):
                if ur > 0:
                    if leave < 0:
                        leave = r
                        continue
                    lhs, rhs = xb[r] * u[leave], xb[leave] * ur
                    if lhs < rhs or lhs == rhs and self._lex_less(r, leave, ur, u[leave]):
                        leave = r
            if leave < 0:
                return "unbounded"
            d = self.D
            self._pivot(leave, enter, u)
            # y' = (p·y + rc·M'[leave]) / D, with p and M'[leave] the new
            # determinant and pivot row; when p = D only the entries of
            # M'[leave] move, each by rc·c / D, an integer because y and
            # y' are
            p = self.D
            if p == d:
                for k, c in self.M[leave].items():
                    y[k] += rc * c // d
            else:
                y = [p * v for v in y]
                for k, c in self.M[leave].items():
                    y[k] += rc * c
                y = [v // d for v in y]

    def artificial_positive(self):
        """True when some artificial is basic at a nonzero value."""
        return any(x for j, x in zip(self.basis, self.xb) if self.is_art[j])

    def drive_out_artificials(self):
        pivots = self.pivots
        for r in range(self.m):
            if not self.is_art[self.basis[r]]:
                continue
            row = self.M[r]
            for j in range(len(self.svars)):
                if j in self.basis_set or self.is_art[j]:
                    continue
                if sum(row.get(i, 0) * v for i, v in self.cols[j]):
                    # degenerate pivot: the artificial sits at zero, so
                    # the basic solution is unchanged
                    self._pivot(r, j, self._column_in_basis_frame(j))
                    break
        if self.pivots != pivots:
            # the pivot may be negative; at the new anchor every row is
            # positive again
            self._anchor()


def _phase1(lp: LPProblem) -> _Simplex:
    """Standard form of the dual of lp at a feasible basis with the
    artificials driven out and the phase-2 cost set; LPError when the
    dual is infeasible."""
    sx = _Simplex(lp)
    if sx.artificial_positive():
        status = sx.run([int(a) for a in sx.is_art], ban_art=False)
        if status != "optimal":  # phase 1 is bounded below by zero
            raise LPError("phase-1 anomaly")
        if sx.artificial_positive():
            raise LPError("the dual is infeasible: the problem has no optimum "
                          "(it is unbounded or infeasible)")
    sx.drive_out_artificials()
    sx.cost = [lp.rows[i].const if kind == "y" else 0 for kind, i in sx.svars]
    return sx


def _log_counts(what: str, lp: LPProblem, sx: _Simplex):
    """One DEBUG line with the counters of the simplex behind an answer."""
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "%s: %d rows, %d columns, %d pivots (%d degenerate), "
            "%d reduced costs, determinant bits %d",
            what,
            len(lp.rows),
            len(lp.columns),
            sx.pivots,
            sx.degenerate,
            sx.priced,
            sx.det_bits,
        )


def _dual_answer(lp: LPProblem, sx: _Simplex) -> LPSolution:
    """The answer to lp read off an optimal basis of its dual, in the
    basis's integers over its D: the dual's primal values xb are lp's
    multipliers, its duals y are lp's primal, and lp's value is minus
    the dual's.  Certified by check_duals against lp itself before
    return."""
    y, rsign = sx._duals(sx.cost), sx.rsign
    primal = {col: y[p] * rsign[p] for p, col in enumerate(lp.columns)}
    duals, value = [], 0
    for j, x in zip(sx.basis, sx.xb):
        value -= sx.cost[j] * x
        kind, i = sx.svars[j]
        if kind == "y" and x:
            duals.append((i, x))
    sol = LPSolution(sx.D, value, primal, dict(sorted(duals)), len(lp.rows))
    if not check_duals(lp, sol):
        raise LPError("internal certificate check failed")
    return sol


def _optimum(what: str, lp: LPProblem, sx: _Simplex) -> LPSolution:
    """Run phase 2 from a feasible basis of lp's dual, log its counters
    and return the certified answer; LPError when the dual is unbounded."""
    if sx.run(sx.cost, ban_art=True) != "optimal":
        raise LPError("the dual is unbounded: the problem is infeasible")
    _log_counts(what, lp, sx)
    return _dual_answer(lp, sx)


class IncrementalDualSolver:
    """Row generation with a warm basis: minimize a fixed objective over
    an append-only set of rows.

    The problem is solved through its explicit dual, where appending a
    primal row only appends a dual column, so the working basis stays
    feasible and each re-solve costs marginal pivots instead of a run
    from scratch.  The row set must keep the problem feasible and
    bounded at every stage (e.g. a cone intersected with a box); a stage
    that is not raises solve's LPError.  The data are those of an
    LPProblem, given or appended, and an appended row's constant is the
    cost of its dual column; add_rows raises LPError on a batch with a
    malformed row and appends none of it.  Every solve() is certified
    exactly before return.
    """

    def __init__(self, columns, objective, rows):
        self._plp = LPProblem(list(columns), dict(objective), list(rows))
        _validate(self._plp)
        self._sx = _phase1(self._plp)
        _log_counts("incremental phase 1 (dual)", self._plp, self._sx)

    def add_rows(self, rows):
        rows = list(rows)
        sx = self._sx
        sx.append_rows(rows, len(self._plp.rows))
        self._plp.rows += rows
        sx.cost += [r.const for r in rows]

    def solve(self) -> LPSolution:
        self._sx.reset_counts()
        return _optimum("incremental solve (dual)", self._plp, self._sx)


def solve(lp: LPProblem) -> LPSolution:
    """Minimize lp through its explicit dual and return its optimal
    answer, certified by check_duals, or raise LPError when lp has none.
    lp and its rows are read, never mutated."""
    _validate(lp)
    return _optimum("solve (dual)", lp, _phase1(lp))


def check_duals(lp: LPProblem, sol: LPSolution) -> bool:
    """Exact and independent: primal feasibility, dual sign and
    column-wise domination of the objective, and equal objective values,
    read straight from the answer's integers over its denominator D.

    Each row's feasibility is read from D times the row at x, the
    reduced costs are D times those at the multipliers, and the primal
    and dual values are compared with the value, all as numerators over
    D.  On integer data every sum is an integer; on rational data, which
    solve refuses, the same sums stay exact in Fractions, only slower."""
    D, rows = sol.den, lp.rows
    if D <= 0 or sol.n_rows != len(rows):
        return False
    x = {c: sol.primal_num.get(c, 0) for c in lp.columns}
    if any(v < 0 for v in x.values()):
        return False
    for r in rows:
        v = r.const * D  # D times the row at x
        for c, cv in r.coeffs.items():
            v += cv * x[c]
        if v < 0:
            return False
    indices = range(len(rows))
    rc = dict.fromkeys(lp.columns, 0)  # D · Σ λ·row, per column
    dval = 0  # D · Σ -λ·const
    for i, m in sol.dual_num.items():
        if i not in indices or m < 0:
            return False
        r = rows[i]
        dval -= m * r.const
        for c, cv in r.coeffs.items():
            rc[c] += m * cv
    for c, v in rc.items():
        if lp.objective.get(c, 0) * D < v:
            return False
    pval = sum(v * x[c] for c, v in lp.objective.items())
    return pval == dval == sol.value_num
