import hashlib
import itertools
import logging
import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import pytest

from repairbound import ratlp
from repairbound.prover import build_lp, default_family, pool_rows
from repairbound.ratlp import (
    IncrementalDualSolver,
    LPError,
    LPProblem,
    LPRow,
    LPSolution,
    check_duals,
    solve,
)
from repairbound.universe import build_universe

F = Fraction


# -- the general form, taken to the one form solve takes -------------------


@dataclass
class Row(LPRow):
    """A row of the general form: coeffs . x + const >= 0 (rel ">=") or
    = 0 (rel "="), over rationals."""

    rel: str = ">="


@dataclass
class GeneralLP(LPProblem):
    """The general form: rational data, = rows, and a free column for
    every column outside nonneg.  The vertex oracle, dualize and
    reference_check_duals read it; solve takes it through canonical."""

    nonneg: set = field(default_factory=set)


def as_general(lp):
    """An LPProblem as the GeneralLP it is: every column nonnegative and
    every row an inequality."""
    rows = [Row(r.coeffs, r.const) for r in lp.rows]
    return GeneralLP(lp.columns, lp.objective, rows, set(lp.columns))


def canonical(lp):
    """The one form of a GeneralLP, and the map of its answers back to
    lp's.  A free column c becomes the adjacent columns (c, "+") and
    (c, "-"), an = row the row and then its negation, each row is scaled
    by the lcm of its denominators and the objective by the lcm s of
    its own.  Mapped back, c = c+ - c-, each multiplier is multiplied by
    its row's scale over s (an = row's is the difference of its two),
    and the value is divided by s."""
    split = {c: [c] if c in lp.nonneg else [(c, "+"), (c, "-")] for c in lp.columns}

    def ints(coeffs, scale):
        out = {}
        for c, v in coeffs.items():
            v = int(v * scale)
            out.update(zip(split[c], (v, -v)))  # v alone on a nonneg column
        return out

    s = math.lcm(*(F(v).denominator for v in lp.objective.values()))
    rows, scales = [], []
    for r in lp.rows:
        t = math.lcm(F(r.const).denominator, *(F(v).denominator for v in r.coeffs.values()))
        row = LPRow(ints(r.coeffs, t), int(r.const * t))
        rows.append(row)
        scales.append(t)
        if r.rel == "=":
            rows.append(LPRow({c: -v for c, v in row.coeffs.items()}, -row.const))
    one_form = LPProblem([c for col in lp.columns for c in split[col]], ints(lp.objective, s), rows)

    def back(sol):
        if isinstance(sol, str):  # the message of a problem with no optimum
            return sol
        primal = {
            c: sum(sol.primal[p] * sign for p, sign in zip(split[c], (1, -1)))
            for c in lp.columns
        }
        duals = []
        lams = iter(sol.duals)
        for r, t in zip(lp.rows, scales):
            lam = next(lams)
            if r.rel == "=":
                lam -= next(lams)
            duals.append(lam * t / s)
        return rational_answer(sol.value / s, primal, duals)

    return one_form, back


def rational_answer(value, primal, duals):
    """The LPSolution of an answer given in rationals: a value, a primal
    dict and one multiplier per row, over the lcm of their denominators."""
    qs = (*primal.values(), *duals, value)
    den = math.lcm(*(F(q).denominator for q in qs))

    def num(q):
        return F(q).numerator * (den // F(q).denominator)

    return LPSolution(
        den,
        num(value),
        {c: num(q) for c, q in primal.items()},
        {i: num(q) for i, q in enumerate(duals) if q},
        len(duals),
    )


# the two messages of solve's LPError on a problem with no optimum, and
# the statuses of an exact oracle that each message agrees with
INFEASIBLE = "the dual is unbounded: the problem is infeasible"
NO_OPTIMUM = "the dual is infeasible: the problem has no optimum (it is unbounded or infeasible)"
MEANS = {INFEASIBLE: {"infeasible"}, NO_OPTIMUM: {"unbounded", "infeasible"}}


def outcome(lp):
    """solve's optimal answer to lp, or the message of its LPError when
    lp has no optimum."""
    try:
        return solve(lp)
    except LPError as e:
        assert str(e) in MEANS, e
        return str(e)


def solve_general(lp):
    """The answer to a GeneralLP, through its one form."""
    one_form, back = canonical(lp)
    return back(outcome(one_form))


# -- small problems ---------------------------------------------------------


def lp_min_x_above_one():
    return LPProblem(["x"], {"x": 1}, [LPRow({"x": 1}, -1)])


def lp_y_above_x():
    # min y - x  s.t.  y - x >= 1: the dual row of x, -λ <= -1, starts on
    # an artificial, phase 1 leaves it basic at zero, and driving it out
    # pivots on -1.  Found by a seeded search: about 19 in 5,000 small
    # LPs with coefficients in -2..2 drive out on a negative pivot
    return LPProblem(["x", "y"], {"x": -1, "y": 1}, [LPRow({"x": -1, "y": 1}, -1)])


def test_min_x_above_one():
    sol = solve(lp_min_x_above_one())
    assert sol.value == 1
    assert sol.primal["x"] == 1
    assert sol.duals == [1]


def test_unbounded_below():
    lp = LPProblem(["x"], {"x": -1}, [])
    assert outcome(lp) == NO_OPTIMUM


def test_infeasible():
    lp = LPProblem(["x"], {"x": 1}, [LPRow({"x": 1}, -1), LPRow({"x": -1})])
    assert outcome(lp) == INFEASIBLE


def test_equality_rows_and_free_columns():
    # min x + y  s.t.  x + y = 3, x - y >= -5, y free, through its one form
    lp = GeneralLP(
        ["x", "y"],
        {"x": F(1), "y": F(1)},
        [Row({"x": F(1), "y": F(1)}, F(-3), "="), Row({"x": F(1), "y": F(-1)}, F(5))],
        {"x"},
    )
    one_form, back = canonical(lp)
    assert one_form.columns == ["x", ("y", "+"), ("y", "-")] and len(one_form.rows) == 3
    sol = solve(one_form)
    assert sol.value == 3
    assert check_duals(one_form, sol)
    assert reference_check_duals(lp, back(sol))


def test_check_duals_rejects_tampering():
    lp = lp_min_x_above_one()
    sol = solve(lp)
    assert check_duals(lp, sol)
    bad = rational_answer(sol.value, sol.primal, [-d for d in sol.duals])
    assert not check_duals(lp, bad)
    scaled = rational_answer(sol.value, sol.primal, [2 * d for d in sol.duals])
    assert not check_duals(lp, scaled)
    wrong_value = rational_answer(sol.value + 1, sol.primal, sol.duals)
    assert not check_duals(lp, wrong_value)


def test_check_duals_rejects_a_free_column_imbalance():
    # min x  s.t.  x >= 1, -y >= 0, y free, written y = y+ - y-: raising
    # the second multiplier keeps every row, sign and the objective
    # balance intact, and leaves y+ with reduced cost +1 and y- with
    # reduced cost -1, which only the pair of a free column rejects
    rows = [Row({"x": F(1)}, F(-1)), Row({"y": F(-1)})]
    lp, _ = canonical(GeneralLP(["x", "y"], {"x": F(1)}, rows, {"x"}))
    sol = solve(lp)
    assert check_duals(lp, sol) and sol.duals == [1, 0]
    tampered = rational_answer(sol.value, sol.primal, [F(1), F(1)])
    assert not check_duals(lp, tampered)
    nonneg, _ = canonical(GeneralLP(["x", "y"], {"x": F(1)}, rows, {"x", "y"}))
    answer = rational_answer(sol.value, {"x": F(1), "y": F(0)}, [F(1), F(1)])
    assert check_duals(nonneg, answer)


def test_validation_errors():
    with pytest.raises(LPError):
        solve(LPProblem(["x", "x"], {}, []))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {"z": 1}, []))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {}, [LPRow({"z": 1})]))


@pytest.mark.parametrize(
    "bad",
    [1.5, "1", F(1, 2), F(2), True],
    ids=["float", "str", "fraction", "integral-fraction", "bool"],
)
def test_non_int_input_is_rejected(bad):
    # nothing is converted, not even an integral Fraction or a bool, an
    # int subclass: each position raises LPError
    row = LPRow({"x": 1}, -1)
    for lp in (
        LPProblem(["x"], {"x": bad}, [row]),
        LPProblem(["x"], {"x": 1}, [LPRow({"x": bad}, -1)]),
        LPProblem(["x"], {"x": 1}, [LPRow({"x": 1}, bad)]),
    ):
        with pytest.raises(LPError, match="not an int"):
            solve(lp)
        with pytest.raises(LPError, match="not an int"):
            IncrementalDualSolver(lp.columns, lp.objective, lp.rows)
    # min -x over x <= 1; the valid row -x >= 0 would raise the minimum
    # to 0, so a rejected batch shows that it appended none of its rows
    solver = IncrementalDualSolver(["x"], {"x": -1}, [LPRow({"x": -1}, 1)])
    for appended in (LPRow({"x": bad}), LPRow({"x": 1}, bad)):
        with pytest.raises(LPError, match="not an int"):
            solver.add_rows([LPRow({"x": -1}), appended])
    assert solver.solve().value == -1
    solver.add_rows([LPRow({"x": -1})])
    assert solver.solve().value == 0


def test_determinism_bytes():
    lp = LPProblem(
        ["x", "y"],
        {"x": 1, "y": 2},
        [LPRow({"x": 1, "y": 1}, -1), LPRow({"x": -1, "y": 2}, 1)],
    )
    assert repr(solve(lp)) == repr(solve(lp))


# -- randomized cross-checks ----------------------------------------------


def random_value(rng, lo, hi, dens=None):
    """An integer in [lo, hi), over a denominator drawn from dens if given."""
    v = F(rng.randrange(lo, hi))
    return v if dens is None else v / rng.choice(dens)


def random_lp(rng, max_cols=8, max_rows=12, dens=None, nonneg_share=0.8, eq_share=0.25):
    """A GeneralLP; nonneg_share=1 and eq_share=0 give the one form over
    rational data."""
    ncols = rng.randrange(1, max_cols + 1)
    nrows = rng.randrange(0, max_rows + 1)
    cols = [f"c{i}" for i in range(ncols)]
    nonneg = {c for c in cols if rng.random() < nonneg_share}
    objective = {
        c: random_value(rng, -4, 5, dens) for c in cols if rng.random() < 0.8
    }
    rows = []
    for _ in range(nrows):
        coeffs = {
            c: random_value(rng, -4, 5, dens) for c in cols if rng.random() < 0.7
        }
        coeffs = {c: v for c, v in coeffs.items() if v}
        rel = "=" if rng.random() < eq_share else ">="
        rows.append(Row(coeffs, random_value(rng, -4, 5, dens), rel))
    return GeneralLP(cols, objective, rows, nonneg)


def brute_force_box_min(lp, box):
    """Vertex enumeration over the box-clamped polyhedron; None if empty."""
    n = len(lp.columns)
    cons = []  # (a vector, b) meaning a.x >= b
    for r in lp.rows:
        a = [F(r.coeffs.get(c, 0)) for c in lp.columns]
        b = -F(r.const)
        cons.append((a, b))
        if r.rel == "=":
            cons.append(([-v for v in a], -b))
    for j, c in enumerate(lp.columns):
        e = [F(1) if i == j else F(0) for i in range(n)]
        if c in lp.nonneg:
            cons.append((e, F(0)))
        else:
            cons.append((e, F(-box)))
        cons.append(([-v for v in e], F(-box)))
    obj = [F(lp.objective.get(c, 0)) for c in lp.columns]
    best = None
    for active in itertools.combinations(range(len(cons)), n):
        mat = [list(cons[i][0]) + [cons[i][1]] for i in active]
        x = _gauss_solve(mat, n)
        if x is None:
            continue
        if all(
            sum(a[i] * x[i] for i in range(n)) >= b for a, b in cons
        ):
            val = sum(obj[i] * x[i] for i in range(n))
            if best is None or val < best:
                best = val
    return best


def _gauss_solve(mat, n):
    m = [row[:] for row in mat]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [v / pv for v in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def test_random_lps_pass_certification():
    rng = random.Random(1234)
    outcomes = set()
    for _ in range(100):
        lp = random_lp(rng)
        one_form, back = canonical(lp)
        sol = outcome(one_form)
        if isinstance(sol, str):
            outcomes.add(sol)
        else:
            outcomes.add("optimal")
            assert check_duals(one_form, sol)
            assert reference_check_duals(lp, back(sol))
    assert outcomes == {"optimal", INFEASIBLE, NO_OPTIMUM}


def assert_matches_vertex_oracle(lp, *sols):
    """Every answer agrees with vertex enumeration, and every message
    with its status; True when optimal."""
    small = brute_force_box_min(lp, 10**3)
    big = brute_force_box_min(lp, 10**9)
    status = "infeasible" if big is None else "unbounded" if big < small else "optimal"
    for sol in sols:
        if isinstance(sol, str):
            assert status in MEANS[sol]
        else:
            assert big == sol.value
    return not isinstance(sols[0], str)


def test_random_lps_match_vertex_oracle():
    rng = random.Random(987)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_cols=4, max_rows=6)
        checked += assert_matches_vertex_oracle(lp, solve_general(lp))
    assert checked >= 5


def test_fractional_lps_match_vertex_oracle():
    # canonical scales each row, and the objective, to integers by the
    # lcm of its denominators
    rng = random.Random(2718)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_cols=4, max_rows=6, dens=(1, 2, 3, 4, 6))
        sol = solve_general(lp)
        assert isinstance(sol, str) or reference_check_duals(lp, sol)
        checked += assert_matches_vertex_oracle(lp, sol)
    assert checked >= 5


def test_answers_are_pinned():
    # sha256 over the repr of every answer, and of the message of every
    # LPError: a change of any pivot or of any rational read back moves it
    rng = random.Random(20260418)
    digest = hashlib.sha256()
    for _ in range(300):
        lp, _ = canonical(random_lp(rng))
        digest.update(repr(outcome(lp)).encode() + b"\n")
    assert digest.hexdigest() == (
        "9d7771b31d2c57f2dee20878d4b2da242c645ed00722c90a4dbdbfaa22127084"
    )


def test_simplex_starts_from_a_positive_basis():
    # every starting basic column, slack or artificial, is +1 in its own
    # row p, so M starts as the identity and lexicographic ties compare
    # rows of M with no start signs
    rng = random.Random(20260418)
    for _ in range(300):
        sx = ratlp._Simplex(canonical(random_lp(rng))[0])
        assert [sx.cols[j] for j in sx.basis] == [[(p, 1)] for p in range(sx.m)]
        assert sx.D == 1 and sx.M == [{p: 1} for p in range(sx.m)]


def dualize(lp):
    """Explicit dual, again as a minimization: optimal value negates,
    its primal is the original duals and vice versa."""
    cols = [("y", i) for i in range(len(lp.rows))]
    nonneg = {("y", i) for i, r in enumerate(lp.rows) if r.rel == ">="}
    objective = {("y", i): r.const for i, r in enumerate(lp.rows) if r.const}
    rowcoeffs = {col: {} for col in lp.columns}
    for i, r in enumerate(lp.rows):
        for col, v in r.coeffs.items():
            if v:
                rowcoeffs[col][("y", i)] = -v
    rows = [
        Row(rowcoeffs[col], lp.objective.get(col, 0), ">=" if col in lp.nonneg else "=")
        for col in lp.columns
    ]
    return GeneralLP(cols, objective, rows, nonneg)


def test_dualize_round_trip_value():
    rng = random.Random(55)
    for _ in range(30):
        lp = random_lp(rng, max_cols=4, max_rows=5)
        sol = solve_general(lp)
        if isinstance(sol, str):
            continue
        ds = solve_general(dualize(lp))
        assert ds.value == -sol.value


def reference_check_duals(lp, sol):
    # the slow path: one Fraction per coefficient, as check_duals was
    # before it cleared denominators
    if len(sol.duals) != len(lp.rows):
        return False
    x = {c: F(sol.primal.get(c, 0)) for c in lp.columns}
    for c in lp.nonneg:
        if x[c] < 0:
            return False
    rc = {c: F(lp.objective.get(c, 0)) for c in lp.columns}
    dval = F(0)
    for r, lam in zip(lp.rows, sol.duals):
        v = sum((F(cv) * x[c] for c, cv in r.coeffs.items()), F(r.const))
        if r.rel == ">=":
            if v < 0 or lam < 0:
                return False
        elif v != 0:
            return False
        if lam:
            dval -= lam * F(r.const)
            for c, cv in r.coeffs.items():
                rc[c] -= lam * F(cv)
    for c, v in rc.items():
        if v < 0 if c in lp.nonneg else v != 0:
            return False
    pval = sum((F(v) * x[c] for c, v in lp.objective.items()), F(0))
    return pval == dval == sol.value


def test_check_duals_matches_fraction_reference():
    # every true answer and three tampered copies of it get the same
    # verdict from the integer check and the Fraction one, on the one
    # forms of general LPs and on one-form LPs with fractional rows,
    # which solve refuses: those are answered through canonical, with
    # the duals mapped back through the row scales
    rng = random.Random(8128)
    verdicts = {"true": set(), "dual": set(), "primal": set(), "new column": set()}
    fractional = 0
    for i in range(300):
        if i % 2:
            lp, _ = canonical(random_lp(rng))
            sol = outcome(lp)
        else:
            general = random_lp(rng, dens=(1, 2, 3, 4, 6), nonneg_share=1, eq_share=0)
            lp = LPProblem(
                general.columns, general.objective, [LPRow(r.coeffs, r.const) for r in general.rows]
            )
            one_form, back = canonical(general)
            sol = back(outcome(one_form))
        if isinstance(sol, str):
            continue
        # rational -> integer -> rational gives the same answer back
        again = rational_answer(sol.value, sol.primal, sol.duals)
        assert (again.value, again.primal, again.duals) == (sol.value, sol.primal, sol.duals)
        assert repr(again) == repr(sol)
        # the integer form itself tampered with, where the rational views
        # cannot follow: a denominator <= 0 (the negated one with every
        # numerator negated reads as the same rationals), a multiplier on
        # a row index outside the problem, a negative multiplier and a
        # value off by 1/D.  A multiplier on an appended row 0 >= 0 moves
        # no reduced cost or value, so only its sign decides
        zero_row = LPProblem(lp.columns, lp.objective, lp.rows + [LPRow({})])
        for lam in (1, -1):
            dual_num = {**sol.dual_num, len(lp.rows): lam}
            answer = replace(sol, dual_num=dual_num, n_rows=len(lp.rows) + 1)
            assert check_duals(zero_row, answer) == (lam > 0)
            assert reference_check_duals(as_general(zero_row), answer) == (lam > 0)
        negated = replace(
            sol,
            den=-sol.den,
            value_num=-sol.value_num,
            primal_num={c: -v for c, v in sol.primal_num.items()},
            dual_num={j: -v for j, v in sol.dual_num.items()},
        )
        tampered = [replace(sol, den=0), negated]
        for j in (len(lp.rows), -1):
            tampered.append(replace(sol, dual_num={**sol.dual_num, j: 1}))
        if lp.rows:
            j = rng.randrange(len(lp.rows))
            tampered.append(replace(sol, dual_num={**sol.dual_num, j: -1}))
        tampered += [replace(sol, value_num=sol.value_num + step) for step in (-1, 1)]
        assert not any(check_duals(lp, answer) for answer in tampered), i
        fractional += i % 2 == 0
        delta = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        cases = [("true", lp, sol)]
        if sol.duals:
            duals = list(sol.duals)
            duals[rng.randrange(len(duals))] += delta
            cases.append(("dual", lp, rational_answer(sol.value, sol.primal, duals)))
        primal = dict(sol.primal)
        primal[rng.choice(lp.columns)] += delta
        cases.append(("primal", lp, rational_answer(sol.value, primal, sol.duals)))
        # a new column z at zero in one row with a nonzero multiplier
        # lambda and coefficient |delta|: every row, sign and objective
        # value still holds, and only z's reduced cost -lambda·|delta| is off
        support = [j for j, lam in enumerate(sol.duals) if lam]
        if support:
            j = rng.choice(support)
            rows = list(lp.rows)
            rows[j] = LPRow({**rows[j].coeffs, "z": abs(delta)}, rows[j].const)
            wide = LPProblem(lp.columns + ["z"], lp.objective, rows)
            cases.append(("new column", wide, sol))
        for kind, problem, answer in cases:
            verdict = check_duals(problem, answer)
            assert verdict == reference_check_duals(as_general(problem), answer), (i, kind)
            verdicts[kind].add(verdict)
    assert verdicts["true"] == {True} and verdicts["new column"] == {False}
    assert verdicts["dual"] == verdicts["primal"] == {True, False}
    assert fractional > 20


def integral(row):
    """A row scaled by the lcm of its denominators, in ints."""
    scale = math.lcm(F(row.const).denominator, *(F(v).denominator for v in row.coeffs.values()))
    return LPRow({c: int(v * scale) for c, v in row.coeffs.items()}, int(row.const * scale))


def incremental_runs(rng, count, dens=None, const_hi=0):
    """Verifier-shaped problems: the box 0 <= x <= 1 plus random rows,
    appended in batches.  The rows are homogeneous unless const_hi is
    set; then each takes a constant drawn from range(const_hi), so x = 0
    stays feasible, and an unset const_hi draws nothing extra.  Rational
    data are scaled to integers, the objective by the lcm of its
    denominators and each row by the lcm of its own.  Every stage's
    answer is certified against the rows given so far; yields the last
    answer and a cold solve of the whole problem."""
    for _ in range(count):
        cols = [f"c{i}" for i in range(rng.randrange(2, 7))]
        objective = {c: random_value(rng, -4, 5, dens) for c in cols}
        s = math.lcm(*(v.denominator for v in objective.values()))
        objective = {c: int(v * s) for c, v in objective.items()}
        box = [LPRow({c: -1}, 1) for c in cols]
        rows = [
            integral(
                LPRow(
                    {c: random_value(rng, -3, 4, dens) for c in cols if rng.random() < 0.6},
                    rng.randrange(const_hi) if const_hi else 0,
                )
            )
            for _ in range(rng.randrange(1, 16))
        ]
        done = rng.randrange(0, len(rows) + 1)
        solver = IncrementalDualSolver(cols, objective, box + rows[:done])
        while True:
            sol = solver.solve()
            assert check_duals(LPProblem(cols, objective, box + rows[:done]), sol)
            if done == len(rows):
                break
            step = rng.randrange(1, 5)
            solver.add_rows(rows[done : done + step])
            done = min(done + step, len(rows))
        yield sol, solve(LPProblem(cols, objective, box + rows))


def test_incremental_solver_matches_cold_dual_solve():
    zero_optimum = set()
    runs = itertools.chain(
        incremental_runs(random.Random(4711), 40),
        incremental_runs(random.Random(4713), 40, const_hi=4),
    )
    for sol, cold in runs:
        assert sol.value == cold.value
        zero_optimum.add(sol.value == 0)
    # x = 0 is always feasible: the sample holds both a zero optimum (a
    # cone witness exists) and a negative one
    assert zero_optimum == {True, False}


def test_incremental_solver_raises_the_messages_of_solve():
    # min -x over x >= 0 has no optimum, which phase 1 finds at once
    with pytest.raises(LPError) as e:
        IncrementalDualSolver(["x"], {"x": -1}, [])
    assert str(e.value) == NO_OPTIMUM
    # min x over x <= 1 is 0; the appended x >= 2 empties the problem
    solver = IncrementalDualSolver(["x"], {"x": 1}, [LPRow({"x": -1}, 1)])
    assert solver.solve().value == 0
    solver.add_rows([LPRow({"x": 1}, -2)])
    with pytest.raises(LPError) as e:
        solver.solve()
    assert str(e.value) == INFEASIBLE


def test_incremental_solver_with_fractional_rows():
    # rational data reach the solver scaled to integers: min x/2 - y over
    # the box becomes min x - 2y, whose value is twice as large, and the
    # appended row x/2 - y >= 0 becomes x - 2y >= 0
    box = [LPRow({"x": -1}, 1), LPRow({"y": -1}, 1)]
    objective = {"x": 1, "y": -2}
    solver = IncrementalDualSolver(["x", "y"], objective, box)
    assert solver.solve().value == -2
    row = integral(LPRow({"x": F(1, 2), "y": F(-1)}))
    assert row == LPRow({"x": 1, "y": -2})
    solver.add_rows([row])
    sol = solver.solve()
    assert check_duals(LPProblem(["x", "y"], objective, box + [row]), sol)
    assert sol.value == 0
    for sol, cold in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        assert sol.value == cold.value


def row_snapshot(rows):
    """Every row of a list, by identity and in order, with its
    coefficients in their order and type, and its constant."""
    return [(id(r), repr((list(r.coeffs.items()), r.const))) for r in rows]


def test_solvers_never_mutate_rows():
    # the prover's pool rows and the verifier's rung rows share their
    # coefficient dicts with the LP, so no solver may write to one, nor
    # to the list that holds them, while it checks and converts them
    rng = random.Random(606)
    for i in range(80):
        lp, _ = canonical(random_lp(rng, dens=None if i % 2 else (1, 2, 3)))
        before = row_snapshot(lp.rows)
        outcome(lp)
        assert row_snapshot(lp.rows) == before, i
    lps = bound_lps_433()
    before = row_snapshot(lps[0].rows)
    for lp in lps:
        assert check_duals(lp, solve(lp))
    assert row_snapshot(lps[0].rows) == before
    for _ in range(20):
        cols = [f"c{i}" for i in range(rng.randrange(2, 7))]
        objective = {c: rng.randrange(-4, 5) for c in cols}
        rows = [LPRow({c: -1}, 1) for c in cols] + [
            LPRow({c: rng.randrange(-3, 4) for c in cols if rng.random() < 0.6}, rng.randrange(2))
            for _ in range(rng.randrange(2, 16))
        ]
        before = row_snapshot(rows)
        solver = IncrementalDualSolver(cols, objective, rows[: len(cols) + 1])
        solver.solve()
        for at in range(len(cols) + 1, len(rows), 3):
            solver.add_rows(rows[at : at + 3])
            solver.solve()
        assert row_snapshot(rows) == before


def test_pivot_counters_are_pinned(caplog):
    # sha256 over the DEBUG counter lines (pivots, degenerate pivots,
    # reduced costs and determinant bits) of the LPs of
    # test_answers_are_pinned and of cold and incremental runs: a change
    # of any pivot moves it even where the answers stay the same.  Only
    # optimal answers log a line, 37 of the 300 random LPs
    with caplog.at_level(logging.DEBUG, logger="repairbound.ratlp"):
        rng = random.Random(20260418)
        for _ in range(300):
            outcome(canonical(random_lp(rng))[0])
        for _ in incremental_runs(random.Random(4711), 6):
            pass
        for _ in incremental_runs(random.Random(4712), 6, dens=(1, 2, 3, 5)):
            pass
    lines = [r.getMessage() for r in caplog.records if r.name == "repairbound.ratlp"]
    assert len(lines) == 87
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "e0b7ec44c604b5ef544db33426e09663899716f60946d837181772b5d9e7d4ed"
    )


# -- the fraction-free basis ----------------------------------------------


def fraction_det(mat):
    """Determinant by Gaussian elimination in fractions."""
    a = [[F(v) for v in row] for row in mat]
    det = F(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c]), None)
        if piv is None:
            return F(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def assert_fraction_free(sx):
    """M·B == D·I and B·xb == D·b exactly, D == |det B|, all integers,
    with each sparse row of M storing no zero."""
    m = sx.m
    basis_cols = [[0] * m for _ in range(m)]  # B, column by column
    for c, j in enumerate(sx.basis):
        for i, v in sx.cols[j]:
            basis_cols[c][i] = v
    assert all(type(v) is int for row in sx.M for v in row.values())
    assert all(0 not in row.values() for row in sx.M)
    assert all(type(x) is int for x in sx.xb)
    dense = [[row.get(i, 0) for i in range(m)] for row in sx.M]
    for r in range(m):
        for c in range(m):
            got = sum(a * b for a, b in zip(dense[r], basis_cols[c]))
            assert got == (sx.D if r == c else 0)
    for i in range(m):
        got = sum(basis_cols[c][i] * sx.xb[c] for c in range(m))
        assert got == sx.D * sx.rsign[i] * sx.rhs[i]
    assert sx.D == abs(fraction_det(basis_cols))


def test_fraction_free_basis_invariant(monkeypatch):
    # checked at the start and after every pivot, on integer and
    # fractional data, cold and incrementally
    seen = {"start": 0, "pivot": 0, "negative pivot": 0}
    init, pivot = ratlp._Simplex.__init__, ratlp._Simplex._pivot

    def checked_init(sx, lp):
        init(sx, lp)
        sx.rhs = [-lp.objective.get(c, 0) for c in lp.columns]
        assert_fraction_free(sx)
        seen["start"] += 1

    def checked_pivot(sx, leave, enter, u):
        seen["negative pivot"] += u[leave] < 0
        pivot(sx, leave, enter, u)
        assert_fraction_free(sx)
        seen["pivot"] += 1

    monkeypatch.setattr(ratlp._Simplex, "__init__", checked_init)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    solve(lp_y_above_x())
    rng = random.Random(1968)
    for dens in (None, (1, 2, 3, 4)):
        for _ in range(30):
            outcome(canonical(random_lp(rng, max_cols=6, max_rows=8, dens=dens))[0])
    for _ in incremental_runs(rng, 8, dens=(1, 2, 3)):
        pass
    assert min(seen.values()) > 0, seen


def dense_pivot(M, xb, d, leave, u):
    """The Bareiss step on copies of M and xb, every touched row rebuilt
    over the union of its keys and the pivot row's, as _pivot made it on
    every pivot before it kept D in place: the new (M, xb, D)."""
    M, xb = [dict(row) for row in M], list(xb)
    lrow, lx = M[leave], xb[leave]
    p = u[leave]
    if p < 0:
        p = -p
        u = [-f for f in u]
        M[leave] = {k: -a for k, a in lrow.items()}
        xb[leave] = -lx
    lkeys = lrow.keys()
    for i, f in enumerate(u):
        if i == leave:
            continue
        if f:
            row = M[i]
            M[i] = {k: a // d for k in row.keys() | lkeys
                    if (a := p * row.get(k, 0) - f * lrow.get(k, 0))}
            xb[i] = (p * xb[i] - f * lx) // d
        elif p != d:
            M[i] = {k: p * a // d for k, a in M[i].items()}
            xb[i] = p * xb[i] // d
    return M, xb, p


def test_pivots_match_the_dense_step(monkeypatch):
    # the in-place step against the dense one it replaces: after every
    # pivot, M, xb and D equal the dense step's on a copy made before it,
    # on the LPs of test_answers_are_pinned, integer and fractional
    # incremental runs, and the -1 drive-out pivot of y_above_x.  One
    # negative pivot of the pinned LPs moves other rows, which must read
    # the pivot row as it was before its negation
    seen = {"kept": 0, "moved": 0, "negative": 0, "negative, rows moved": 0}
    pivot = ratlp._Simplex._pivot

    def checked_pivot(sx, leave, enter, u):
        want = dense_pivot(sx.M, sx.xb, sx.D, leave, u)
        d = sx.D
        pivot(sx, leave, enter, u)
        assert (sx.M, sx.xb, sx.D) == want
        seen["kept" if sx.D == d else "moved"] += 1
        if u[leave] < 0:
            seen["negative"] += 1
            seen["negative, rows moved"] += any(u[:leave] + u[leave + 1 :])

    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    assert solve(lp_y_above_x()).value == 1
    assert seen["negative"] == 1
    rng = random.Random(20260418)
    for _ in range(300):
        outcome(canonical(random_lp(rng))[0])
    for _ in incremental_runs(random.Random(4711), 40):
        pass
    for _ in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        pass
    assert seen["kept"] > 300 and seen["moved"] > 1000, seen
    assert seen["negative, rows moved"] == 1, seen


def test_carried_duals_match_fresh_duals(monkeypatch):
    # the fast path against the slow one: at every pricing step, the y
    # that run carried through its pivots equals cost_B·M computed afresh,
    # on the LPs of test_answers_are_pinned, on integer and fractional
    # incremental runs and after an artificial driven out on a -1 pivot.
    # Each run prices once on a fresh y, then, after each pivot, reprices
    # its candidates and makes a major pass when none of them improves.
    seen = {"runs": 0, "priced": 0}
    run, price = ratlp._Simplex.run, ratlp._Simplex._price

    def counted_run(sx, cost, ban_art):
        seen["runs"] += 1
        return run(sx, cost, ban_art)

    def checked_price(sx, cost, y, ban_art, scan, batch):
        assert y == sx._duals(cost)
        seen["priced"] += 1
        return price(sx, cost, y, ban_art, scan, batch)

    monkeypatch.setattr(ratlp._Simplex, "run", counted_run)
    monkeypatch.setattr(ratlp._Simplex, "_price", checked_price)
    rng = random.Random(20260418)
    for _ in range(300):
        outcome(canonical(random_lp(rng))[0])
    for _ in incremental_runs(random.Random(4711), 40):
        pass
    for _ in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        pass
    assert solve(lp_y_above_x()).value == 1
    assert seen["priced"] - seen["runs"] > 1000, seen


def test_candidate_pricing_matches_full_pricing(monkeypatch):
    # the candidate list against pricing every column from cost_B·M
    # computed afresh: inside a run each entering column has a negative
    # reduced cost, and at each "optimal" return no eligible nonbasic
    # column has one, on the LPs of test_answers_are_pinned, integer and
    # fractional incremental runs, the (4,3,3) bound LPs and y_above_x
    running = []  # (cost, ban_art) of the run in progress
    seen = {"entered": 0, "optimal": 0}
    run, pivot = ratlp._Simplex.run, ratlp._Simplex._pivot

    def reduced_cost(sx, cost, y, j):
        return cost[j] * sx.D - sum(y[i] * v for i, v in sx.cols[j])

    def checked_run(sx, cost, ban_art):
        running.append((cost, ban_art))
        status = run(sx, cost, ban_art)
        running.pop()
        if status == "optimal":
            y = sx._duals(cost)
            for j in range(len(sx.cols)):
                if j not in sx.basis_set and not (ban_art and sx.is_art[j]):
                    assert reduced_cost(sx, cost, y, j) >= 0
            seen["optimal"] += 1
        return status

    def checked_pivot(sx, leave, enter, u):
        if running:
            cost, _ = running[-1]
            assert reduced_cost(sx, cost, sx._duals(cost), enter) < 0
            seen["entered"] += 1
        return pivot(sx, leave, enter, u)

    monkeypatch.setattr(ratlp._Simplex, "run", checked_run)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    rng = random.Random(20260418)
    for _ in range(300):
        outcome(canonical(random_lp(rng))[0])
    for _ in incremental_runs(random.Random(4711), 40):
        pass
    for _ in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        pass
    for lp in bound_lps_433():
        solve(lp)
    assert solve(lp_y_above_x()).value == 1
    assert seen["entered"] > 1000 and seen["optimal"] > 500, seen


# -- lexicographic ratio ties ---------------------------------------------


def bound_lps_433():
    """The five (4,3,3) depth-1 bound LPs that the benchmark's prove
    workload solves."""
    u = build_universe(4, 3)
    fam = default_family(u, depth=1)
    rows = pool_rows(u, fam)
    return [build_lp(u, fam, d, rows) for d in ((1, 0), (2, 1), (4, 6), (1, 3), (0, 1))]


def lex_positive(sx, anchor):
    """xb >= 0, and every row with xb[r] = 0 leads, read in increasing
    position s of the anchor basis, with a positive entry of M·B_a, where
    column s of B_a is column anchor[s] of the standard form."""
    cols = [sx.cols[j] for j in anchor]
    for x, row in zip(sx.xb, sx.M):
        lead = next(v for col in cols if (v := sum(row.get(i, 0) * a for i, a in col)))
        if x < 0 or x == 0 and lead < 0:
            return False
    return True


def bland_reference(lp):
    """(status, value) of a one-form LP from a dense two-phase primal
    tableau in fractions with Bland's rule (Bland 1977): the lowest
    improving column enters, and ratio ties leave by the lowest basic
    column.  Short, slow and independent of ratlp."""
    n, m = len(lp.columns), len(lp.rows)
    # row i is a_i·x - s_i = -const_i over the columns x, s and one
    # artificial per row with const_i < 0, which starts on it; any other
    # row is negated and starts on its slack
    arts = [i for i, r in enumerate(lp.rows) if r.const < 0]
    tab, basis = [], []
    for i, r in enumerate(lp.rows):
        sign = 1 if r.const < 0 else -1
        row = [F(sign * r.coeffs.get(c, 0)) for c in lp.columns]
        row += [F(-sign * (j == i)) for j in range(m)] + [F(j == i) for j in arts]
        tab.append(row + [F(-sign * r.const)])
        basis.append(n + m + arts.index(i) if r.const < 0 else n + i)

    def pivot(leave, enter):
        tab[leave] = [v / tab[leave][enter] for v in tab[leave]]
        for i, t in enumerate(tab):
            if i != leave and t[enter]:
                tab[i] = [a - t[enter] * b for a, b in zip(t, tab[leave])]
        basis[leave] = enter

    def run(cost):
        """The least value of cost, or None when it is unbounded below."""
        z = cost + [F(0)]  # reduced costs, then minus the value
        for b, t in zip(basis, tab):
            z = [a - z[b] * v for a, v in zip(z, t)]
        while True:
            enter = next((j for j, rc in enumerate(z[:-1]) if rc < 0), None)
            if enter is None:
                return -z[-1]
            rows = [i for i, t in enumerate(tab) if t[enter] > 0]
            if not rows:
                return None
            leave = min(rows, key=lambda i: (tab[i][-1] / tab[i][enter], basis[i]))
            pivot(leave, enter)
            z = [a - z[enter] * v for a, v in zip(z, tab[leave])]

    if arts:
        if run([F(0)] * (n + m) + [F(1)] * len(arts)):
            return "infeasible", None
        for i, t in enumerate(tab):  # artificials at zero leave on any entry
            if basis[i] >= n + m:
                j = next((j for j in range(n + m) if t[j]), None)
                if j is not None:
                    pivot(i, j)
        # a row still on its artificial is zero on x and s: drop it, and
        # every artificial column
        keep = [i for i, b in enumerate(basis) if b < n + m]
        tab[:] = [tab[i][: n + m] + tab[i][-1:] for i in keep]
        basis[:] = [basis[i] for i in keep]
    value = run([F(lp.objective.get(c, 0)) for c in lp.columns] + [F(0)] * m)
    return ("unbounded", None) if value is None else ("optimal", value)


def active_sets(lp):
    """The active sets that the vertex oracle of a GeneralLP enumerates."""
    cons = len(lp.rows) + sum(r.rel == "=" for r in lp.rows) + 2 * len(lp.columns)
    return math.comb(cons, len(lp.columns))


def test_lexicographic_ties_match_lowest_index_ties(monkeypatch):
    # the one tie rule against references that do not share it, on the
    # LPs of test_answers_are_pinned, the fractional LPs of
    # test_fractional_lps_match_vertex_oracle and the (4,3,3) bound LPs.
    # Every random LP gives the value of bland_reference, whose ratio
    # ties go to the lowest basic index, or a message that agrees with
    # its status, and the same against the vertex oracle
    # where that enumerates at most 100 active sets (89 of the 340; the
    # others need up to 735,471).  The bound LPs give the values of
    # Tian's (4,3,3) region, in which 3α, 2α+β, 4α+6β and α+3β are at
    # least 1, 1, 3 and 1, and β is at least 0
    rng = random.Random(20260418)
    general = [random_lp(rng) for _ in range(300)]
    rng = random.Random(2718)
    general += [random_lp(rng, max_cols=4, max_rows=6, dens=(1, 2, 3, 4, 6)) for _ in range(40)]
    ties = []
    lex_less = ratlp._Simplex._lex_less

    def counted(sx, r, l, ur, ul):
        ties.append(r)
        return lex_less(sx, r, l, ur, ul)

    monkeypatch.setattr(ratlp._Simplex, "_lex_less", counted)
    oracle = 0
    for lp in general:
        one_form, back = canonical(lp)
        sol = outcome(one_form)
        status, value = bland_reference(one_form)
        if isinstance(sol, str):
            assert status in MEANS[sol]
        else:
            assert (status, value) == ("optimal", sol.value)
            assert check_duals(one_form, sol)
        if active_sets(lp) <= 100:
            assert_matches_vertex_oracle(lp, back(sol))
            oracle += 1
    assert oracle == 89
    values = [solve(lp).value for lp in bound_lps_433()]
    assert values == [F(1, 3), 1, 3, 1, 0]
    assert len(ties) > 500


def test_lexicographic_runs_keep_rows_positive(monkeypatch):
    # checked at the start of every run and after every pivot of a run:
    # xb >= 0, and every row at zero leads with a positive entry of M·B_a
    # for the anchor basis B_a.  The anchor is the starting basis, and the
    # basis after drive_out_artificials has pivoted: y_above_x drives its
    # artificial out on a -1 pivot, which is positive at the new anchor.
    # An incremental solver keeps its anchor across appended rows
    anchors = {}  # id of a simplex -> (anchor basis, whether re-anchored)
    driving = []
    seen = {"runs": 0, "re-anchored runs": 0, "pivots": 0, "re-anchored pivots": 0}
    init, run, pivot = ratlp._Simplex.__init__, ratlp._Simplex.run, ratlp._Simplex._pivot
    drive_out = ratlp._Simplex.drive_out_artificials

    def anchored_init(sx, lp):
        init(sx, lp)
        anchors[id(sx)] = (list(sx.basis), False)

    def re_anchored(sx):
        pivots = sx.pivots
        driving.append(sx)
        drive_out(sx)
        driving.pop()
        if sx.pivots != pivots:
            anchors[id(sx)] = (list(sx.basis), True)

    def checked_run(sx, cost, ban_art):
        anchor, moved = anchors[id(sx)]
        assert lex_positive(sx, anchor)
        seen["re-anchored runs" if moved else "runs"] += 1
        return run(sx, cost, ban_art)

    def checked_pivot(sx, leave, enter, u):
        pivot(sx, leave, enter, u)
        assert min(sx.xb) >= 0
        if not driving:
            anchor, moved = anchors[id(sx)]
            assert lex_positive(sx, anchor)
            seen["re-anchored pivots" if moved else "pivots"] += 1

    monkeypatch.setattr(ratlp._Simplex, "__init__", anchored_init)
    monkeypatch.setattr(ratlp._Simplex, "drive_out_artificials", re_anchored)
    monkeypatch.setattr(ratlp._Simplex, "run", checked_run)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    assert solve(lp_y_above_x()).value == 1
    assert (seen["runs"], seen["re-anchored runs"]) == (1, 1)
    rng = random.Random(20260418)
    for _ in range(300):
        outcome(canonical(random_lp(rng))[0])
    rng = random.Random(1968)
    for dens in (None, (1, 2, 3, 4)):
        for _ in range(30):
            outcome(canonical(random_lp(rng, max_cols=6, max_rows=8, dens=dens))[0])
    for _ in incremental_runs(rng, 8, dens=(1, 2, 3)):
        pass
    for lp in bound_lps_433():
        solve(lp)
    assert min(seen.values()) > 0, seen


def test_bound_lps_take_few_pivots(monkeypatch):
    # a work count in place of a timing, bounded here with a margin of
    # about 10%: lexicographic ratio ties and multiple pricing make the
    # five (4,3,3) bound LPs take 297 pivots in all (43, 43, 78, 80 and
    # 53), where lowest-index ties took 563, and the unseeded depth-1
    # (5,4,4) bound LP of 3,326 rows take 148 pivots in direction 15,10,
    # where lowest-index ties took 356
    pivots = []
    pivot = ratlp._Simplex._pivot

    def counted(sx, leave, enter, u):
        pivots.append(leave)
        return pivot(sx, leave, enter, u)

    monkeypatch.setattr(ratlp._Simplex, "_pivot", counted)
    for lp in bound_lps_433():
        solve(lp)
    assert len(pivots) <= 330
    u = build_universe(5, 4)
    fam = default_family(u, depth=1)
    lp = build_lp(u, fam, (15, 10))
    assert len(lp.rows) == 3326
    pivots.clear()
    assert solve(lp).value == F(65, 11)
    assert len(pivots) <= 160


def test_solve_logs_deterministic_counters(caplog):
    lp = lp_min_x_above_one()
    with caplog.at_level(logging.DEBUG, logger="repairbound.ratlp"):
        solve(lp)
        solver = IncrementalDualSolver(["x"], {"x": 1}, lp.rows)
        solver.solve()
        # a free column x = x+ - x- makes a negative objective value, so
        # phase 1 pivots
        rows = [Row({"x": 1}, -1), Row({"x": 1, "y": 1}, -3)]
        free, _ = canonical(GeneralLP(["x", "y"], {"x": 1, "y": 2}, rows, {"y"}))
        solver = IncrementalDualSolver(free.columns, free.objective, free.rows)
        solver.solve()
    assert [r.getMessage() for r in caplog.records] == [
        "solve (dual): 1 rows, 1 columns, 1 pivots (0 degenerate), "
        "2 reduced costs, determinant bits 1",
        "incremental phase 1 (dual): 1 rows, 1 columns, 0 pivots (0 degenerate), "
        "0 reduced costs, determinant bits 1",
        "incremental solve (dual): 1 rows, 1 columns, 1 pivots (0 degenerate), "
        "2 reduced costs, determinant bits 1",
        "incremental phase 1 (dual): 2 rows, 3 columns, 1 pivots (0 degenerate), "
        "7 reduced costs, determinant bits 1",
        "incremental solve (dual): 2 rows, 3 columns, 2 pivots (1 degenerate), "
        "5 reduced costs, determinant bits 1",
    ]
