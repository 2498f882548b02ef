import hashlib
import itertools
import logging
import math
import random
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


def lp_min_x_above_one():
    return LPProblem(["x"], {"x": F(1)}, [LPRow({"x": F(1)}, F(-1))], {"x"})


def test_min_x_above_one():
    sol = solve(lp_min_x_above_one())
    assert sol.status == "optimal"
    assert sol.value == 1
    assert sol.primal["x"] == 1
    assert sol.duals == [1]


def test_unbounded_below():
    lp = LPProblem(["x"], {"x": F(-1)}, [], {"x"})
    assert solve(lp).status == "unbounded"


def test_infeasible():
    lp = LPProblem(
        ["x"],
        {"x": F(1)},
        [LPRow({"x": F(1)}, F(-1)), LPRow({"x": F(-1)})],
        {"x"},
    )
    assert solve(lp).status == "infeasible"


def test_equality_rows_and_free_columns():
    # min x + y  s.t.  x + y = 3, x - y >= -5, y free
    lp = LPProblem(
        ["x", "y"],
        {"x": F(1), "y": F(1)},
        [LPRow({"x": F(1), "y": F(1)}, F(-3), "="), LPRow({"x": F(1), "y": F(-1)}, F(5))],
        {"x"},
    )
    sol = solve(lp)
    assert sol.status == "optimal"
    assert sol.value == 3
    assert check_duals(lp, sol)


def test_check_duals_rejects_tampering():
    lp = lp_min_x_above_one()
    sol = solve(lp)
    assert check_duals(lp, sol)
    bad = LPSolution(sol.status, sol.value, sol.primal, [-d for d in sol.duals])
    assert not check_duals(lp, bad)
    scaled = LPSolution(sol.status, sol.value, sol.primal, [2 * d for d in sol.duals])
    assert not check_duals(lp, scaled)
    wrong_value = LPSolution(sol.status, sol.value + 1, sol.primal, sol.duals)
    assert not check_duals(lp, wrong_value)


def test_check_duals_rejects_a_free_column_imbalance():
    # min x  s.t.  x >= 1, -y >= 0, y free: raising the second multiplier
    # keeps every row, sign and the objective balance intact, and leaves
    # y with reduced cost +1, which only a free column rejects
    rows = [LPRow({"x": F(1)}, F(-1)), LPRow({"y": F(-1)})]
    lp = LPProblem(["x", "y"], {"x": F(1)}, rows, {"x"})
    sol = solve(lp)
    assert check_duals(lp, sol) and sol.duals == [1, 0]
    tampered = LPSolution(sol.status, sol.value, sol.primal, [F(1), F(1)])
    assert not check_duals(lp, tampered)
    assert check_duals(LPProblem(["x", "y"], {"x": F(1)}, rows, {"x", "y"}), tampered)


def test_validation_errors():
    with pytest.raises(LPError):
        solve(LPProblem(["x", "x"], {}, [], set()))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {"z": F(1)}, [], set()))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {}, [LPRow({"x": F(1)}, F(0), "<=")], set()))


@pytest.mark.parametrize("bad", [1.5, "1"])
def test_non_rational_input_is_rejected(bad):
    # no float or str is silently converted: each position raises LPError
    row = LPRow({"x": 1}, -1)
    for lp in (
        LPProblem(["x"], {"x": bad}, [row], {"x"}),
        LPProblem(["x"], {"x": 1}, [LPRow({"x": bad}, -1)], {"x"}),
        LPProblem(["x"], {"x": 1}, [LPRow({"x": 1}, bad)], {"x"}),
    ):
        with pytest.raises(LPError, match="not rational"):
            solve(lp)
        with pytest.raises(LPError, match="not rational"):
            IncrementalDualSolver(lp.columns, lp.objective, lp.rows, lp.nonneg)
    solver = IncrementalDualSolver(["x"], {"x": 1}, [LPRow({"x": -1}, 1)], {"x"})
    for appended in (LPRow({"x": bad}), LPRow({"x": 1}, bad), LPRow({"x": 1}, 0.0)):
        with pytest.raises(LPError):
            solver.add_rows([appended])
    assert solver.solve().value == 0


def test_determinism_bytes():
    lp = LPProblem(
        ["x", "y"],
        {"x": F(1), "y": F(2)},
        [LPRow({"x": F(1), "y": F(1)}, F(-1)), LPRow({"x": F(-1), "y": F(2)}, F(1))],
        {"x", "y"},
    )
    assert repr(solve(lp)) == repr(solve(lp))


# -- randomized cross-checks ----------------------------------------------


def random_value(rng, lo, hi, dens=None):
    """An integer in [lo, hi), over a denominator drawn from dens if given."""
    v = F(rng.randrange(lo, hi))
    return v if dens is None else v / rng.choice(dens)


def random_lp(rng, max_cols=8, max_rows=12, dens=None):
    ncols = rng.randrange(1, max_cols + 1)
    nrows = rng.randrange(0, max_rows + 1)
    cols = [f"c{i}" for i in range(ncols)]
    nonneg = {c for c in cols if rng.random() < 0.8}
    objective = {
        c: random_value(rng, -4, 5, dens) for c in cols if rng.random() < 0.8
    }
    rows = []
    for _ in range(nrows):
        coeffs = {
            c: random_value(rng, -4, 5, dens) for c in cols if rng.random() < 0.7
        }
        coeffs = {c: v for c, v in coeffs.items() if v}
        rel = "=" if rng.random() < 0.25 else ">="
        rows.append(LPRow(coeffs, random_value(rng, -4, 5, dens), rel))
    return LPProblem(cols, objective, rows, nonneg)


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
    statuses = set()
    for _ in range(100):
        lp = random_lp(rng)
        sol = solve(lp)
        statuses.add(sol.status)
        if sol.status == "optimal":
            assert check_duals(lp, sol)
    assert statuses == {"optimal", "unbounded", "infeasible"}


def assert_matches_vertex_oracle(lp, *sols):
    """Every answer agrees with vertex enumeration; True when optimal."""
    small = brute_force_box_min(lp, 10**3)
    big = brute_force_box_min(lp, 10**9)
    for sol in sols:
        if sol.status == "infeasible":
            assert big is None
        elif sol.status == "unbounded":
            assert big is not None and big < small
        else:
            assert big == sol.value
    return sols[0].status == "optimal"


def test_random_lps_match_vertex_oracle():
    rng = random.Random(987)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_cols=4, max_rows=6)
        checked += assert_matches_vertex_oracle(lp, solve(lp))
    assert checked >= 5


def test_fractional_lps_match_vertex_oracle():
    # rows are scaled to integers once, by the lcm of their denominators
    rng = random.Random(2718)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_cols=4, max_rows=6, dens=(1, 2, 3, 4, 6))
        sol = solve(lp)
        assert sol.status != "optimal" or check_duals(lp, sol)
        checked += assert_matches_vertex_oracle(lp, sol)
    assert checked >= 5


def test_answers_are_pinned():
    # sha256 over the repr of every answer: a change of any pivot or of
    # any rational read back moves it
    rng = random.Random(20260418)
    digest = hashlib.sha256()
    for _ in range(300):
        lp = random_lp(rng)
        digest.update(repr(solve(lp)).encode() + b"\n")
    assert digest.hexdigest() == (
        "928cacfa5e39bbaedc3ba324ada99ed3d81f8a37ab5f55e935931cd522114d85"
    )


def test_simplex_starts_from_a_positive_basis():
    # every starting basic column, slack or artificial, is +rscale[p] in
    # its own row p, so M starts positive diagonal and lexicographic
    # ties compare rows of M with no start signs
    rng = random.Random(20260418)
    for _ in range(300):
        sx = ratlp._Simplex(random_lp(rng))
        assert [sx.cols[j] for j in sx.basis] == [[(p, s)] for p, s in enumerate(sx.rscale)]


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
        LPRow(rowcoeffs[col], lp.objective.get(col, 0), ">=" if col in lp.nonneg else "=")
        for col in lp.columns
    ]
    return LPProblem(cols, objective, rows, nonneg)


def test_dualize_round_trip_value():
    rng = random.Random(55)
    for _ in range(30):
        lp = random_lp(rng, max_cols=4, max_rows=5)
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        ds = solve(dualize(lp))
        assert ds.status == "optimal"
        assert ds.value == -sol.value


def reference_check_duals(lp, sol):
    # the slow path: one Fraction per coefficient, as check_duals was
    # before it cleared denominators
    if sol.status != "optimal" or sol.value is None:
        return False
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
    # verdict from the integer check and the Fraction one
    rng = random.Random(8128)
    verdicts = {"true": set(), "dual": set(), "primal": set(), "free column": set()}
    for i in range(300):
        lp = random_lp(rng, dens=None if i % 2 else (1, 2, 3, 4, 6))
        sol = solve(lp)
        if sol.status != "optimal":
            continue
        delta = F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
        cases = [("true", lp, sol)]
        if sol.duals:
            duals = list(sol.duals)
            duals[rng.randrange(len(duals))] += delta
            cases.append(("dual", lp, LPSolution(sol.status, sol.value, sol.primal, duals)))
        primal = dict(sol.primal)
        primal[rng.choice(lp.columns)] += delta
        cases.append(("primal", lp, LPSolution(sol.status, sol.value, primal, sol.duals)))
        # a new free column z at zero in one row with a nonzero multiplier:
        # every row, sign and objective value still holds, and only z's
        # reduced cost -lambda is off
        support = [j for j, lam in enumerate(sol.duals) if lam]
        if support:
            j = rng.choice(support)
            rows = list(lp.rows)
            rows[j] = LPRow({**rows[j].coeffs, "z": delta}, rows[j].const, rows[j].rel)
            wide = LPProblem(lp.columns + ["z"], lp.objective, rows, lp.nonneg)
            cases.append(("free column", wide, sol))
        for kind, problem, answer in cases:
            verdict = check_duals(problem, answer)
            assert verdict == reference_check_duals(problem, answer), (i, kind)
            verdicts[kind].add(verdict)
    assert verdicts["true"] == {True} and verdicts["free column"] == {False}
    assert verdicts["dual"] == verdicts["primal"] == {True, False}


def integral(row):
    """A homogeneous row scaled by the lcm of its denominators."""
    scale = math.lcm(*(F(v).denominator for v in row.coeffs.values()))
    return LPRow({c: v * scale for c, v in row.coeffs.items()}, row.const, row.rel)


def incremental_runs(rng, count, dens=None):
    """Verifier-shaped problems: the box 0 <= x <= 1 plus random
    homogeneous rows, appended in batches.  Fractional data stays in the
    objective and the constructor rows; appended rows are scaled to
    integers.  Every stage's answer is certified against the rows given
    so far; yields the last answer and a cold solve of the whole problem."""
    for _ in range(count):
        cols = [f"c{i}" for i in range(rng.randrange(2, 7))]
        objective = {c: random_value(rng, -4, 5, dens) for c in cols}
        box = [LPRow({c: F(-1)}, F(1)) for c in cols]
        rows = [
            LPRow({c: random_value(rng, -3, 4, dens) for c in cols if rng.random() < 0.6})
            for _ in range(rng.randrange(1, 16))
        ]
        done = rng.randrange(0, len(rows) + 1)
        rows[done:] = map(integral, rows[done:])
        solver = IncrementalDualSolver(cols, objective, box + rows[:done], set(cols))
        while True:
            sol = solver.solve()
            assert check_duals(LPProblem(cols, objective, box + rows[:done], set(cols)), sol)
            if done == len(rows):
                break
            step = rng.randrange(1, 5)
            solver.add_rows(rows[done : done + step])
            done = min(done + step, len(rows))
        yield sol, solve(LPProblem(cols, objective, box + rows, set(cols)))


def test_incremental_solver_matches_cold_dual_solve():
    zero_optimum = set()
    for sol, cold in incremental_runs(random.Random(4711), 40):
        assert (sol.status, sol.value) == (cold.status, cold.value)
        zero_optimum.add(sol.value == 0)
    # x = 0 is always feasible: the sample holds both a zero optimum (a
    # cone witness exists) and a negative one
    assert zero_optimum == {True, False}


def test_incremental_solver_with_fractional_rows():
    # an appended row becomes a column of the warm dual basis, so its
    # entries must be integers at the scale the dual rows already have;
    # a row that would need a larger scale is rejected and not appended
    box = [LPRow({"x": F(-1)}, F(1)), LPRow({"y": F(-1)}, F(1))]
    objective = {"x": F(1, 2), "y": F(-1)}
    solver = IncrementalDualSolver(["x", "y"], objective, box, {"x", "y"})
    assert solver.solve().value == -1
    with pytest.raises(LPError):
        solver.add_rows([LPRow({"x": F(1), "y": F(-1, 3)})])
    # a rejected batch appends none of its rows, the valid first one included
    with pytest.raises(LPError):
        solver.add_rows([LPRow({"x": F(1, 2), "y": F(-1)}), LPRow({"x": F(1), "y": F(-1, 3)})])
    assert solver.solve().value == -1
    solver.add_rows([LPRow({"x": F(1, 2), "y": F(-1)})])  # dual row x has scale 2
    sol = solver.solve()
    rows = box + [LPRow({"x": F(1, 2), "y": F(-1)})]
    assert check_duals(LPProblem(["x", "y"], objective, rows, {"x", "y"}), sol)
    assert sol.value == 0
    for sol, cold in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        assert (sol.status, sol.value) == (cold.status, cold.value)


def row_snapshot(rows):
    """Every row's coefficients in their order and type, its constant
    and relation."""
    return [repr((list(r.coeffs.items()), r.const, r.rel)) for r in rows]


def test_solvers_never_mutate_rows():
    # the prover's pool rows and the verifier's rung rows share their
    # coefficient dicts with the LP, so no solver may write to one
    rng = random.Random(606)
    for i in range(80):
        lp = random_lp(rng, dens=None if i % 2 else (1, 2, 3))
        before = row_snapshot(lp.rows)
        solve(lp)
        assert row_snapshot(lp.rows) == before, i
    lps = bound_lps_433()
    before = row_snapshot(lps[0].rows)
    for lp in lps:
        assert check_duals(lp, solve(lp))
    assert row_snapshot(lps[0].rows) == before
    for _ in range(20):
        cols = [f"c{i}" for i in range(rng.randrange(2, 7))]
        objective = {c: random_value(rng, -4, 5) for c in cols}
        rows = [LPRow({c: F(-1)}, F(1)) for c in cols] + [
            LPRow({c: random_value(rng, -3, 4) for c in cols if rng.random() < 0.6})
            for _ in range(rng.randrange(2, 16))
        ]
        before = row_snapshot(rows)
        solver = IncrementalDualSolver(cols, objective, rows[: len(cols) + 1], set(cols))
        solver.solve()
        for at in range(len(cols) + 1, len(rows), 3):
            solver.add_rows(rows[at : at + 3])
            solver.solve()
        assert row_snapshot(rows) == before


def test_pivot_counters_are_pinned(caplog):
    # sha256 over the DEBUG counter lines (pivots, degenerate pivots,
    # Bland switches, determinant bits) of the LPs of
    # test_answers_are_pinned and of cold and incremental runs: a change
    # of any pivot moves it even where the answers stay the same
    with caplog.at_level(logging.DEBUG, logger="repairbound.ratlp"):
        rng = random.Random(20260418)
        for _ in range(300):
            solve(random_lp(rng))
        for _ in incremental_runs(random.Random(4711), 6):
            pass
        for _ in incremental_runs(random.Random(4712), 6, dens=(1, 2, 3, 5)):
            pass
    lines = [r.getMessage() for r in caplog.records if r.name == "repairbound.ratlp"]
    assert len(lines) > 300
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "a70002311d88bae44a1ab6adbadf65ac3326105e7b604eb6c692bb4d2f043226"
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
        assert got == sx.D * sx.rsign[i] * sx.rscale[i] * sx.rhs[i]
    assert sx.D == abs(fraction_det(basis_cols))


def test_fraction_free_basis_invariant(monkeypatch):
    # checked at the start and after every pivot, on integer and
    # fractional data, cold and incrementally
    seen = {"start": 0, "pivot": 0, "negative pivot": 0}
    init, pivot = ratlp._Simplex.__init__, ratlp._Simplex._pivot

    def checked_init(sx, lp):
        init(sx, lp)
        sx.rhs = [-F(lp.objective.get(c, 0)) for c in lp.columns]
        assert_fraction_free(sx)
        seen["start"] += 1

    def checked_pivot(sx, leave, enter, u):
        seen["negative pivot"] += u[leave] < 0
        pivot(sx, leave, enter, u)
        assert_fraction_free(sx)
        seen["pivot"] += 1

    monkeypatch.setattr(ratlp._Simplex, "__init__", checked_init)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    # y is free with objective 0, so its dual row -y0 = 0 starts on an
    # artificial at zero, and driving it out pivots on -1
    above_one = LPRow({"x": F(1), "y": F(1)}, F(-1))
    solve(LPProblem(["x", "y"], {"x": F(1)}, [above_one], {"x"}))
    rng = random.Random(1968)
    for dens in (None, (1, 2, 3, 4)):
        for _ in range(30):
            solve(random_lp(rng, max_cols=6, max_rows=8, dens=dens))
    for _ in incremental_runs(rng, 8, dens=(1, 2, 3)):
        pass
    assert min(seen.values()) > 0, seen


def test_carried_duals_match_fresh_duals(monkeypatch):
    # the fast path against the slow one: at every pricing step, the y
    # that run carried through its pivots equals cost_B·M computed afresh,
    # on the LPs of test_answers_are_pinned, on integer and fractional
    # incremental runs and after an artificial driven out on a -1 pivot.
    # Each run prices once on a fresh y, then once after each pivot.
    seen = {"runs": 0, "priced": 0}
    run, price = ratlp._Simplex.run, ratlp._Simplex._price_partial

    def counted_run(sx, cost, ban_art):
        seen["runs"] += 1
        return run(sx, cost, ban_art)

    def checked_price(sx, cost, y, ban_art, start, batch):
        assert y == sx._duals(cost)
        seen["priced"] += 1
        return price(sx, cost, y, ban_art, start, batch)

    monkeypatch.setattr(ratlp._Simplex, "run", counted_run)
    monkeypatch.setattr(ratlp._Simplex, "_price_partial", checked_price)
    rng = random.Random(20260418)
    for _ in range(300):
        solve(random_lp(rng))
    for _ in incremental_runs(random.Random(4711), 40):
        pass
    for _ in incremental_runs(random.Random(4712), 30, dens=(1, 2, 3, 5)):
        pass
    above_one = LPRow({"x": F(1), "y": F(1)}, F(-1))
    assert solve(LPProblem(["x", "y"], {"x": F(1)}, [above_one], {"x"})).value == 0
    assert seen["priced"] - seen["runs"] > 1000, seen


# -- lexicographic ratio ties ---------------------------------------------


def bound_lps_433():
    """The five (4,3,3) depth-1 bound LPs that the benchmark's prove
    workload solves."""
    u = build_universe(4, 3)
    fam = default_family(u, depth=1)
    rows = pool_rows(u, fam)
    return [build_lp(u, fam, d, rows) for d in ((1, 0), (2, 1), (4, 6), (1, 3), (0, 1))]


def lex_positive(sx):
    """xb >= 0, and every row with xb[r] = 0 leads, read in increasing k,
    with a positive M[r][k]."""
    for x, row in zip(sx.xb, sx.M):
        k = min(row)
        if x < 0 or x == 0 and row[k] < 0:
            return False
    return True


def test_lexicographic_ties_match_lowest_index_ties(monkeypatch):
    # the fast path against the slow one: with lexicographic ratio ties
    # and with every run forced onto lowest-index ties (and their Bland
    # interlude), solve gives the same status and value, and both answers
    # pass check_duals, on the LPs of test_answers_are_pinned, the
    # fractional LPs of test_fractional_lps_match_vertex_oracle and the
    # (4,3,3) bound LPs
    rng = random.Random(20260418)
    lps = [random_lp(rng) for _ in range(300)]
    rng = random.Random(2718)
    lps += [random_lp(rng, max_cols=4, max_rows=6, dens=(1, 2, 3, 4, 6)) for _ in range(40)]
    lps += bound_lps_433()
    ties = []
    lex_less = ratlp._Simplex._lex_less

    def counted(sx, r, l, ur, ul):
        ties.append(r)
        return lex_less(sx, r, l, ur, ul)

    monkeypatch.setattr(ratlp._Simplex, "_lex_less", counted)
    fast = [solve(lp) for lp in lps]
    init = ratlp._Simplex.__init__

    def lowest_index(sx, lp):
        init(sx, lp)
        sx.lex = False

    monkeypatch.setattr(ratlp._Simplex, "__init__", lowest_index)
    ties_before = len(ties)
    slow = [solve(lp) for lp in lps]
    assert len(ties) == ties_before > 500
    for lp, a, b in zip(lps, fast, slow):
        assert (a.status, a.value) == (b.status, b.value)
        if a.status == "optimal":
            assert check_duals(lp, a) and check_duals(lp, b)
    # the two rules reach different optimal answers on five of the LPs,
    # four of them bound LPs
    assert sum(repr(a) != repr(b) for a, b in zip(fast, slow)) > 0


def test_lexicographic_runs_keep_rows_positive(monkeypatch):
    # checked at the start of every run and after every pivot: xb >= 0
    # always, and in a lexicographic run every row at zero leads with a
    # positive entry of M.  Runs after an artificial was driven out
    # fall back to lowest-index ties: above_one drives its artificial out
    # on a -1 pivot, and its phase 2 starts without the invariant
    starts = []
    seen = {"lex pivot": 0, "fallback pivot": 0}
    run, pivot = ratlp._Simplex.run, ratlp._Simplex._pivot

    def checked_run(sx, cost, ban_art):
        starts.append((sx.lex, lex_positive(sx)))
        return run(sx, cost, ban_art)

    def checked_pivot(sx, leave, enter, u):
        pivot(sx, leave, enter, u)
        assert min(sx.xb) >= 0
        if sx.lex:
            assert lex_positive(sx)
        seen["lex pivot" if sx.lex else "fallback pivot"] += 1

    monkeypatch.setattr(ratlp._Simplex, "run", checked_run)
    monkeypatch.setattr(ratlp._Simplex, "_pivot", checked_pivot)
    above_one = LPRow({"x": F(1), "y": F(1)}, F(-1))
    assert solve(LPProblem(["x", "y"], {"x": F(1)}, [above_one], {"x"})).value == 0
    assert starts == [(False, False)]
    rng = random.Random(1968)
    for dens in (None, (1, 2, 3, 4)):
        for _ in range(30):
            solve(random_lp(rng, max_cols=6, max_rows=8, dens=dens))
    for _ in incremental_runs(rng, 8, dens=(1, 2, 3)):
        pass
    for lp in bound_lps_433():
        solve(lp)
    assert all(ok for lex, ok in starts if lex)
    assert min(seen.values()) > 0, seen


def test_bound_lps_take_few_pivots(monkeypatch):
    # a work count in place of a timing, bounded here with a margin of
    # about 15-25%: lexicographic ratio ties make the five (4,3,3) bound
    # LPs take 290 pivots in all (37, 37, 79, 81 and 56), where
    # lowest-index ties took 563, and the unseeded depth-1 (5,4,4) bound
    # LP of 3,326 rows take 130 pivots in direction 15,10, where
    # lowest-index ties took 356
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
        solver = IncrementalDualSolver(["x"], {"x": F(1)}, lp.rows, {"x"})
        solver.solve()
        # a free column makes an equality dual row, so phase 1 pivots
        rows = [LPRow({"x": F(1)}, F(-1)), LPRow({"x": F(1), "y": F(1)}, F(-3))]
        solver = IncrementalDualSolver(["x", "y"], {"x": F(1), "y": F(2)}, rows, {"y"})
        solver.solve()
    assert [r.getMessage() for r in caplog.records] == [
        "solve (dual): 1 rows, 1 columns, 1 pivots (0 degenerate), "
        "0 Bland switches, determinant bits 1",
        "incremental phase 1 (dual): 1 rows, 1 columns, 0 pivots (0 degenerate), "
        "0 Bland switches, determinant bits 1",
        "incremental solve (dual): 1 rows, 1 columns, 1 pivots (0 degenerate), "
        "0 Bland switches, determinant bits 1",
        "incremental phase 1 (dual): 2 rows, 2 columns, 1 pivots (0 degenerate), "
        "0 Bland switches, determinant bits 1",
        "incremental solve (dual): 2 rows, 2 columns, 1 pivots (0 degenerate), "
        "0 Bland switches, determinant bits 1",
    ]


def test_zero_objective_probe_only_when_zero_is_infeasible(monkeypatch):
    phase1_calls = []
    phase1 = ratlp._phase1

    def counted(lp):
        phase1_calls.append(len(lp.rows))
        return phase1(lp)

    monkeypatch.setattr(ratlp, "_phase1", counted)

    def status_and_phase1_runs(lp):
        phase1_calls.clear()
        return solve(lp).status, len(phase1_calls)

    # cones hold x = 0, so an infeasible dual already means unbounded
    cone = LPProblem(
        ["x", "y", "z"],
        {"x": -1, "z": 1},
        [LPRow({"x": 1, "y": -1}), LPRow({"y": 1, "z": -1}, 0, "=")],
        {"x", "y", "z"},
    )
    assert status_and_phase1_runs(cone) == ("unbounded", 1)
    # x = 0 breaks a row: the probe still tells the two answers apart
    above_one = LPProblem(["x"], {"x": -1}, [LPRow({"x": 1}, -1)], {"x"})
    assert status_and_phase1_runs(above_one) == ("unbounded", 2)
    pinned = LPProblem(["x", "y"], {"y": -1}, [LPRow({"x": 1}, -1, "=")], {"x"})
    assert status_and_phase1_runs(pinned) == ("unbounded", 2)
    empty = LPProblem(
        ["x", "y"], {"x": -1}, [LPRow({"y": 1}, -1), LPRow({"y": -1})], {"x", "y"}
    )
    assert status_and_phase1_runs(empty) == ("infeasible", 2)
