import itertools
import random
from fractions import Fraction

import pytest

from repairbound.ratlp import (
    LPError,
    LPProblem,
    LPRow,
    LPSolution,
    check_duals,
    dualize,
    solve,
)

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


def test_validation_errors():
    with pytest.raises(LPError):
        solve(LPProblem(["x", "x"], {}, [], set()))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {"z": F(1)}, [], set()))
    with pytest.raises(LPError):
        solve(LPProblem(["x"], {}, [LPRow({"x": F(1)}, F(0), "<=")], set()))


def test_forced_dual_orientation_matches_primal():
    lp = LPProblem(
        ["x", "y"],
        {"x": F(2), "y": F(3)},
        [
            LPRow({"x": F(1), "y": F(1)}, F(-2)),
            LPRow({"x": F(3), "y": F(1)}, F(-3)),
            LPRow({"x": F(1)}, F(0)),
        ],
        {"x", "y"},
    )
    a = solve(lp, orientation="primal")
    b = solve(lp, orientation="dual")
    assert a.status == b.status == "optimal"
    assert a.value == b.value
    assert check_duals(lp, a) and check_duals(lp, b)


def test_determinism_bytes():
    lp = LPProblem(
        ["x", "y"],
        {"x": F(1), "y": F(2)},
        [LPRow({"x": F(1), "y": F(1)}, F(-1)), LPRow({"x": F(-1), "y": F(2)}, F(1))],
        {"x", "y"},
    )
    assert repr(solve(lp)) == repr(solve(lp))


# -- randomized cross-checks ----------------------------------------------


def random_lp(rng, max_cols=8, max_rows=12):
    ncols = rng.randrange(1, max_cols + 1)
    nrows = rng.randrange(0, max_rows + 1)
    cols = [f"c{i}" for i in range(ncols)]
    nonneg = {c for c in cols if rng.random() < 0.8}
    objective = {
        c: F(rng.randrange(-4, 5)) for c in cols if rng.random() < 0.8
    }
    rows = []
    for _ in range(nrows):
        coeffs = {
            c: F(rng.randrange(-4, 5)) for c in cols if rng.random() < 0.7
        }
        coeffs = {c: v for c, v in coeffs.items() if v}
        rel = "=" if rng.random() < 0.25 else ">="
        rows.append(LPRow(coeffs, F(rng.randrange(-4, 5)), rel))
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
        # dual orientation must agree on status and value
        alt = solve(lp, orientation="dual")
        assert alt.status == sol.status
        if sol.status == "optimal":
            assert alt.value == sol.value
    assert statuses == {"optimal", "unbounded", "infeasible"}


def test_random_lps_match_vertex_oracle():
    rng = random.Random(987)
    checked = 0
    for _ in range(40):
        lp = random_lp(rng, max_cols=4, max_rows=6)
        sol = solve(lp)
        small = brute_force_box_min(lp, 10**3)
        big = brute_force_box_min(lp, 10**9)
        if sol.status == "infeasible":
            assert big is None
        elif sol.status == "unbounded":
            assert big is not None and big < small
        else:
            assert big == sol.value
            checked += 1
    assert checked >= 5


def test_dualize_round_trip_value():
    rng = random.Random(55)
    for _ in range(30):
        lp = random_lp(rng, max_cols=4, max_rows=5)
        sol = solve(lp, orientation="primal")
        if sol.status != "optimal":
            continue
        ds = solve(dualize(lp), orientation="primal")
        assert ds.status == "optimal"
        assert ds.value == -sol.value
