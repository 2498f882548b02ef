import math
import random
from fractions import Fraction

import pytest

from repairbound import region as region_module
from repairbound.region import (
    DEFAULT_WINDOW,
    HalfPlane,
    Region2D,
    emit,
    from_halfplanes,
)

EXACT_54 = [(4, 0, 1), (3, 1, 1), (15, 10, 6), (5, 10, 3), (0, 10, 1)]
EXACT_54_VERTICES = (
    (Fraction(1, 4), Fraction(1, 4)),
    (Fraction(4, 15), Fraction(1, 5)),
    (Fraction(3, 10), Fraction(3, 20)),
    (Fraction(2, 5), Fraction(1, 10)),
)
CUTSET_54 = [(0, 10, 1), (1, 6, 1), (2, 3, 1), (3, 1, 1), (4, 0, 1)]


def contains(region: Region2D, alpha, beta) -> bool:
    a, b = Fraction(alpha), Fraction(beta)
    return all(h.holds(a, b) for h in region.halfplanes)


def test_halfplane_make_normalizes():
    assert HalfPlane.make(30, 20, 12) == HalfPlane(15, 10, 6)
    assert HalfPlane.make(Fraction(1, 2), 0, Fraction(1, 8)) == HalfPlane(4, 0, 1)
    assert HalfPlane.make(0, Fraction(1, 5), Fraction(1, 50)) == HalfPlane(0, 10, 1)


def test_halfplane_make_rejects_degenerate_and_wrong_quadrant():
    with pytest.raises(ValueError, match="degenerate"):
        HalfPlane.make(0, 0, 1)
    with pytest.raises(ValueError, match="first quadrant"):
        HalfPlane.make(-1, 2, 1)


def test_from_halfplanes_exact_region_vertices():
    region = from_halfplanes(EXACT_54)
    assert region.vertices == EXACT_54_VERTICES
    assert [(h.a, h.b, h.c) for h in region.halfplanes] == EXACT_54


def test_from_halfplanes_validates_region_shape():
    with pytest.raises(ValueError, match="c > 0"):
        from_halfplanes([(1, 1, 0)])
    with pytest.raises(ValueError):
        from_halfplanes([])


def test_redundant_plane_is_dropped():
    region = from_halfplanes(EXACT_54)
    padded = from_halfplanes(EXACT_54 + [(2, 3, 1)])
    assert region == padded
    assert len(padded.halfplanes) == 5


def test_duplicate_and_scaled_planes_collapse():
    region = from_halfplanes([(4, 0, 1), (8, 0, 2), (4, 0, 1)])
    assert region.halfplanes == (HalfPlane(4, 0, 1),)
    assert region.vertices == ()


def test_region_equality_examples():
    exact = from_halfplanes(EXACT_54)
    rebuilt = from_halfplanes(CUTSET_54 + [(15, 10, 6), (5, 10, 3)])
    assert exact == rebuilt
    assert exact != from_halfplanes(CUTSET_54)
    assert exact == exact


def test_idempotent_reconstruction():
    region = from_halfplanes(EXACT_54)
    again = from_halfplanes(region.halfplanes)
    assert region == again


def test_contains_and_separation_witness():
    exact = from_halfplanes(EXACT_54)
    cut = from_halfplanes(CUTSET_54)
    assert contains(exact, Fraction(1, 4), Fraction(1, 4))
    # cut-set corner that the proved facet 15a+10b >= 6 cuts off
    p = (Fraction(2, 7), Fraction(1, 7))
    assert contains(cut, *p) and not contains(exact, *p)


def test_unbounded_wall_count():
    region = from_halfplanes([(1, 0, 1)])
    assert region.halfplanes == (HalfPlane(1, 0, 1),)
    assert region.vertices == ()


def test_csv_emission_shape_and_determinism():
    region = from_halfplanes(EXACT_54)
    blob = emit(region, "csv", provenance=("tool=x", "command=y"))
    assert blob == emit(region, "csv", provenance=("tool=x", "command=y"))
    text = blob.decode("utf-8")
    lines = text.splitlines()
    assert lines[0] == "# tool=x"
    assert "alpha_num,alpha_den,beta_num,beta_den,alpha_dec,beta_dec" in lines
    vidx = lines.index("# vertices")
    bidx = lines.index("# boundary")
    vertex_rows = lines[vidx + 1 : bidx]
    assert vertex_rows[0] == "1,4,1,4,0.250000,0.250000"
    assert vertex_rows[-1] == "2,5,1,10,0.400000,0.100000"
    assert len(vertex_rows) == 4
    assert len(lines) > bidx + 2  # boundary polyline is nonempty


def test_svg_emission_labels_corners():
    region = from_halfplanes(EXACT_54)
    blob = emit(region, "svg", provenance=("tool=x",))
    assert blob == emit(region, "svg", provenance=("tool=x",))
    text = blob.decode("utf-8")
    assert text.count("<circle") == 4
    for x, y in EXACT_54_VERTICES:
        assert f"({x}, {y})" in text
    assert "<!-- tool=x -->" in text
    assert "storage per node" in text and "repair bandwidth" in text


def test_emit_rejects_unknown_format():
    region = from_halfplanes(EXACT_54)
    with pytest.raises(ValueError, match="unsupported format"):
        emit(region, "png")


def test_window_clamps_rendering_only():
    region = from_halfplanes(EXACT_54)
    window = (Fraction(0), Fraction(3, 10), Fraction(0), Fraction(3, 10))
    blob = emit(region, "svg", window=window)
    text = blob.decode("utf-8")
    # the (2/5, 1/10) corner falls outside the window and is not drawn
    assert text.count("<circle") == 3
    assert isinstance(region, Region2D)
    assert region.vertices == EXACT_54_VERTICES  # untouched by the window


def reference_vertices(planes) -> tuple:
    # every feasible pairwise intersection, by Cramer's rule
    pts = set()
    for i, h1 in enumerate(planes):
        for h2 in planes[i + 1 :]:
            det = h1.a * h2.b - h1.b * h2.a
            if det:
                x = Fraction(h1.c * h2.b - h1.b * h2.c, det)
                y = Fraction(h1.a * h2.c - h1.c * h2.a, det)
                if all(h.holds(x, y) for h in planes):
                    pts.add((x, y))
    return tuple(sorted(pts))


def reference_min_over(planes, phi_a, phi_b):
    # exact minimum of phi over the planes' intersection, or None when
    # unbounded below: finite exactly when phi lies in the cone of the
    # normals, attained at a corner or, with no corner, on a parallel face
    finite = any(h.a * phi_b - h.b * phi_a <= 0 for h in planes) and any(
        h.a * phi_b - h.b * phi_a >= 0 for h in planes
    )
    if not finite:
        return None
    verts = reference_vertices(planes)
    if verts:
        return min(phi_a * x + phi_b * y for x, y in verts)
    return max(Fraction(h.c) * max(phi_a, phi_b) / max(h.a, h.b) for h in planes)


def reference_region(planes) -> Region2D:
    # one LP per plane: keep a plane when the others reach below its
    # right-hand side; then sort steepest first
    norm = list(dict.fromkeys(HalfPlane.make(*p) for p in planes))
    kept = []
    for i, h in enumerate(norm):
        others = norm[:i] + norm[i + 1 :]
        low = reference_min_over(others, h.a, h.b) if others else None
        if low is None or low < h.c:
            kept.append(h)
    kept.sort(key=lambda h: (h.b != 0, -Fraction(h.a, h.b) if h.b else 0))
    return Region2D(tuple(kept), reference_vertices(kept))


def random_planes(rng):
    # 1-6 planes with a, b in 0..5 (not both 0) and c in 1..7; some are
    # scaled copies of an earlier plane, some parallel to one
    planes = []
    for _ in range(rng.randint(1, 6)):
        pick = rng.random()
        if planes and pick < 0.15:
            a, b, c = rng.choice(planes)
            t = rng.randint(1, 3)
            planes.append((t * a, t * b, t * c))
        elif planes and pick < 0.3:
            a, b, _ = rng.choice(planes)
            planes.append((a, b, rng.randint(1, 7)))
        else:
            a, b = rng.randint(0, 5), rng.randint(0, 5)
            if a == b == 0:
                a = rng.randint(1, 5)
            planes.append((a, b, rng.randint(1, 7)))
    return planes


def test_boundary_walk_matches_one_lp_per_plane():
    rng = random.Random(2019)
    seen = {"vertical": 0, "horizontal": 0, "parallel": 0, "duplicate": 0, "none": 0}
    for trial in range(2500):
        planes = random_planes(rng)
        norm = [HalfPlane.make(*p) for p in planes]
        seen["vertical"] += any(h.b == 0 for h in norm)
        seen["horizontal"] += any(h.a == 0 for h in norm)
        seen["duplicate"] += len(set(norm)) < len(norm)
        normals = {(h.a // math.gcd(h.a, h.b), h.b // math.gcd(h.a, h.b)) for h in norm}
        seen["parallel"] += len(normals) < len(set(norm))
        got, want = from_halfplanes(planes), reference_region(planes)
        seen["none"] += not got.vertices
        assert got.halfplanes == want.halfplanes, (trial, planes)
        assert got.vertices == want.vertices, (trial, planes)
    assert min(seen.values()) >= 100, seen


def test_from_halfplanes_finds_the_corners_once(monkeypatch):
    calls = []
    vertices = region_module._vertices

    def counted(planes):
        calls.append(len(planes))
        return vertices(planes)

    monkeypatch.setattr(region_module, "_vertices", counted)
    rng = random.Random(5)
    for planes in [EXACT_54, CUTSET_54 + EXACT_54, [(1, 0, 1)], [(1, 2, 1), (2, 4, 3)]] + [
        random_planes(rng) for _ in range(50)
    ]:
        calls.clear()
        from_halfplanes(planes)
        assert len(calls) == 1, planes
