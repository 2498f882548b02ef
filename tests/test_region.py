from fractions import Fraction

import pytest

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
