"""Exact 2D geometry for storage-bandwidth regions: half-plane
intersection, corner enumeration, comparison, and CSV/SVG emission.

Regions here are intersections of half-planes a*alpha + b*beta >= c
with a, b >= 0 and c > 0, so they are closed under increasing either
coordinate and their boundary is a single convex polyline between two
axis-parallel tails.  All arithmetic is rational; emitted bytes depend
only on the region and the plot window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

DEFAULT_WINDOW = (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2))


@dataclass(frozen=True, order=True)
class HalfPlane:
    """a*alpha + b*beta >= c over coprime integers, a >= 0."""

    a: int
    b: int
    c: int

    @staticmethod
    def make(a, b, c) -> "HalfPlane":
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("degenerate half-plane (0, 0)")
        lcm = math.lcm(a.denominator, b.denominator, c.denominator)
        ia, ib, ic = int(a * lcm), int(b * lcm), int(c * lcm)
        g = math.gcd(math.gcd(abs(ia), abs(ib)), abs(ic))
        ia, ib, ic = ia // g, ib // g, ic // g
        if ia < 0 or (ia == 0 and ib < 0):
            raise ValueError("half-plane normal must point into the first quadrant")
        return HalfPlane(ia, ib, ic)

    def holds(self, alpha, beta) -> bool:
        return self.a * alpha + self.b * beta >= self.c

    def tight(self, alpha, beta) -> bool:
        return self.a * alpha + self.b * beta == self.c


@dataclass(frozen=True)
class Region2D:
    """Non-redundant half-planes in boundary order (steepest first) and
    the corner points sorted by increasing alpha.  Recession is always
    the two positive axes."""

    halfplanes: tuple
    vertices: tuple

    def contains(self, alpha, beta) -> bool:
        a, b = Fraction(alpha), Fraction(beta)
        return all(h.holds(a, b) for h in self.halfplanes)


def _intersect(h1: HalfPlane, h2: HalfPlane):
    det = h1.a * h2.b - h1.b * h2.a
    if det == 0:
        return None
    x = Fraction(h1.c * h2.b - h1.b * h2.c, det)
    y = Fraction(h1.a * h2.c - h1.c * h2.a, det)
    return (x, y)


def _vertices(planes) -> tuple:
    pts = set()
    for i, h1 in enumerate(planes):
        for h2 in planes[i + 1 :]:
            p = _intersect(h1, h2)
            if p is not None and all(h.holds(*p) for h in planes):
                pts.add(p)
    return tuple(sorted(pts))


def _min_over(planes, phi_a: int, phi_b: int):
    """Exact minimum of phi over the intersection of `planes`, or None
    when unbounded below.  Normals and phi sit in the closed first
    quadrant, so the minimum is finite exactly when phi lies in the
    cone of the normals, attained at a corner or on a parallel face."""
    finite = any(h.a * phi_b - h.b * phi_a <= 0 for h in planes) and any(
        h.a * phi_b - h.b * phi_a >= 0 for h in planes
    )
    if not finite:
        return None
    verts = _vertices(planes)
    if verts:
        return min(phi_a * x + phi_b * y for x, y in verts)
    # no corner: every normal is parallel to phi
    return max(Fraction(h.c) * max(phi_a, phi_b) / max(h.a, h.b) for h in planes)


def from_halfplanes(planes) -> Region2D:
    """Normalize, deduplicate, drop redundant half-planes, and collect
    feasible pairwise intersections as the corner list."""
    if not planes:
        raise ValueError("need at least one half-plane")
    norm = []
    for h in planes:
        if not isinstance(h, HalfPlane):
            h = HalfPlane.make(*h)
        if h.a < 0 or h.b < 0 or h.c <= 0:
            raise ValueError(
                f"region half-planes need a, b >= 0 and c > 0, got {h}"
            )
        if h not in norm:
            norm.append(h)

    kept = []
    for i, h in enumerate(norm):
        others = norm[:i] + norm[i + 1 :]
        if not others:
            kept.append(h)
            continue
        low = _min_over(others, h.a, h.b)
        if low is None or low < h.c:
            kept.append(h)

    # steepest wall first: verticals, then by descending a/b
    kept.sort(key=lambda h: (h.b != 0, -Fraction(h.a, h.b) if h.b else 0))
    return Region2D(tuple(kept), _vertices(kept))


def equals(r1: Region2D, r2: Region2D) -> bool:
    return (
        set(r1.halfplanes) == set(r2.halfplanes) and r1.vertices == r2.vertices
    )


def _dec(x, places: int = 6) -> str:
    v = Fraction(x)
    sign = "-" if v < 0 else ""
    v = abs(v)
    scaled = v.numerator * 10**places
    whole, rem = divmod(scaled, v.denominator)
    if 2 * rem >= v.denominator:
        whole += 1
    digits = f"{whole:0{places + 1}d}"
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _clip(poly, a, b, c):
    out = []
    for i, p in enumerate(poly):
        q = poly[(i + 1) % len(poly)]
        fp = a * p[0] + b * p[1] - c
        fq = a * q[0] + b * q[1] - c
        if fp >= 0:
            out.append(p)
        if (fp > 0 > fq) or (fp < 0 < fq):
            t = fp / (fp - fq)
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _window_polygon(region: Region2D, window):
    x0, x1, y0, y1 = window
    poly = [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
    for h in region.halfplanes:
        poly = _clip(poly, h.a, h.b, h.c)
        if not poly:
            return []
    return poly


def _boundary_polyline(region: Region2D, window):
    """Corner or crossing points where some half-plane is tight, in
    boundary order along the clipped feasible polygon."""
    poly = _window_polygon(region, window)
    n = len(poly)
    if n == 0:
        return []
    tight = [any(h.tight(*p) for h in region.halfplanes) for p in poly]
    if all(tight):
        return list(poly)
    start = next(i for i in range(n) if not tight[i])
    out = []
    for off in range(1, n + 1):
        i = (start + off) % n
        if tight[i]:
            out.append(poly[i])
    return out


def emit(region: Region2D, fmt: str, window=DEFAULT_WINDOW, provenance=()) -> bytes:
    if fmt == "csv":
        return _emit_csv(region, window, provenance)
    if fmt == "svg":
        return _emit_svg(region, window, provenance)
    raise ValueError(f"unsupported format {fmt!r}")


def _csv_point(x, y) -> str:
    return (
        f"{x.numerator},{x.denominator},{y.numerator},{y.denominator},"
        f"{_dec(x)},{_dec(y)}"
    )


def _emit_csv(region: Region2D, window, provenance) -> bytes:
    lines = [f"# {p}" for p in provenance]
    for h in region.halfplanes:
        lines.append(f"# halfplane: {h.a}*alpha + {h.b}*beta >= {h.c}")
    lines.append("alpha_num,alpha_den,beta_num,beta_den,alpha_dec,beta_dec")
    lines.append("# vertices")
    for x, y in region.vertices:
        lines.append(_csv_point(Fraction(x), Fraction(y)))
    lines.append("# boundary")
    for x, y in _boundary_polyline(region, window):
        lines.append(_csv_point(Fraction(x), Fraction(y)))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _emit_svg(region: Region2D, window, provenance) -> bytes:
    x0, x1, y0, y1 = (Fraction(w) for w in window)
    width, height = 800, 600
    ml, mr, mt, mb = 70, 30, 30, 50

    def px(x):
        return _dec(ml + (Fraction(x) - x0) / (x1 - x0) * (width - ml - mr), 2)

    def py(y):
        return _dec(height - mb - (Fraction(y) - y0) / (y1 - y0) * (height - mb - mt), 2)

    poly = _window_polygon(region, window)
    line = _boundary_polyline(region, window)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
    ]
    for p in provenance:
        parts.append(f"<!-- {p} -->")
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if poly:
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in poly)
        parts.append(f'<polygon points="{pts}" fill="#cfe2f3" stroke="none"/>')
    if len(line) >= 2:
        pts = " ".join(f"{px(x)},{py(y)}" for x, y in line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#1c4587" stroke-width="2"/>'
        )
    parts.append(
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<text x="{(ml + width - mr) // 2}" y="{height - 12}" '
        'font-family="sans-serif" font-size="16" text-anchor="middle">'
        "storage per node</text>"
    )
    parts.append(
        f'<text x="18" y="{(mt + height - mb) // 2}" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle" '
        f'transform="rotate(-90 18 {(mt + height - mb) // 2})">repair bandwidth</text>'
    )
    for lab, val in (("x", x0), ("x", x1), ("y", y0), ("y", y1)):
        if lab == "x":
            parts.append(
                f'<text x="{px(val)}" y="{height - mb + 18}" font-family="sans-serif" '
                f'font-size="12" text-anchor="middle">{val}</text>'
            )
        else:
            parts.append(
                f'<text x="{ml - 8}" y="{py(val)}" font-family="sans-serif" '
                f'font-size="12" text-anchor="end">{val}</text>'
            )
    for x, y in region.vertices:
        if not (x0 <= x <= x1 and y0 <= y <= y1):
            continue
        cx = ml + (Fraction(x) - x0) / (x1 - x0) * (width - ml - mr)
        cy = height - mb - (Fraction(y) - y0) / (y1 - y0) * (height - mb - mt)
        parts.append(
            f'<circle cx="{_dec(cx, 2)}" cy="{_dec(cy, 2)}" r="4" fill="#cc0000"/>'
        )
        parts.append(
            f'<text x="{_dec(cx + 8, 2)}" y="{_dec(cy - 8, 2)}" '
            f'font-family="sans-serif" font-size="13">({x}, {y})</text>'
        )
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")
