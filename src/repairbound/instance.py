"""Shannon-cone constraint rows over canonical entropy classes.

A row is a sparse rational expression over the columns ALPHA, BETA, BIGB
and EntropyClass objects, read as  sum(coeff * column) >= 0.  Spanning
arguments collapse to the single BIGB column (every spanning set carries
the whole stored data), empty arguments contribute nothing, and
functional dependencies disappear inside canonicalization, so a row
never mentions two names for one entropy value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .universe import EntropyClass, Universe

ALPHA = "alpha"
BETA = "beta"
BIGB = "B"

KIND_ORDER = {
    "storage-cap": 0,
    "bandwidth-cap": 1,
    "spanning-value": 2,
    "monotonicity": 3,
    "submodularity": 4,
}


def column_key(col) -> tuple:
    """Total order on row columns: alpha, beta, B, then classes by size
    and index tuple.  Keeps every serialization byte-stable."""
    if col == ALPHA:
        return (0,)
    if col == BETA:
        return (1,)
    if col == BIGB:
        return (2,)
    return (3, col.size, col.indices())


@dataclass
class LinExpr:
    coeffs: dict
    kind: str = ""

    def signature(self) -> tuple:
        return tuple(
            (column_key(c), self.coeffs[c])
            for c in sorted(self.coeffs, key=column_key)
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, values) -> Fraction:
        return sum(
            (c * values.get(col, Fraction(0)) for col, c in self.coeffs.items()),
            Fraction(0),
        )

    def scaled(self, factor) -> "LinExpr":
        f = Fraction(factor)
        return LinExpr({c: v * f for c, v in self.coeffs.items() if v * f != 0}, self.kind)

    def __repr__(self) -> str:
        parts = []
        for col in sorted(self.coeffs, key=column_key):
            parts.append(f"{self.coeffs[col]}*{col}")
        return f"LinExpr({' + '.join(parts) or '0'} >= 0)"


def _key(u: Universe, closed_mask: int):
    """Descriptor key of a closed mask: BIGB when it spans, otherwise its
    canonical class mask (0 for the empty set)."""
    return BIGB if closed_mask == u.full_mask else u.canon_mask(closed_mask)


def instance_row(u: Universe, desc, cols: dict, kind: str | None = None) -> LinExpr:
    """The row H(ka) + H(kb) - H(ku) - H(ki) >= 0 of a descriptor.

    Keys 0 drop out and BIGB stays the spanning column; ``cols`` caches
    one EntropyClass per class mask.  The kind defaults to monotonicity
    when kb is 0, else submodularity.
    """
    coeffs: dict = {}
    for key, sign in zip(desc, (1, 1, -1, -1)):
        if key == 0:
            continue
        if key != BIGB:
            col = cols.get(key)
            if col is None:
                col = cols[key] = EntropyClass(u.n, u.k, key)
            key = col
        coeffs[key] = coeffs.get(key, 0) + sign
    if kind is None:
        kind = "monotonicity" if desc[1] == 0 else "submodularity"
    return LinExpr({c: Fraction(v) for c, v in coeffs.items() if v}, kind)


def storage_and_bandwidth_caps(u: Universe) -> list[LinExpr]:
    """The two symmetry-reduced capacity rows: ALPHA bounds a node's
    content, BETA bounds one repair message."""
    w1 = u.canon_class(u.mask_of_tokens(["W1"]))
    s12 = u.canon_class(u.mask_of_tokens(["S1->2"]))
    return [
        LinExpr({ALPHA: Fraction(1), w1: Fraction(-1)}, "storage-cap"),
        LinExpr({BETA: Fraction(1), s12: Fraction(-1)}, "bandwidth-cap"),
    ]


def _require_closed(u: Universe, mask: int):
    if u.closure_mask(mask) != mask:
        raise ValueError("argument set is not dependency-closed")


def submodularity(u: Universe, a, b) -> LinExpr:
    """H(a) + H(b) - H(a|b union) - H(a&b) >= 0 for closed a, b."""
    ma, mb = u.mask_of(a), u.mask_of(b)
    _require_closed(u, ma)
    _require_closed(u, mb)
    desc = tuple(_key(u, m) for m in (ma, mb, u.closure_mask(ma | mb), ma & mb))
    return instance_row(u, desc, {}, "submodularity")


def monotonicity(u: Universe, a, b) -> LinExpr:
    """H(b) - H(a) >= 0 for closed a subseteq b."""
    ma, mb = u.mask_of(a), u.mask_of(b)
    _require_closed(u, ma)
    _require_closed(u, mb)
    if ma & ~mb:
        raise ValueError("monotonicity needs a subseteq b")
    kind = "spanning-value" if mb == u.full_mask else "monotonicity"
    return instance_row(u, (_key(u, mb), 0, _key(u, ma), 0), {}, kind)


def instances(u: Universe, fam_masks, anchors=None, bases=()):
    """Descriptors (ka, kb, ku, ki) of the Shannon instances over a family
    of canonical class masks.

    Each asserts H(ka) + H(kb) - H(ku) - H(ki) >= 0, a key being a
    canonical class mask, BIGB for a spanning argument, or 0 for an empty
    one; monotonicity has kb = ki = 0.  In order: submodularity over every
    (representative, orbit member) pair, each followed by the aligned
    monotonicity when the pair is nested; then, for each base C in the
    order given, the elemental instances H(C+x) + H(C+y) >= H(C+x+y) + H(C)
    over variables x, y outside C.  Instances with an argument outside the
    family (other than empty or spanning) are skipped.  anchors, when
    given, keeps only the pairs touching that mask set.  Descriptors may
    repeat.
    """
    full = u.full_mask
    allowed = set(fam_masks) | {0, BIGB}
    fam = sorted(fam_masks, reverse=True)
    for ai, ra in enumerate(fam):
        for rb in fam[ai:]:
            if anchors is not None and ra not in anchors and rb not in anchors:
                continue
            for m in u.orbit_masks(rb):
                if m == ra:
                    continue
                inter = ra & m
                ki = u.canon_mask(inter)
                if ki not in allowed:
                    continue
                ku = _key(u, u.closure_mask(ra | m))
                if ku not in allowed:
                    continue
                yield (ra, rb, ku, ki)
                if inter == m:
                    yield (ra, 0, rb, 0)
                elif inter == ra:
                    yield (rb, 0, ra, 0)

    nv = u.num_vars
    for c_mask in bases:
        outside = [v for v in range(nv) if not c_mask >> (nv - 1 - v) & 1]
        for xi, x in enumerate(outside):
            bx = u.var_bit(x)
            kx = _key(u, u.closure_mask(c_mask | bx))
            if kx not in allowed:
                continue
            for y in outside[xi + 1:]:
                by = u.var_bit(y)
                ky = _key(u, u.closure_mask(c_mask | by))
                if ky not in allowed:
                    continue
                kxy = _key(u, u.closure_mask(c_mask | bx | by))
                if kxy not in allowed:
                    continue
                yield (kx, ky, kxy, c_mask)


def enumerate_rows(
    u: Universe,
    classes,
    include_elementals: bool = False,
    include_caps: bool = True,
    anchor_masks=None,
    elemental_bases=None,
) -> list[LinExpr]:
    """Deterministic, deduplicated constraint pool over a class family.

    Emits the two caps, H(A) >= 0 and BIGB - H(A) >= 0 per class, and the
    rows of every descriptor that ``instances`` generates over the
    family.  Elementals are included only with include_elementals; their
    bases default to the whole family plus the empty set, and
    elemental_bases narrows them.  The pool never references a class it
    was not given.

    anchor_masks, when given, restricts submodularity to pairs touching
    that mask set: a cheap middle rung for verification ladders where
    the family grew by a closure round but witnesses still involve at
    least one original class.
    """
    fam_masks = sorted({cls.mask for cls in classes}, reverse=True)
    for m in fam_masks:
        if m == 0 or m == u.full_mask:
            raise ValueError("family must hold proper nonempty classes")
        if u.canon_mask(m) != m:
            raise ValueError("family members must be canonical classes")
    anchors = None if anchor_masks is None else set(anchor_masks)
    bases = ()
    if include_elementals:
        if elemental_bases is None:
            bases = [0] + fam_masks
        else:
            bases = sorted(set(elemental_bases), reverse=True)
            allowed = set(fam_masks) | {0, u.full_mask}
            if any(c not in allowed for c in bases):
                raise ValueError("elemental bases must come from the family")

    cols: dict = {}
    rows: list[LinExpr] = storage_and_bandwidth_caps(u) if include_caps else []
    for m in fam_masks:
        rows.append(instance_row(u, (m, 0, 0, 0), cols, "monotonicity"))
        rows.append(instance_row(u, (BIGB, 0, m, 0), cols, "spanning-value"))
    for desc in dict.fromkeys(instances(u, fam_masks, anchors, bases)):
        rows.append(instance_row(u, desc, cols))

    seen: dict = {}
    for row in rows:
        if row.is_zero():
            continue
        sig = row.signature()
        if sig not in seen:
            seen[sig] = row
    out = list(seen.values())
    out.sort(key=lambda r: (KIND_ORDER.get(r.kind, 9), r.signature()))
    return out
