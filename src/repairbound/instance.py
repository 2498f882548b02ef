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

# pool order: per-class spanning rows, then monotonicity, then submodularity
KIND_ORDER = {"spanning-value": 0, "monotonicity": 1, "submodularity": 2}


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


def enumerate_rows(u: Universe, fam_masks, anchors=None, bases=()) -> list[LinExpr]:
    """Deterministic, deduplicated constraint pool over a family of
    canonical class masks (EntropyClass members are read by their mask).

    Emits H(A) >= 0 and BIGB - H(A) >= 0 per class and the rows of every
    descriptor that ``instances`` generates over the family, with the
    elementals of the given bases only; the capacity rows are not
    included.  The pool never references a class it was not given.

    anchors, when given, restricts submodularity to pairs touching that
    mask set: a cheap middle rung for verification ladders where the
    family grew by a closure round but witnesses still involve at least
    one original class.
    """
    fam_masks = sorted(
        {m.mask if isinstance(m, EntropyClass) else m for m in fam_masks}, reverse=True
    )
    for m in fam_masks:
        if m == 0 or m == u.full_mask:
            raise ValueError("family must hold proper nonempty classes")
        if u.canon_mask(m) != m:
            raise ValueError("family members must be canonical classes")
    bases = sorted(set(bases), reverse=True)
    allowed = set(fam_masks) | {0, u.full_mask}
    if any(c not in allowed for c in bases):
        raise ValueError("elemental bases must come from the family")
    anchors = None if anchors is None else set(anchors)

    cols: dict = {}
    rows: list[LinExpr] = []
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
    out.sort(key=lambda r: (KIND_ORDER[r.kind], r.signature()))
    return out
