"""Shannon-cone constraint rows over canonical entropy classes.

A row is a sparse integer expression over the three reserved string
columns ALPHA, BETA, BIGB and entropy classes, each class named by its
canonical closed mask (an int), read as  sum(coeff * column) >= 0.
Spanning arguments collapse to the single BIGB column (every spanning
set carries the whole stored data), empty arguments contribute nothing,
and functional dependencies disappear inside canonicalization, so a row
never mentions two names for one entropy value.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass

from .universe import Universe

log = logging.getLogger("repairbound.instance")

ALPHA = "alpha"
BETA = "beta"
BIGB = "B"

# pool order: per-class spanning rows, then monotonicity, then submodularity
KIND_ORDER = {"spanning-value": 0, "monotonicity": 1, "submodularity": 2}

RESERVED_KEY = {ALPHA: (0,), BETA: (1,), BIGB: (2,)}


def column_key(col) -> tuple:
    """Total order on row columns: alpha, beta, B, then classes by size
    and index tuple.  Among equal-size masks the larger one has the
    smaller index tuple, so -mask stands in for the tuple.  Keeps every
    serialization byte-stable."""
    if type(col) is int:
        return (3, col.bit_count(), -col)
    return RESERVED_KEY[col]


@dataclass
class LinExpr:
    coeffs: dict
    kind: str = ""

    def __repr__(self) -> str:
        parts = []
        for col in sorted(self.coeffs, key=column_key):
            parts.append(f"{self.coeffs[col]}*{col}")
        return f"LinExpr({' + '.join(parts) or '0'} >= 0)"


def pool_columns(fam_masks) -> list:
    """The LP columns of a family's pool: alpha, beta, BIGB, then the
    classes in column_key order."""
    return [ALPHA, BETA, BIGB] + sorted(fam_masks, key=column_key)


def instance_row(desc, kind: str | None = None) -> LinExpr:
    """The row H(ka) + H(kb) - H(ku) - H(ki) >= 0 of a descriptor.

    Keys 0 drop out, and a class mask or BIGB is the row's column.  The
    kind defaults to monotonicity when kb is 0, else submodularity.
    """
    coeffs: dict = {}
    for key, sign in zip(desc, (1, 1, -1, -1)):
        if key != 0:
            coeffs[key] = coeffs.get(key, 0) + sign
    if kind is None:
        kind = "monotonicity" if desc[1] == 0 else "submodularity"
    return LinExpr({c: v for c, v in coeffs.items() if v}, kind)


def storage_and_bandwidth_caps(u: Universe) -> list[LinExpr]:
    """The two symmetry-reduced capacity rows: ALPHA bounds a node's
    content, BETA bounds one repair message."""
    w1 = u.canon_mask(u.mask_of_tokens(["W1"]))
    s12 = u.canon_mask(u.mask_of_tokens(["S1->2"]))
    return [
        LinExpr({ALPHA: 1, w1: -1}, "storage-cap"),
        LinExpr({BETA: 1, s12: -1}, "bandwidth-cap"),
    ]


def instances(u: Universe, fam_masks, anchors=(), need=0, bases=()):
    """Descriptors (ka, kb, ku, ki) of the Shannon instances over a family
    of canonical class masks.

    Each asserts H(ka) + H(kb) - H(ku) - H(ki) >= 0, a key being a
    canonical class mask, BIGB for a spanning argument, or 0 for an empty
    one; monotonicity has kb = ki = 0.  In order: submodularity over every
    (representative, orbit member) pair, each followed by the aligned
    monotonicity when the pair is nested; then, for each base C in the
    order given, the elemental instances H(C+x) + H(C+y) >= H(C+x+y) + H(C)
    over variables x, y outside C.  Instances with an argument outside the
    family (other than empty or spanning) are skipped.  The pair rule
    keeps only the pairs with at least need of their two classes in the
    mask set anchors: need 0 keeps every pair, need 1 the pairs touching
    the anchors, need 2 the pairs inside them.  Descriptors may repeat.

    Keys are read from the universe's member index, which canon_mask
    filled with every member of each family class, through the family's
    class set: a closed mask outside the family is never canonicalized.
    Only the orbits the pair rule iterates are fetched: the anchors' alone
    at need 2.
    """
    fam = sorted(fam_masks, reverse=True)
    in_fam = set(fam)
    get = u.class_of.get
    full = u.full_mask
    closure = u.closure_mask
    # the positions of the anchored classes in fam, and those classes
    held_at = [i for i, r in enumerate(fam) if r in anchors] if need else []
    held = [fam[i] for i in held_at]
    orbits = {r: u.orbit_masks(r) for r in (held if need == 2 else fam)}
    for ai, ra in enumerate(fam):
        # how many of the pair's anchors rb must still supply
        left = need - (ra in anchors) if need else 0
        if left > 1:
            continue
        for rb in held[bisect_left(held_at, ai):] if left == 1 else fam[ai:]:
            orbit = orbits[rb]
            # ra and m are closed, and so is ra & m: a closure rule whose
            # premise holds in the intersection holds in both sets, so its
            # conclusion lies in both
            for m, ki in zip(orbit, map(get, map(ra.__and__, orbit))):
                if m == ra:
                    continue
                if ki not in in_fam:
                    if ra & m:
                        continue
                    ki = 0
                un = closure(ra | m)
                ku = get(un)
                if ku not in in_fam:
                    if un != full:
                        continue
                    ku = BIGB
                yield (ra, rb, ku, ki)
                # never ra ⊊ m: m ≤ rb (the maximum of its orbit) ≤ ra
                if ra & m == m:
                    yield (ra, 0, rb, 0)

    def key(closed):
        # BIGB for the full mask, else the class if it is in the family
        c = get(closed)
        return c if c in in_fam else BIGB if closed == full else None

    for c_mask in bases:
        bits = [b for b in map(u.var_bit, range(u.num_vars)) if not c_mask & b]
        # the class of C+x, for each variable x outside C
        grown = [key(closure(c_mask | b)) for b in bits]
        for xi, kx in enumerate(grown):
            if kx is None:
                continue
            cx = c_mask | bits[xi]
            for by, ky in zip(bits[xi + 1:], grown[xi + 1:]):
                if ky is None:
                    continue
                kxy = key(closure(cx | by))
                if kxy is None:
                    continue
                yield (kx, ky, kxy, c_mask)


def enumerate_rows(u: Universe, fam_masks) -> list[LinExpr]:
    """Deterministic, deduplicated constraint pool over a family of
    canonical class masks.

    Emits H(A) >= 0 and BIGB - H(A) >= 0 per class and the rows of every
    descriptor that ``instances`` generates over every pair of the
    family, with no elemental instances; the capacity rows are not
    included.  The pool never references a class it was not given.
    """
    fam_masks = sorted(set(fam_masks), reverse=True)
    for m in fam_masks:
        if m == 0 or m == u.full_mask:
            raise ValueError("family must hold proper nonempty classes")
        if u.canon_mask(m) != m:
            raise ValueError("family members must be canonical classes")

    # A row's key is the sorted tuple of its entries rank·5 + coeff + 2,
    # a column's rank being its position in pool_columns.  A descriptor's
    # coefficients lie in -2..2, so entries sort as (rank, coeff) pairs do
    # and keys order rows as their sorted (column_key, coeff) pairs do.
    cols = pool_columns(fam_masks)
    plus = {col: 5 * r + 3 for r, col in enumerate(cols)}
    minus = {col: 5 * r + 1 for r, col in enumerate(cols)}
    # row key -> the KIND_ORDER of its first row, which wins the dedup
    seen: dict = {}
    for m in fam_masks:
        seen.setdefault((plus[m],), KIND_ORDER["monotonicity"])
        seen.setdefault((plus[BIGB], minus[m]), KIND_ORDER["spanning-value"])
    descs = Counter(instances(u, fam_masks))
    for desc in descs:
        ka, kb, ku, ki = desc
        if kb and ki and len(set(desc)) == 4:
            key = tuple(sorted((plus[ka], plus[kb], minus[ku], minus[ki])))
        else:  # an empty argument drops out, equal ones merge
            acc: dict = {}
            for col, sign in zip(desc, (1, 1, -1, -1)):
                if col:
                    acc[col] = acc.get(col, 0) + sign
            key = tuple(sorted([plus[c] + v - 1 for c, v in acc.items() if v]))
        if key:
            seen.setdefault(key, KIND_ORDER["submodularity" if kb else "monotonicity"])
    # free the descriptors and the keys as soon as they are read: at
    # unseeded depth 2 on (5,4,4) that takes 110 MB off the peak
    counts = descs.total(), len(descs)
    del descs
    kinds = {order: kind for kind, order in KIND_ORDER.items()}
    order = sorted((order, *key) for key, order in seen.items())
    del seen
    # entry e of a key decodes to the pair (column, coefficient) at decode[e]
    decode = [(col, v) for col in cols for v in range(-2, 3)].__getitem__
    out = [LinExpr(dict(map(decode, key)), kinds[o]) for o, *key in order]
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "pool: %d classes, %d orbit members, %d descriptors (%d distinct), %d rows",
            len(fam_masks),
            sum(len(u.orbit_masks(m)) for m in fam_masks),
            *counts,
            len(out),
        )
    return out
