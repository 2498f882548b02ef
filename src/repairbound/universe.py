"""Random-variable universe of an (n, k, d=n-1) exact-repair instance.

The universe holds n node-content variables W_1..W_n followed by the
n*(n-1) repair messages S_{i->j} (i != j, row-major by source).  Subsets
are plain ints used as bit masks.  Variable v sits at bit
(num_vars - 1 - v), i.e. W_1 is the highest bit: for two distinct
equal-size subsets the numerically larger mask is the one whose sorted
index tuple is lexicographically smaller, so the canonical orbit
representative is a max() over permutation images.  An entropy class
(the relabeling orbit of a closed subset) is named everywhere by that
representative, its canonical closed mask: a plain int.

Functional-dependency closure of a subset A:
  (i)   W_i in A         =>  every S_{i->j} in A
  (ii)  every S_{i->j} in A (all i != j)  =>  W_j in A
  (iii) A holds >= k distinct W_i         =>  A = full universe
"""

from __future__ import annotations

import itertools
import logging
import re
import sys
from array import array


log = logging.getLogger("repairbound.universe")


class UnsupportedConfiguration(ValueError):
    """Parameter combination outside the modeled (n, k, n-1) family."""


# largest supported node count; see build_universe
MAX_N = 6

# the orbit tables read a mask this many bits at a time
_CHUNK = 4

_TOKEN_RE = re.compile(r"^(?:W([1-9]\d*)|S([1-9]\d*)->([1-9]\d*))$")


def token_for_index(n: int, v: int) -> str:
    if v < n:
        return f"W{v + 1}"
    i, off = divmod(v - n, n - 1)
    j = off if off < i else off + 1
    return f"S{i + 1}->{j + 1}"


def _message_var(n: int, i: int, j: int) -> int:
    # the index of S_{i+1->j+1}, nodes numbered from 0
    return n + i * (n - 1) + (j if j < i else j - 1)


def index_for_token(n: int, tok: str) -> int:
    m = _TOKEN_RE.match(tok)
    if m is None:
        raise ValueError(f"bad variable token {tok!r}")
    if m.group(1) is not None:
        i = int(m.group(1))
        if not 1 <= i <= n:
            raise ValueError(f"node index out of range in {tok!r}")
        return i - 1
    i, j = int(m.group(2)), int(m.group(3))
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"message index out of range in {tok!r}")
    return _message_var(n, i - 1, j - 1)


class Universe:
    """Variables, closure, and the node-relabeling action for one (n, k).

    The relabeling acts through orbit tables, built on the first
    canonicalization: for each 4-bit chunk of a mask and each of its 16
    values, one int packing that chunk's images under all n! permutations,
    a fixed-width slot per permutation, so a mask's images are the OR of
    one int per chunk, read back slot by slot as an array.  The tables take
    0.05 MB at n = 5 and 0.83 MB at n = 6.  Closure, canonicalization, and
    orbit results are memoized; caches are only ever appended to, so
    concurrent readers at worst recompute.

    class_of is the member index: it maps each member of every orbit
    canonicalized so far to its class, and it only grows.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.d = n - 1
        self.num_vars = n * n
        self.full_mask = (1 << self.num_vars) - 1
        # _msg_var[i][j] is the index of S_{i+1->j+1}
        self._msg_var = msg = [[_message_var(n, i, j) for j in range(n)] for i in range(n)]
        bit = self.var_bit
        out_mask = [sum(bit(msg[i][j]) for j in range(n) if j != i) for i in range(n)]
        # closure rules (i) and (iii) read a mask's node bits, its top n:
        # the union of the held nodes' fan-outs, or every variable once k
        # nodes are held
        self._node_shift = self.num_vars - n
        self._fan_out = [
            self.full_mask
            if nodes.bit_count() >= k
            else sum(out_mask[i] for i in range(n) if nodes >> (n - 1 - i) & 1)
            for nodes in range(1 << n)
        ]
        # rule (ii): node j's fan-in as a message mask, and node j
        self._fan_in = [
            (sum(bit(msg[i][j]) for i in range(n) if i != j), bit(j)) for j in range(n)
        ]
        self._perms = list(itertools.permutations(range(1, n + 1)))
        # an orbit table slot: the smallest array type holding num_vars bits
        self._slot = next(c for c in "BHILQ" if array(c).itemsize * 8 >= self.num_vars)
        self._packed_bytes = array(self._slot).itemsize * len(self._perms)
        self._perm_tables = None
        self._closure_cache: dict[int, int] = {}
        self.class_of: dict[int, int] = {}
        self.classes_found = 0  # canon_mask misses, one per class
        self._orbit_cache: dict[int, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"Universe(n={self.n}, k={self.k}, d={self.d})"

    # -- subsets as masks ------------------------------------------------

    def var_bit(self, v: int) -> int:
        return 1 << (self.num_vars - 1 - v)

    def mask_of(self, indices) -> int:
        m = 0
        for v in indices:
            if not 0 <= v < self.num_vars:
                raise ValueError(f"variable index {v} out of range")
            m |= self.var_bit(v)
        return m

    def mask_of_tokens(self, tokens) -> int:
        return self.mask_of(index_for_token(self.n, t) for t in tokens)

    def indices_of(self, mask: int) -> tuple[int, ...]:
        nv = self.num_vars
        return tuple(v for v in range(nv) if mask >> (nv - 1 - v) & 1)

    # -- closure ---------------------------------------------------------

    def closure_mask(self, mask: int) -> int:
        cached = self._closure_cache.get(mask)
        if cached is not None:
            return cached
        fan_out, shift, full = self._fan_out, self._node_shift, self.full_mask
        # rule (iii) fires as soon as k nodes are held: every rule only
        # adds variables, so they stay held in the fixpoint
        a = mask | fan_out[mask >> shift]
        while a != full:
            add = 0
            for inc, w in self._fan_in:
                if a & inc == inc:
                    add |= w
            new = a | add
            if new == a:
                break
            a = new | fan_out[new >> shift]
        self._closure_cache[mask] = a
        return a

    # -- node relabeling -------------------------------------------------

    def _var_images(self, pi) -> list[int]:
        """The image of each variable under pi, a tuple mapping node i to
        pi[i-1] (1-based)."""
        p = [x - 1 for x in pi]
        msg = self._msg_var
        return p + [msg[a][b] for a in p for b in p if a != b]

    def _build_perm_tables(self):
        # tables[c][x] packs the images of chunk value x at chunk c (bits
        # _CHUNK*c and up) under every permutation, slot p holding the
        # image under _perms[p]: each bit doubles its chunk's table, the
        # new half carrying that bit's images
        nv = self.num_vars
        bit_of = [self.var_bit(v) for v in range(nv)]
        # images[v][p] is the image of variable v under _perms[p]
        images = list(zip(*map(self._var_images, self._perms)))
        tables = []
        for lo in range(0, nv, _CHUNK):
            t = [0]
            for bit in range(lo, min(lo + _CHUNK, nv)):
                slots = array(self._slot, map(bit_of.__getitem__, images[nv - 1 - bit]))
                packed = int.from_bytes(slots.tobytes(), sys.byteorder)
                t += [x | packed for x in t]
            tables.append(t)
        self._perm_tables = tables

    def apply_perm_mask(self, mask: int, pi) -> int:
        images = self._var_images(pi)
        img = 0
        for v in self.indices_of(mask):
            img |= self.var_bit(images[v])
        return img

    def _images(self, mask: int) -> array:
        """The image of mask under every permutation, in _perms order."""
        if self._perm_tables is None:
            self._build_perm_tables()
        low = (1 << _CHUNK) - 1
        packed = 0
        for t in self._perm_tables:
            packed |= t[mask & low]
            mask >>= _CHUNK
        return array(self._slot, packed.to_bytes(self._packed_bytes, sys.byteorder))

    def canon_mask(self, mask: int) -> int:
        """The class of closure(mask): the largest mask of its orbit.  A
        miss indexes every orbit member in class_of, unsorted."""
        closed = self.closure_mask(mask)
        cached = self.class_of.get(closed)
        if cached is not None:
            return cached
        images = self._images(closed)
        best = max(images)
        self.class_of.update(zip(images, itertools.repeat(best)))
        self.classes_found += 1
        return best

    def orbit_masks(self, mask: int) -> tuple[int, ...]:
        """All distinct closed masks in the orbit of closure(mask),
        descending (the canonical member first).  The tuple is built and
        cached on the first request for its class."""
        best = self.canon_mask(mask)
        orbit = self._orbit_cache.get(best)
        if orbit is None:
            orbit = self._orbit_cache[best] = tuple(sorted(set(self._images(best)), reverse=True))
        return orbit


def build_universe(n: int, k: int, d: int | None = None) -> Universe:
    if not isinstance(n, int) or not isinstance(k, int):
        raise UnsupportedConfiguration("n and k must be integers")
    if n < 3:
        raise UnsupportedConfiguration(f"n must be >= 3, got {n}")
    if n > MAX_N:
        # canonicalization computes all n! images of a mask, and its
        # tables pack 16 per 4-bit chunk per permutation into 8-byte
        # slots at n = 6: 0.83 MB, 7.8 MB at n = 7 and 83 MB at n = 8
        raise UnsupportedConfiguration(f"n must be <= {MAX_N}, got {n}")
    if not 2 <= k <= n - 1:
        raise UnsupportedConfiguration(f"k must satisfy 2 <= k <= n-1, got {k}")
    if d is not None and d != n - 1:
        raise UnsupportedConfiguration(f"only d = n-1 is modeled, got d={d}")
    return Universe(n, k)


def closure_round(u: Universe, masks, cap: int):
    """One union/intersection closure round over (representative, orbit
    member) pairs of a set of canonical class masks.  Returns (new mask
    set, completed flag); the round stops early once the set holds more
    than cap masks.  Logs one DEBUG line of deterministic counters."""
    fam = sorted(masks, reverse=True)
    out = set(masks)
    full = u.full_mask
    found = u.classes_found
    pairs = 0
    for i, ra in enumerate(fam):
        for rb in fam[i:]:
            for m in u.orbit_masks(rb):
                pairs += 1
                un = u.closure_mask(ra | m)
                if un != full:
                    out.add(u.canon_mask(un))
                inter = ra & m
                if inter:
                    out.add(u.canon_mask(inter))
                if len(out) > cap:
                    _log_round(u, fam, out, pairs, found, False)
                    return out, False
    _log_round(u, fam, out, pairs, found, True)
    return out, True


def _log_round(u: Universe, fam, out, pairs: int, found: int, done: bool):
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "closure round: %d classes in, %d classes out, %d pairs scanned, "
            "%d canon_mask misses, %d orbit members indexed%s",
            len(fam),
            len(out),
            pairs,
            u.classes_found - found,
            len(u.class_of),
            "" if done else ", stopped at the cap",
        )
