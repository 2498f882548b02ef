"""Random-variable universe of an (n, k, d=n-1) exact-repair instance.

The universe holds n node-content variables W_1..W_n followed by the
n*(n-1) repair messages S_{i->j} (i != j, row-major by source).  Subsets
are plain ints used as bit masks.  Variable v sits at bit
(num_vars - 1 - v), i.e. W_1 is the highest bit: for two distinct
equal-size subsets the numerically larger mask is the one whose sorted
index tuple is lexicographically smaller, so the canonical orbit
representative is a max() over permutation images.

Functional-dependency closure of a subset A:
  (i)   W_i in A         =>  every S_{i->j} in A
  (ii)  every S_{i->j} in A (all i != j)  =>  W_j in A
  (iii) A holds >= k distinct W_i         =>  A = full universe
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


class UnsupportedConfiguration(ValueError):
    """Parameter combination outside the modeled (n, k, n-1) family."""


# largest supported node count; see build_universe
MAX_N = 6

_TOKEN_RE = re.compile(r"^(?:W([1-9]\d*)|S([1-9]\d*)->([1-9]\d*))$")


def token_for_index(n: int, v: int) -> str:
    if v < n:
        return f"W{v + 1}"
    i, off = divmod(v - n, n - 1)
    j = off if off < i else off + 1
    return f"S{i + 1}->{j + 1}"


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
    return n + (i - 1) * (n - 1) + (j - 1 if j < i else j - 2)


@dataclass(frozen=True)
class EntropyClass:
    """Canonical representative of a closed subset's relabeling orbit.

    ``mask`` is the canonical closed mask in the bit layout above; two
    subsets share a class iff their closures lie in one orbit.
    """

    n: int
    k: int
    mask: int

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    def indices(self) -> tuple[int, ...]:
        nv = self.n * self.n
        return tuple(v for v in range(nv) if self.mask >> (nv - 1 - v) & 1)

    def tokens(self) -> list[str]:
        return sorted(token_for_index(self.n, v) for v in self.indices())

    def __repr__(self) -> str:
        return f"EntropyClass[{','.join(self.tokens())}]"


class Universe:
    """Variables, closure, and the node-relabeling action for one (n, k).

    Closure, canonicalization, and orbit results are memoized; caches are
    only ever appended to, so concurrent readers at worst recompute.
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.d = n - 1
        self.num_vars = n * n
        self.full_mask = (1 << self.num_vars) - 1
        self._w_bit = [self.var_bit(i - 1) for i in range(1, n + 1)]
        self.node_mask = 0
        for b in self._w_bit:
            self.node_mask |= b
        # fan-out of node i and fan-in of node j, as message masks
        self._out_mask = []
        self._in_mask = []
        for i in range(1, n + 1):
            out = 0
            for j in range(1, n + 1):
                if j != i:
                    out |= self.var_bit(index_for_token(n, f"S{i}->{j}"))
            self._out_mask.append(out)
        for j in range(1, n + 1):
            inc = 0
            for i in range(1, n + 1):
                if i != j:
                    inc |= self.var_bit(index_for_token(n, f"S{i}->{j}"))
            self._in_mask.append(inc)
        self._nbytes = (self.num_vars + 7) // 8
        self._perms = list(itertools.permutations(range(1, n + 1)))
        self._perm_tables = None
        self._closure_cache: dict[int, int] = {}
        self._canon_cache: dict[int, int] = {}
        self._orbit_cache: dict[int, tuple[int, ...]] = {}

    def __repr__(self) -> str:
        return f"Universe(n={self.n}, k={self.k}, d={self.d})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Universe) and (self.n, self.k) == (other.n, other.k)

    def __hash__(self) -> int:
        return hash((self.n, self.k))

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
        a = mask
        while True:
            add = 0
            for i in range(self.n):
                if a & self._w_bit[i]:
                    add |= self._out_mask[i]
            for j in range(self.n):
                if a & self._in_mask[j] == self._in_mask[j]:
                    add |= self._w_bit[j]
            new = a | add
            if new == a:
                break
            a = new
        if (a & self.node_mask).bit_count() >= self.k:
            a = self.full_mask
        self._closure_cache[mask] = a
        return a

    # -- node relabeling -------------------------------------------------

    def _image_of_var(self, v: int, pi) -> int:
        # pi is a tuple: node i maps to pi[i-1], 1-based
        if v < self.n:
            return pi[v] - 1
        i, off = divmod(v - self.n, self.n - 1)
        j = off if off < i else off + 1
        ii, jj = pi[i], pi[j]
        return self.n + (ii - 1) * (self.n - 1) + (jj - 2 if jj > ii else jj - 1)

    def _build_perm_tables(self):
        nv = self.num_vars
        tables = []
        for pi in self._perms:
            bit_image = [0] * (8 * self._nbytes)
            for v in range(nv):
                bit_image[nv - 1 - v] = self.var_bit(self._image_of_var(v, pi))
            per_byte = []
            for c in range(self._nbytes):
                t = [0] * 256
                base = 8 * c
                for byte in range(1, 256):
                    low = byte & -byte
                    t[byte] = t[byte ^ low] | bit_image[base + low.bit_length() - 1]
                per_byte.append(t)
            tables.append(per_byte)
        self._perm_tables = tables

    def apply_perm_mask(self, mask: int, pi) -> int:
        img = 0
        for v in self.indices_of(mask):
            img |= self.var_bit(self._image_of_var(v, pi))
        return img

    def _images(self, mask: int):
        if self._perm_tables is None:
            self._build_perm_tables()
        nb = self._nbytes
        for per_byte in self._perm_tables:
            img = 0
            m = mask
            for c in range(nb):
                img |= per_byte[c][m & 0xFF]
                m >>= 8
            yield img

    def canon_mask(self, mask: int) -> int:
        closed = self.closure_mask(mask)
        cached = self._canon_cache.get(closed)
        if cached is not None:
            return cached
        images = sorted(set(self._images(closed)), reverse=True)
        best = images[0]
        for im in images:
            self._canon_cache[im] = best
        self._orbit_cache[best] = tuple(images)
        return best

    def orbit_masks(self, mask: int) -> tuple[int, ...]:
        """All distinct closed masks in the orbit of closure(mask),
        descending (the canonical member first)."""
        best = self.canon_mask(mask)
        return self._orbit_cache[best]

    def canon_class(self, mask: int) -> EntropyClass:
        return EntropyClass(self.n, self.k, self.canon_mask(mask))


def build_universe(n: int, k: int, d: int | None = None) -> Universe:
    if not isinstance(n, int) or not isinstance(k, int):
        raise UnsupportedConfiguration("n and k must be integers")
    if n < 3:
        raise UnsupportedConfiguration(f"n must be >= 3, got {n}")
    if n > MAX_N:
        # canonicalization tables grow as n!: n = 6 takes 36 MB, n = 9
        # about a billion entries
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
    than cap masks."""
    fam = sorted(masks, reverse=True)
    out = set(masks)
    full = u.full_mask
    for i, ra in enumerate(fam):
        for rb in fam[i:]:
            for m in u.orbit_masks(rb):
                un = u.closure_mask(ra | m)
                if un != full:
                    out.add(u.canon_mask(un))
                inter = ra & m
                if inter:
                    out.add(u.canon_mask(inter))
                if len(out) > cap:
                    return out, False
    return out, True
