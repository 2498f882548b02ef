"""Repair-graph cut bound for the storage-bandwidth plane.

The classical converse says k summands of min(alpha, (d-i)*beta),
i = 0..k-1, must cover the whole file.  Linearized over breakpoints j
(how many summands take alpha) this is the facet list
j*alpha + w_j*beta >= 1 with w_j the tail sum of the (d-i) weights.
Exact repair satisfies every one of these, so they bound the region
from outside; the point of the rest of this package is that they are
not the whole story.
"""

from __future__ import annotations


def facets(n: int, k: int, d: int | None = None) -> tuple:
    """The k+1 linear facets j*alpha + w_j*beta >= 1, j = 0..k, as
    (j, w_j, 1) int triples, with w_j = sum of (d-i) for i = j..k-1."""
    if d is None:
        d = n - 1
    if not (1 <= k < n and k <= d < n):
        raise ValueError(f"invalid parameters (n={n}, k={k}, d={d})")
    return tuple((j, sum(d - i for i in range(j, k)), 1) for j in range(k + 1))
