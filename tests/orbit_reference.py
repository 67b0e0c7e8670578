"""The p'-group of the orbit layer, written out as generators, and its
orbit counts by plethysm, the references for tabloid's orbit layer.

With m = p - 1, each nonzero base-m digit d_k of n, lowest first, owns
the next d_k * m^k points: d_k runs of m^k consecutive points, each the
leaves of a complete m-ary tree whose nodes' children are consecutive
runs. The group permutes the children of each node and the trees of a
digit. Here it is given by generators: each adjacent transposition of the
children of a node, and of the trees of a digit, as a permutation of the
points 0..n-1. The orbit counts come from Polya's enumeration instead:
the subsets of one leaf count 1 + x, a node with m children of generating
function f counts h_m[f], the plethysm of the complete symmetric function,
and the digits multiply.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np


def generators(n: int, p: int) -> list[list[int]]:
    """Adjacent child and tree transpositions, each as a list sigma with
    sigma[i] the image of point i."""
    m = p - 1
    gens, first, k, rest = [], 0, 0, n
    while rest:
        rest, d = divmod(rest, m)
        # runs of children: (start, child width, count) for every node and the root
        runs = [(first + t * m**k + i * m**j, m ** (j - 1), m)
                for j in range(1, k + 1) for t in range(d) for i in range(m ** (k - j))]
        runs.append((first, m**k, d))
        for start, width, count in runs:
            for c in range(count - 1):
                sigma = list(range(n))
                a, b = start + c * width, start + (c + 1) * width
                sigma[a : a + width], sigma[b : b + width] = sigma[b : b + width], sigma[a : a + width]
                gens.append(sigma)
        first += d * m**k
        k += 1
    return gens


def permute(masks: np.ndarray, sigma: list[int]) -> np.ndarray:
    """The masks with point i moved to sigma[i]."""
    out = np.zeros_like(masks)
    for i, j in enumerate(sigma):
        out |= ((masks >> i) & 1) << j
    return out


def _partitions(m: int, top: int | None = None):
    top = m if top is None else top
    if m == 0:
        yield ()
    for first in range(min(m, top), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def _h(m: int, f: list[int]) -> list[int]:
    """h_m[f] = sum over partitions lambda of m of prod_i f(x^lambda_i) / z_lambda."""
    total = [0] * ((len(f) - 1) * m + 1)
    for lam in _partitions(m):
        z = math.prod(i**c * math.factorial(c) for i, c in Counter(lam).items())
        term = [1]
        for i in lam:
            spread = [0] * ((len(f) - 1) * i + 1)
            spread[::i] = f
            term = _mul(term, spread)
        for deg, c in enumerate(term):
            total[deg] += c * (math.factorial(m) // z)
    assert all(c % math.factorial(m) == 0 for c in total)
    return [c // math.factorial(m) for c in total]


def orbit_counts(n: int, p: int) -> list[int]:
    """Entry k is the number of orbits on the k-subsets of [n]."""
    m, out, k = p - 1, [1], 0
    while n:
        n, d = divmod(n, m)
        tree = [1, 1]
        for _ in range(k):
            tree = _h(m, tree)
        out = _mul(out, _h(d, tree))
        k += 1
    return out
