"""Reduced row echelon form over GF(p), the reference for the library's
forward-only elimination and its one-column back-solves.

The library never clears above its pivots. Here the forward echelon form
from linalg._eliminate is reduced block by block, which is an independent
back-substitution: the tests hold the library's kernel vectors and affine
solutions against the canonical ones read off this RREF.

constant_space_dim is the reference the level-pruning tests hold the
kept-level systems against: the copying rank of a whole level system.
inclusion_matrix wraps one block of that system, W_{i,b}, as a matrix
type for the tests that multiply by it.
"""

from __future__ import annotations

import numpy as np

from spechtdesigns import linalg
from spechtdesigns.linalg import MatFp, MatZ, rank_fp
from spechtdesigns.tabloid import _MAX_GROUND, constant_level_system


def _subtract_rows(m: np.ndarray, p: int, g: np.ndarray, block: np.ndarray, c: int) -> None:
    """m[i, c:] -= g[i] @ block mod p, skipping the rows where g is zero."""
    live = np.flatnonzero(g.any(axis=1))
    if live.size:
        neg = g[live]
        np.subtract(p, neg, out=neg)
        neg[neg == p] = 0
        linalg._matmul_mod(neg, block, p, out=m[:, c:], rows=live)


def blocked_rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row reduce m in place to RREF; return it and the pivot columns.

    After forward elimination, each block of linalg._PANEL pivot rows,
    last block first, is multiplied by the inverse of its unit upper
    triangular pivot part, which reduces it; the rows above then subtract
    their pivot-column entries times the block.
    """
    _, pivots = linalg._eliminate(m, p)
    panel = linalg._PANEL
    for j0 in reversed(range(0, len(pivots), panel)):
        pc = pivots[j0 : j0 + panel]
        k, c = len(pc), pc[0]
        a = m[j0 : j0 + k, pc]
        y = np.eye(k, dtype=np.int64)
        for j in reversed(range(k)):
            tgt = np.flatnonzero(a[:j, j])
            if tgt.size:
                y[tgt, j:] = linalg._reduce(y[tgt, j:] - np.outer(a[tgt, j], y[j, j:]), p)
        block = m[j0 : j0 + k, c:]
        linalg._matmul_mod(y - np.eye(k, dtype=np.int64), block, p, out=block)
        _subtract_rows(m, p, m[:j0, pc], block, c)
    return m, pivots


def kernel_basis(a: MatFp) -> list[np.ndarray]:
    """Canonical basis of the right kernel, one vector per free column:
    vector k for free column f has k[f] = 1 and support otherwise only on
    pivot columns."""
    cols, p = a.shape[1], a.p
    m, pivots = blocked_rref(a.entries.copy(), p)
    pivot_set = set(pivots)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        v[pivots] = -m[: len(pivots), f] % p
        basis.append(v)
    return basis


def canonical_solution(aug: np.ndarray, p: int) -> np.ndarray | None:
    """The solution of A x = b with free coordinates zero, read off the
    RREF of a copy of [A | b]; None when a pivot lands in the rhs column."""
    m, pivots = blocked_rref(aug.copy(), p)
    cols = aug.shape[1] - 1
    if pivots and pivots[-1] == cols:
        return None
    x = np.zeros(cols, dtype=np.int64)
    x[pivots] = m[: len(pivots), cols]
    return x


def constant_space_dim(n: int, b: int, p: int, levels) -> int:
    """Dimension over GF(p) of {u : psi_v(u) constant for all v in levels}."""
    system = MatFp(constant_level_system(n, b, levels), p)
    return system.shape[1] - rank_fp(system)


def inclusion_matrix(n: int, i: int, b: int, p: int | None = None) -> MatFp | MatZ:
    """Inclusion matrix W_{i,b} of i-subsets into b-subsets of [n]; mod p when given.

    It is the element columns of constant_level_system(n, b, [i]).
    """
    if not 0 <= i <= b <= n <= _MAX_GROUND:
        raise ValueError(f"need 0 <= i <= b <= n <= {_MAX_GROUND}")
    arr = constant_level_system(n, b, [i])[:, :-1]
    if p is None:
        return MatZ.from_numpy(arr)
    return MatFp(arr, p)
