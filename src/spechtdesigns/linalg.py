"""Exact dense linear algebra over GF(p) and over the integers.

GF(p) matrices hold word-sized residues (p < 2^31) in numpy int64 arrays.
One blocked forward echelon core serves rank, kernel vectors and affine
solve: pivots are found per column inside a panel, and the rest of the
matrix receives the panel's row operations as matrix products. Those
products run in float64 BLAS only on chunks whose integer dot products are
proven below 2^53, where float64 is exact, and in int64 otherwise; the
bound is asserted where the product is taken. So there is no inexact
arithmetic: float64 never holds a value it cannot represent. Nothing is
cleared above the pivots: a kernel vector or an affine solution is
back-substituted, one column, through the echelon rows (_kernel_vector).
Integer solving works on arbitrary-precision Python ints via a column
echelon form built from unimodular column operations.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .numtheory import require_odd_prime

__all__ = [
    "MatFp",
    "MatZ",
    "rank_fp",
    "solve_integer",
]


def _require_word_prime(p: int) -> int:
    """Validate an odd prime p < 2^31, so int64 products of residues stay exact."""
    if isinstance(p, int) and p >= 1 << 31:
        raise ValueError(f"modulus {p} is too large for int64 residues; need p < 2^31")
    return require_odd_prime(p)


def _require_ints(xs, what: str) -> None:
    """Refuse, naming the first, any item that is not an int or a numpy
    integer; bools, ints to Python, are refused too."""
    for x in xs:
        if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
            raise ValueError(f"{what} must be ints, got {x!r}")


def _int64_array(x, what: str) -> np.ndarray:
    """x as an int64 array; refuse entries that are not int64 integers.

    The dtype decides, in O(1) for an array: floats, bools, uint64 and
    object (ints past int64) are refused. Input that is not an array is
    also checked item by item, since numpy reads True among ints as 1.
    """
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ValueError(f"{what} must be int64 integers, got dtype {arr.dtype}")
    if not isinstance(x, np.ndarray):
        _require_ints(np.asarray(x, dtype=object).flat, what)
    return arr.astype(np.int64, copy=False)


class MatFp:
    """Matrix over GF(p); entries are int64 residues in [0, p).

    The given entries must be int64 integers (see _int64_array); they are
    reduced mod p.
    """

    __slots__ = ("entries", "p")

    def __init__(self, entries, p: int):
        _require_word_prime(p)
        arr = _int64_array(entries, "matrix entries")
        if arr.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {arr.shape}")
        self.entries = arr % p
        self.p = p

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape

    def __matmul__(self, other: "MatFp") -> "MatFp":
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        return MatFp(_matmul_mod(self.entries, other.entries, self.p), self.p)

    def apply(self, vec) -> np.ndarray:
        """Matrix-vector product mod p."""
        v = _int64_array(vec, "vector entries") % self.p
        return _matmul_mod(self.entries, v.reshape(-1, 1), self.p).ravel()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MatFp)
            and self.p == other.p
            and self.entries.shape == other.entries.shape
            and bool(np.array_equal(self.entries, other.entries))
        )

    def __repr__(self) -> str:
        return f"MatFp(shape={self.shape}, p={self.p})"


# Columns per elimination panel; 256 measured fastest on the sweep systems.
_PANEL = 256
# Bytes of float64 temporaries per column slab of one modular product.
_SLAB_BYTES = 2 << 20
# float64 represents every integer below 2^53 exactly.
_FLOAT_EXACT = 1 << 53
_INT64_MAX = (1 << 63) - 1


def _float_chunk(p: int) -> int:
    """Longest inner dimension k with k (p-1)^2 + p < 2^53, or 0 if none."""
    return max(0, (_FLOAT_EXACT - 1 - p) // ((p - 1) ** 2))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None,
                rows=slice(None)) -> np.ndarray:
    """Exact out[rows] = (out[rows] + a @ b) mod p for residue matrices.

    out is updated in place and returned; without it the product alone is.
    b may share memory with out: each slab of b is copied before out is
    written.

    Entries of a, b and out lie in [0, p). Every partial sum of a dot
    product is then a nonnegative integer no larger than the whole, so a
    dot product of length k is exact in float64 while k (p-1)^2 + p < 2^53.
    The inner dimension is cut into chunks that meet that bound, and the
    int64 accumulator is reduced mod p after each. Primes too large for a
    single float64 term take the same route with int64 products, which
    numpy computes without BLAS. Columns go in slabs, so temporaries stay
    O(rows x slab).
    """
    if out is None:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    chunk, dtype = _float_chunk(p), np.float64
    if chunk == 0:
        chunk, dtype = (_INT64_MAX - p) // ((p - 1) ** 2), np.int64
    a = a.astype(dtype, copy=False)
    inner = a.shape[1]
    width = max(1, _SLAB_BYTES // (8 * max(a.shape[0], inner, 1)))
    for s0 in range(0, b.shape[1], width):
        cols = slice(s0, s0 + width)
        bs = b[:, cols].astype(dtype)
        acc = out[rows, cols]
        for lo in range(0, inner, chunk):
            hi = min(lo + chunk, inner)
            if dtype is np.float64:
                assert (hi - lo) * (p - 1) ** 2 + p < _FLOAT_EXACT, "inexact float64 product"
            np.add(acc, a[:, lo:hi] @ bs[lo:hi], out=acc, casting="unsafe")
            _reduce(acc, p)
        out[rows, cols] = acc
    return out


def _reduce(x: np.ndarray, p: int) -> np.ndarray:
    """Reduce x mod p in place and return it."""
    # numpy's floor division by a scalar is several times faster than its remainder
    q = x // p
    q *= p
    x -= q
    return x


def _eliminate(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Row reduce m in place to forward echelon form with unit pivots;
    return it and the pivot columns. Entries above the pivots stay.

    Columns are taken in panels of _PANEL. Inside a panel the pivots are
    found one at a time as in plain Gaussian elimination, but only the
    panel's columns are updated; the rest of the rows then receive every
    row operation of the panel as two matrix products. Pivot choice (the
    first nonzero row at or below the current one) is the plain one, so
    the pivots and the reduced matrix are exactly those of per-pivot
    elimination.
    """
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        pc, inv, f = _factor_panel(m, p, r, c0, c1)
        if pc and c1 < cols:
            _update_trailing(m, p, r, f, inv, c1)
        pivots += [c0 + c for c in pc]
        r += len(pc)
    return m, pivots


def _factor_panel(m: np.ndarray, p: int, r0: int, c0: int, c1: int):
    """Eliminate m[r0:, c0:c1] per pivot.

    Returns the local pivot columns, the pivot inverses and the multipliers
    F, one column per pivot: F[i, j] is what pivot j subtracted from row
    r0 + i. As in LU, row operations touch only columns right of the
    pivot, so each multiplier stays below its pivot until it is read out
    here. Only columns that are nonzero below r0 at the start can hold a
    pivot.
    """
    panel = m[r0:, c0:c1]
    pc: list[int] = []
    inv: list[int] = []
    for c in np.flatnonzero(panel.any(axis=0)).tolist():
        r = len(pc)
        if r0 + r == m.shape[0]:
            break
        nz = np.flatnonzero(panel[r:, c])
        if nz.size == 0:
            continue
        if nz[0]:
            pr = r0 + r + int(nz[0])
            m[[r0 + r, pr], c0:] = m[[pr, r0 + r], c0:]
        s = pow(int(panel[r, c]), p - 2, p)
        panel[r, c:] = _reduce(panel[r, c:] * s, p)
        # the old row r, now at the first nonzero's place, is zero in column c
        tgt = r + nz[1:]
        if tgt.size:
            panel[tgt, c + 1 :] = _reduce(panel[tgt, c + 1 :] - np.outer(panel[tgt, c], panel[r, c + 1 :]), p)
        pc.append(c)
        inv.append(s)
    f = panel[:, pc]
    # echelon form: zero below each pivot
    panel[: len(pc), pc] = np.triu(f[: len(pc)])
    panel[len(pc) :, pc] = 0
    return pc, inv, f


def _update_trailing(m: np.ndarray, p: int, r0: int, f: np.ndarray, inv: list[int], c1: int) -> None:
    """Apply a factored panel's row operations to the columns from c1 on.

    With S the pivot inverses and F the multipliers (F_low among the k
    pivot rows, F_bot below them), the pivot rows become
    U = (I + S F_low)^-1 S T_top and the rows below T_bot - F_bot U.
    The k x k matrix is built by replaying the panel on the identity.
    """
    k = len(inv)
    x = np.eye(k, dtype=np.int64)
    for j in range(k):
        x[j, : j + 1] = _reduce(x[j, : j + 1] * inv[j], p)
        tgt = j + 1 + np.flatnonzero(f[j + 1 : k, j])
        if tgt.size:
            x[tgt, : j + 1] = _reduce(x[tgt, : j + 1] - np.outer(f[tgt, j], x[j, : j + 1]), p)
    # X T = T + (X - I) T keeps the product in place; X - I is still a
    # residue matrix, since its diagonal holds the inverses minus one
    top = m[r0 : r0 + k, c1:]
    _matmul_mod(x - np.eye(k, dtype=np.int64), top, p, out=top)
    _subtract_rows(m, p, r0 + k, f[k:], top, c1)


def _subtract_rows(m: np.ndarray, p: int, r0: int, g: np.ndarray, block: np.ndarray, c: int) -> None:
    """m[r0 + i, c:] -= g[i] @ block mod p, skipping the rows where g is zero."""
    live = np.flatnonzero(g.any(axis=1))
    if live.size:
        neg = g[live]
        np.subtract(p, neg, out=neg)
        neg[neg == p] = 0
        _matmul_mod(neg, block, p, out=m[:, c:], rows=r0 + live)


def rank_fp(a: MatFp) -> int:
    """Rank over GF(p)."""
    _, pivots = _eliminate(a.entries.copy(), a.p)
    return len(pivots)


def _kernel_vector(m: np.ndarray, p: int, pivots: list[int], free: int, first: int = 0) -> np.ndarray:
    """Kernel vector of the forward echelon form m: 1 at free column
    `free`, 0 at the other free columns, back-substituted through the
    pivot rows from `first` on; earlier rows' pivot coordinates stay 0.

    A row reads only coordinates right of its unit pivot, which the rows
    below it fix, so the solved ones are exact. t holds each unsolved
    row's sum over the solved columns; its terms stay below p + p^2 < 2^63.
    """
    x = np.zeros(m.shape[1], dtype=np.int64)
    x[free] = 1
    t = m[first : len(pivots), free].copy()
    for i in range(len(pivots) - 1, first - 1, -1):
        xi = -int(t[i - first]) % p
        if xi:
            x[pivots[i]] = xi
            t[: i - first] = (t[: i - first] + m[first:i, pivots[i]] * xi) % p
    return x


def _solve_augmented(aug: np.ndarray, p: int) -> np.ndarray | None:
    """The canonical echelon solution (free coordinates zero) of A x = b
    over GF(p), or None when the system is inconsistent.

    [A | b] is given as one residue array and eliminated forward, in
    place. A pivot in the rhs column certifies inconsistency. Otherwise
    the rhs column is free, and its kernel vector (1 there, 0 at the other
    free columns) is minus the solution.
    """
    _, pivots = _eliminate(aug, p)
    cols = aug.shape[1] - 1
    if pivots and pivots[-1] == cols:
        return None
    return -_kernel_vector(aug, p, pivots, cols)[:cols] % p


class MatZ:
    """Integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        data = tuple(map(tuple, rows))
        _require_ints(chain.from_iterable(data), "matrix entries")
        data = tuple(tuple(map(int, row)) for row in data)
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        self.rows = data

    @classmethod
    def from_numpy(cls, arr: np.ndarray) -> "MatZ":
        return cls(arr.tolist())

    @property
    def shape(self) -> tuple[int, int]:
        if not self.rows:
            return (0, 0)
        return (len(self.rows), len(self.rows[0]))

    def apply(self, vec: Sequence[int]) -> list[int]:
        _require_ints(vec, "vector entries")
        return [sum(a * x for a, x in zip(row, vec)) for row in self.rows]

    def __eq__(self, other) -> bool:
        return isinstance(other, MatZ) and self.rows == other.rows

    def __repr__(self) -> str:
        return f"MatZ(shape={self.shape})"


def solve_integer(a: MatZ, rhs: Sequence[int]) -> list[int] | None:
    """One integer solution of A x = rhs, or None if there is none.

    Reduces A to column echelon form H = A U with U unimodular (Hermite
    style, Euclidean column operations pivoting on the smallest nonzero
    entry of each row), then forward substitutes. Divisibility failures or
    a nonzero residual mean the system has no integral solution. The
    result is verified against A before it is returned.
    """
    m, n = a.shape
    _require_ints(rhs, "rhs entries")
    b = [int(x) for x in rhs]
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} != row count {m}")
    # column-major working copies
    h = [[a.rows[i][j] for i in range(m)] for j in range(n)]
    u = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    pivots: list[tuple[int, int]] = []
    c = 0
    for r in range(m):
        if c == n:
            break
        while True:
            live = [j for j in range(c, n) if h[j][r]]
            if not live:
                break
            j0 = min(live, key=lambda j: abs(h[j][r]))
            if j0 != c:
                h[c], h[j0] = h[j0], h[c]
                u[c], u[j0] = u[j0], u[c]
            if h[c][r] < 0:
                h[c] = [-x for x in h[c]]
                u[c] = [-x for x in u[c]]
            piv = h[c][r]
            done = True
            for j in range(c + 1, n):
                if h[j][r]:
                    q = h[j][r] // piv  # floor keeps remainders in [0, piv)
                    hc, uc = h[c], u[c]
                    h[j] = [x - q * y for x, y in zip(h[j], hc)]
                    u[j] = [x - q * y for x, y in zip(u[j], uc)]
                    if h[j][r]:
                        done = False
            if done:
                break
        if c < n and h[c][r]:
            pivots.append((r, c))
            c += 1
    # forward substitution down the echelon columns
    y = [0] * n
    resid = list(b)
    for r, cc in pivots:
        piv = h[cc][r]
        if resid[r] % piv:
            return None
        t = resid[r] // piv
        if t:
            y[cc] = t
            col = h[cc]
            resid = [rv - t * hv for rv, hv in zip(resid, col)]
    if any(resid):
        return None
    x = [0] * n
    for j in range(n):
        t = y[j]
        if t:
            uj = u[j]
            for i in range(n):
                if uj[i]:
                    x[i] += t * uj[i]
    if a.apply(x) != b:
        raise AssertionError("integer solver produced a non-solution")
    return x
