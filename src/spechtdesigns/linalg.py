"""Exact dense linear algebra over GF(p) and over the integers.

GF(p) matrices hold word-sized residues in numpy arrays; elimination is
vectorised row arithmetic followed by a reduction mod p, so no intermediate
ever leaves machine range (p < 2^31, so p^2 + p < 2^63).
Integer solving works on arbitrary-precision Python ints via a column
echelon form built from unimodular column operations; nothing here ever
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .numtheory import require_odd_prime

__all__ = [
    "MatFp",
    "MatZ",
    "AffineSolution",
    "rank_fp",
    "rank_fp_prefix",
    "kernel_basis_fp",
    "solve_affine_fp",
    "solve_integer",
]


def _require_word_prime(p: int) -> int:
    """Validate an odd prime p < 2^31, so int64 products of residues stay exact."""
    if isinstance(p, int) and p >= 1 << 31:
        raise ValueError(f"modulus {p} is too large for int64 residues; need p < 2^31")
    return require_odd_prime(p)


class MatFp:
    """Matrix over GF(p); entries are int64 residues in [0, p)."""

    __slots__ = ("entries", "p")

    def __init__(self, entries, p: int):
        _require_word_prime(p)
        arr = np.asarray(entries, dtype=np.int64)
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
        v = np.asarray(vec, dtype=np.int64) % self.p
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


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # block the inner dimension so the int64 accumulator cannot overflow:
    # each partial product is < p^2, so p^2 * block must stay below 2^63
    block = max(1, (1 << 62) // (p * p))
    if a.shape[1] <= block:
        return (a @ b) % p
    acc = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    for lo in range(0, a.shape[1], block):
        hi = lo + block
        acc = (acc + a[:, lo:hi] @ b[lo:hi]) % p
    return acc


def _eliminate(m: np.ndarray, p: int, full: bool) -> tuple[np.ndarray, list[int]]:
    """Row reduce in place. full=True gives RREF, else forward echelon only."""
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        if inv != 1:
            m[r] = m[r] * inv % p
        if full:
            col = m[:, c].copy()
            col[r] = 0
            tgt = np.nonzero(col)[0]
        else:
            tgt = r + 1 + np.nonzero(m[r + 1 :, c])[0]
        if tgt.size:
            m[tgt] = (m[tgt] - np.outer(m[tgt, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank_fp(a: MatFp) -> int:
    """Rank over GF(p)."""
    _, pivots = _eliminate(a.entries.copy(), a.p, full=False)
    return len(pivots)


def rank_fp_prefix(a: MatFp, prefix: int) -> tuple[int, int]:
    """Rank of the whole matrix and of its first `prefix` columns, one pass.

    Left-to-right elimination makes the pivot count inside the first k
    columns equal the rank of that column block, so both numbers fall out
    of a single sweep.
    """
    if not 0 <= prefix <= a.shape[1]:
        raise ValueError(f"prefix {prefix} out of range for {a.shape[1]} columns")
    _, pivots = _eliminate(a.entries.copy(), a.p, full=False)
    return len(pivots), sum(1 for c in pivots if c < prefix)


def kernel_basis_fp(a: MatFp) -> list[np.ndarray]:
    """Basis of the right kernel, one vector per free column.

    Built from the RREF, so the result is the canonical column-reduced
    basis: vector k for free column f has k[f] = 1 and support otherwise
    only on pivot columns.
    """
    m, pivots = _eliminate(a.entries.copy(), a.p, full=True)
    return _kernel_from_rref(m, pivots, a.shape[1], a.p)


def _kernel_from_rref(m: np.ndarray, pivots: list[int], cols: int, p: int) -> list[np.ndarray]:
    """Kernel basis of the first `cols` columns of an RREF with these pivots.

    Vector k for free column f has k[f] = 1, k[c] = -m[i, f] for the i-th
    pivot column c, and zero elsewhere.
    """
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


@dataclass(frozen=True)
class AffineSolution:
    """Solution set of A x = rhs over GF(p): particular + kernel basis.

    particular is None when the system is inconsistent. The kernel basis
    is only populated on request; wide systems can have an enormous one.
    """

    particular: np.ndarray | None
    kernel: tuple[np.ndarray, ...]

    @property
    def consistent(self) -> bool:
        return self.particular is not None


def solve_affine_fp(a: MatFp, rhs, want_kernel: bool = False) -> AffineSolution:
    """Solve A x = rhs over GF(p).

    The particular solution is the canonical echelon one (free coordinates
    zero). Pass want_kernel=True to also get the full kernel basis; it has
    one vector per free column, so leave it off for wide systems.
    """
    p = a.p
    b = np.asarray(rhs, dtype=np.int64).ravel() % p
    if b.shape[0] != a.shape[0]:
        raise ValueError(f"rhs length {b.shape[0]} != row count {a.shape[0]}")
    aug = np.hstack([a.entries, b.reshape(-1, 1)])
    m, pivots = _eliminate(aug, p, full=True)
    cols = a.shape[1]
    # a pivot in the rhs column certifies inconsistency
    if pivots and pivots[-1] == cols:
        particular = None
        a_pivots = pivots[:-1]
    else:
        a_pivots = pivots
        particular = np.zeros(cols, dtype=np.int64)
        for i, c in enumerate(a_pivots):
            particular[c] = m[i, cols]
    basis = _kernel_from_rref(m, a_pivots, cols, p) if want_kernel else []
    return AffineSolution(particular=particular, kernel=tuple(basis))


class MatZ:
    """Integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[int]]):
        data = tuple(tuple(int(x) for x in row) for row in rows)
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
