"""Exact dense linear algebra over GF(p) and over the integers.

GF(p) works on word-sized residues (p < 2^31). MatFp holds them in int64;
the elimination takes them in any signed integer type that holds p - 1,
and _narrowest_int is the one rule that picks the narrowest such type for
a bound, so the oracle's level system is int8 for p <= 127.
One blocked forward echelon core serves rank, kernel vectors and affine
solve: pivots are found per column inside a panel, whose work copy holds
only the rows nonzero on the panel and records the row operations as
coefficients on the pivot rows, and the rest of the matrix receives them
as one row permutation and one matrix product. That product runs in
float32 BLAS when its integer dot products are proven below 2^24, in
float64 BLAS on chunks proven below 2^53, and in int64 otherwise, and
each slab is accumulated in the narrowest integer type that holds a
chunk's bound. Inside the panel, rows go unreduced between updates only
while proven to fit the work copy's type, the narrowest that holds that
bound. Each bound is asserted where it is taken, so there is no inexact
arithmetic: no float holds a value it cannot represent, and no integer
type wraps. Nothing is cleared above the pivots: each vector is
a kernel vector completed bottom-up from preset coordinates, one column at
a time (_kernel_vector); A x = b presets the last coordinate of [A | -b].
Integer solving works on arbitrary-precision Python ints via a column
echelon form built from unimodular column operations, each written once on
a column of [A; I], so the unimodular U is carried under A as they run.
"""

from __future__ import annotations

from itertools import chain
from typing import Sequence

import numpy as np

from .numtheory import _require_ints, require_odd_prime

__all__ = [
    "MatFp",
    "MatZ",
    "rank_fp",
    "solve_integer",
]


def _require_word_prime(p: int) -> int:
    """Validate an odd prime p < 2^31, so int64 products of residues stay
    exact, and return it as an int."""
    _require_ints((p,), "moduli")
    if p >= 1 << 31:
        raise ValueError(f"modulus {p} is too large for int64 residues; need p < 2^31")
    return require_odd_prime(p)


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


# Columns per elimination panel. On the 84 sweep oracle systems and at
# brute_force_h1(7, 7, 3) 128 ties 192 or is a few percent faster, and
# 64 and 256 are slower. The work array is kept rows x 256 (int16 for
# p <= 7): at most 0.23 MB at (7, 6, 3) and 0.55 MB at (7, 7, 3).
_PANEL = 128
# Bytes of one column slab's temporaries in a modular product, counted in
# the types used (float32 and int16 for p <= 13 in the elimination). This
# sets the elimination's peak: 2.5 MB at (7, 6, 3) and 3.3 MB at (7, 7, 3).
# 1 to 8 MiB take the same time there.
_SLAB_BYTES = 2 << 20
# float32 and float64 represent every integer below 2^24 and 2^53 exactly.
_FLOAT32_EXACT = 1 << 24
_FLOAT_EXACT = 1 << 53
_INT64_MAX = (1 << 63) - 1


def _narrowest_int(bound: int) -> type:
    """The narrowest of int8, int16, int32 and int64 that holds every integer
    of absolute value at most bound."""
    for t in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max:
            return t
    raise ValueError(f"no signed integer type holds {bound}")


def _float_chunk(p: int) -> int:
    """Longest inner dimension k with k (p-1)^2 + p < 2^53, or 0 if none."""
    return max(0, (_FLOAT_EXACT - 1 - p) // ((p - 1) ** 2))


def _lazy(p: int) -> bool:
    """Whether (_PANEL (p-1)^2 + p) p fits in int64, so that _factor_panel
    may leave rows unreduced between updates."""
    return (_PANEL * (p - 1) ** 2 + p) * p <= _INT64_MAX


def _product_route(p: int, inner: int) -> tuple[int, type, type]:
    """The chunk length, product type and accumulator type of _matmul_mod
    for residues mod p and an inner dimension of inner.

    float32 when inner (p-1)^2 + p < 2^24, else float64 chunks while a
    single term fits 2^53, else int64; the accumulator is the narrowest
    type that holds a chunk's bound, whose exactness is asserted here.
    """
    term = (p - 1) ** 2
    if inner * term + p < _FLOAT32_EXACT:
        chunk, dtype, exact = inner, np.float32, _FLOAT32_EXACT
    elif _float_chunk(p):
        chunk, dtype, exact = min(_float_chunk(p), inner), np.float64, _FLOAT_EXACT
    else:
        chunk, dtype, exact = min((_INT64_MAX - p) // term, inner), np.int64, _INT64_MAX + 1
    bound = chunk * term + p
    assert bound < exact, "inexact product"
    # an empty inner dimension still needs a step for range()
    return max(chunk, 1), dtype, _narrowest_int(bound)


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int, out: np.ndarray | None = None,
                rows=slice(None)) -> np.ndarray:
    """Exact out[rows] = (out[rows] + a @ b) mod p for residue matrices.

    out is updated in place and returned; without it the product alone is,
    in int64. a, b and out may have any integer type that holds their
    residues. b may share memory with out: each slab of b is copied before
    out is written.

    Entries of a, b and out lie in [0, p). Every partial sum of a dot
    product is then a nonnegative integer no larger than the whole, so a
    dot product of length k is exact in float32 while k (p-1)^2 + p < 2^24
    and in float64 while that is below 2^53, and with a residue of out
    added it fits any integer type that holds k (p-1)^2 + p. The product
    takes float32 when the whole inner dimension meets the first bound.
    Otherwise the inner dimension is cut into chunks that meet the second,
    and primes too large for a single float64 term take int64 products,
    which numpy computes without BLAS (_product_route). Each chunk's
    product is cast to the slab's accumulator, the narrowest type that
    holds a chunk's bound (int16 for p <= 13 at k = 128), and the slab is
    reduced mod p after each chunk. Columns go in slabs of about
    _SLAB_BYTES of temporaries, counted in the types used, so they stay
    O(rows x slab).
    """
    if out is None:
        out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    inner = a.shape[1]
    chunk, dtype, acc_type = _product_route(p, inner)
    a = a.astype(dtype, copy=False)
    # bytes per column: b's slab and the product in dtype, then the
    # accumulator and either the product's cast or _reduce's quotient
    size = (np.dtype(dtype).itemsize * (inner + a.shape[0])
            + 2 * np.dtype(acc_type).itemsize * a.shape[0])
    width = max(1, _SLAB_BYTES // max(size, 1))
    for s0 in range(0, b.shape[1], width):
        cols = slice(s0, s0 + width)
        bs = b[:, cols].astype(dtype)
        acc = out[rows, cols].astype(acc_type, copy=False)
        for lo in range(0, inner, chunk):
            acc += (a[:, lo : lo + chunk] @ bs[lo : lo + chunk]).astype(acc_type, copy=False)
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

    m holds residues in any signed integer type that holds p - 1; the
    work stays exact in whatever type m has, and an m whose type cannot
    hold p - 1 is refused.

    Columns are taken in panels of _PANEL. Inside a panel the pivots are
    found one at a time as in plain Gaussian elimination, on a work copy
    of the panel's nonzero rows that also records each row's operations
    as coefficients on the pivot rows (_factor_panel). The rows that took
    an operation then receive the whole panel's row operations in the
    trailing columns as one row permutation and one matrix product
    (_matmul_mod); a row that is zero on the panel takes none. Pivot
    choice (the first nonzero row at or below the current one) is the
    plain one, so the pivots and the reduced matrix are exactly those of
    per-pivot elimination.
    """
    if m.dtype.kind != "i" or np.iinfo(m.dtype).max < p - 1:
        raise ValueError(f"residues mod {p} do not fit a {m.dtype} matrix")
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c0 in range(0, cols, _PANEL):
        if r == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        pc = _factor_panel(m, p, r, c0, c1)
        pivots += [c0 + c for c in pc]
        r += len(pc)
    return m, pivots


def _factor_panel(m: np.ndarray, p: int, r0: int, c0: int, c1: int) -> list[int]:
    """Eliminate m[r0:, c0:c1] per pivot, apply the same row operations to
    the columns from c1 on, and return the local pivot columns.

    The work array is a copy of the panel with one coefficient column per
    possible pivot to its right. A row that becomes pivot j gets a 1 in
    coefficient column j before it is scaled, and each pivot's update runs
    over the coefficient columns too. So at the end coefficient row i, C[i],
    writes what became of row i in terms of the k pivot rows as they were
    before the panel: C[i] itself for a pivot row, row i plus C[i] below
    them. The trailing columns, untouched so far, are permuted like the
    rows and receive (C - [I; 0]) times their first k rows in one product.
    Only columns that are nonzero below r0 at the start can hold a pivot.

    A row that is zero on the panel is never a pivot's first nonzero and
    takes no update, so it stays zero and its coefficient row stays zero.
    The work array therefore holds only the panel's nonzero rows and its
    first w rows, where the pivots land; at (7, 6, 3) that is at most 445
    of 1,573. The permutation, the moved rows and the rows the product
    updates are mapped back through their row indices, at.

    While _lazy(p), rows are not reduced after an update: an entry starts
    as a residue and takes at most one update per pivot, each below
    (p-1)^2, and a pivot row is scaled by a residue before it is reduced,
    so no entry passes (w (p-1)^2 + p) p and the work array takes the
    narrowest type that holds it: int16 for p <= 7 at w = 128. The pivot
    column is reduced before its nonzero search, so the pivot and the
    multipliers are residues; the rest is reduced once, at the end.
    Otherwise the work array is int64 and each update is reduced.
    """
    w = c1 - c0
    lazy = _lazy(p)
    bound = (w * (p - 1) ** 2 + p) * p
    assert not lazy or bound <= _INT64_MAX, "int64 overflow in unreduced rows"
    panel = m[r0:, c0:c1]
    keep = panel.any(axis=1)
    keep[:w] = True  # pivot j lands in row r0 + j
    at = np.flatnonzero(keep)
    work = np.zeros((at.size, 2 * w), dtype=_narrowest_int(bound) if lazy else np.int64)
    work[:, :w] = panel[at]
    perm = list(range(work.shape[0]))
    pc: list[int] = []
    for c in np.flatnonzero(work[:, :w].any(axis=0)).tolist():
        r = len(pc)
        if r == work.shape[0]:
            break
        col = work[r:, c]
        if lazy:
            np.remainder(col, p, out=col)  # on one column, faster than _reduce
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        if nz[0]:
            pr = r + int(nz[0])
            row = work[r].copy()
            work[r] = work[pr]
            work[pr] = row
            perm[r], perm[pr] = perm[pr], perm[r]
        end = w + r + 1
        row = work[r, c:end]
        row[-1] = 1
        row *= pow(int(row[0]), p - 2, p)
        np.remainder(row, p, out=row)
        # the old row r, now at the first nonzero's place, is zero in column c
        tgt = r + nz[1:]
        if tgt.size:
            upd = col[nz[1:], None] * row
            if lazy:
                work[tgt, c:end] -= upd
            else:
                work[tgt, c:end] = _reduce(work[tgt, c:end] - upd, p)
        pc.append(c)
    k = len(pc)
    if lazy:
        _reduce(work[:, : w + k], p)
    panel[at] = work[:, :w]
    if k and c1 < m.shape[1]:
        perm = np.array(perm)
        moved = np.flatnonzero(perm != np.arange(perm.size))
        m[r0 + at[moved], c1:] = m[r0 + at[perm[moved]], c1:]
        coef = work[:, w : w + k]
        # C[j, j] is the inverse of pivot j, so C - [I; 0] is still a residue matrix
        coef[np.arange(k), np.arange(k)] -= 1
        live = np.flatnonzero(coef.any(axis=1))
        _matmul_mod(coef[live], m[r0 : r0 + k, c1:], p, out=m[:, c1:], rows=r0 + at[live])
    return pc


def rank_fp(a: MatFp) -> int:
    """Rank over GF(p)."""
    _, pivots = _eliminate(a.entries.copy(), a.p)
    return len(pivots)


def _kernel_vector(m: np.ndarray, p: int, pivots: list[int], x: np.ndarray) -> np.ndarray:
    """A copy of the residue vector x completed to a kernel vector of the
    forward echelon form m: the pivot rows, last first, each move their
    pivot coordinate; every other coordinate stays.

    A row reads only coordinates right of its unit pivot, which the rows
    below it fix, so the solved ones are exact; a moved preset shows that
    none is consistent. t holds each unsolved row's residual: m x through
    _matmul_mod, since three terms of (p-1)^2 can pass 2^63, then updates
    below p + p^2 < 2^63, taken in int64 whatever m's type.
    """
    x = x.copy()
    nz = np.flatnonzero(x)
    t = _matmul_mod(m[: len(pivots), nz], x[nz, None], p).ravel()
    for i in range(len(pivots) - 1, -1, -1):
        d = -int(t[i]) % p
        if d:
            x[pivots[i]] = (x[pivots[i]] + d) % p
            t[:i] = (t[:i] + m[:i, pivots[i]].astype(np.int64) * d) % p
    return x


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

    Column reduces [A; I] to [H; U], with H = A U in column echelon form
    and U unimodular (Hermite style, Euclidean column operations pivoting
    on the smallest nonzero entry of each row), so that U is carried under
    A by the same operations. Each pivot column is final once found, and
    forward substitution takes it then: y_c = residual / pivot, and x gains
    y_c times column c of U. A divisibility failure or a nonzero residual
    means the system has no integral solution. The result is verified
    against A before it is returned.
    """
    m, n = a.shape
    _require_ints(rhs, "rhs entries")
    b = [int(x) for x in rhs]
    if len(b) != m:
        raise ValueError(f"rhs length {len(b)} != row count {m}")
    # column j of [A; I], reduced in place to column j of [H; U]
    cols = [[row[j] for row in a.rows] + [int(i == j) for i in range(n)]
            for j in range(n)]
    x = [0] * n
    resid = list(b)
    c = 0
    for r in range(m):
        if c == n:
            break
        while True:
            live = [j for j in range(c, n) if cols[j][r]]
            if not live:
                break
            j0 = min(live, key=lambda j: abs(cols[j][r]))
            cols[c], cols[j0] = cols[j0], cols[c]
            if cols[c][r] < 0:
                cols[c] = [-v for v in cols[c]]
            pc = cols[c]
            piv = pc[r]
            done = True
            for j in range(c + 1, n):
                if cols[j][r]:
                    q = cols[j][r] // piv  # floor keeps remainders in [0, piv)
                    cols[j] = [v - q * w for v, w in zip(cols[j], pc)]
                    if cols[j][r]:
                        done = False
            if done:
                break
        pc = cols[c]
        if pc[r]:
            # later operations touch only columns right of c, all zero in rows
            # up to r: column c is final and rows up to r keep their residual
            t, rem = divmod(resid[r], pc[r])
            if rem:
                return None
            if t:
                resid = [rv - t * hv for rv, hv in zip(resid, pc)]
                x = [xv + t * uv for xv, uv in zip(x, pc[m:])]
            c += 1
    if any(resid):
        return None
    if a.apply(x) != b:
        raise AssertionError(f"integer solver produced a non-solution of a {m} x {n} system")
    return x
