"""Tabloids for two-row shapes: b-subsets of [n], module elements, psi maps.

A tabloid of shape (n-b, b) is determined by its second row, a b-subset of
{1..n}. Subsets are bitmask ints (bit i-1 is element i), listed in
colexicographic order, which on fixed-size subsets coincides with numeric
order of the masks. Vectors of coefficients are indexed by that order.

psi_v sends a b-subset to the formal sum of its v-subsets. Its matrix is
the 0/1 inclusion matrix W_{v,b} of v-subsets into b-subsets. One walk
from level b down computes every level: a step deletes a single element
from each k-subset, and since W_{k-1,k} W_{k,b} = (b-k+1) W_{k-1,b}, an
exact division by b-k+1 turns psi_k into psi_(k-1). The inner loop stays
vectorised and works on int64 and Python-int entries alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable, Iterator, Mapping

import numpy as np

from .linalg import MatFp, MatZ, _require_word_prime, rank_fp
from .numtheory import all_binoms_divisible, require_odd_prime

__all__ = [
    "Partition2",
    "subsets_colex",
    "mask_from_members",
    "members_from_mask",
    "colex_rank",
    "Element",
    "f_lambda",
    "psi",
    "psi_int",
    "psi_levels",
    "inclusion_matrix",
    "inclusion_stack",
    "specht_membership",
    "specht_dim",
    "james_check",
    "h0_dim",
    "element_to_json",
    "element_from_json",
]

_MAX_GROUND = 62  # masks live in int64


@dataclass(frozen=True, slots=True)
class Partition2(object):
    """Two-row partition (a, b) with a >= b >= 1."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if not (isinstance(self.a, int) and isinstance(self.b, int)):
            raise ValueError("partition parts must be ints")
        if not self.a >= self.b >= 1:
            raise ValueError(f"need a >= b >= 1, got ({self.a}, {self.b})")

    @property
    def n(self) -> int:
        return self.a + self.b


@lru_cache(maxsize=None)
def subsets_colex(n: int, k: int) -> np.ndarray:
    """All k-subset masks of [n] in colex (= numeric) order, read-only."""
    if not 0 <= k <= n <= _MAX_GROUND:
        raise ValueError(f"need 0 <= k <= n <= {_MAX_GROUND}, got n={n}, k={k}")
    if k == 0:
        arr = np.array([0], dtype=np.int64)
    else:
        out = []
        x = (1 << k) - 1
        limit = 1 << n
        while x < limit:  # Gosper's hack: next mask with the same popcount
            out.append(x)
            u = x & -x
            v = x + u
            x = v | (((x ^ v) // u) >> 2)
        arr = np.array(out, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def mask_from_members(members: Iterable[int], n: int) -> int:
    m = 0
    for x in members:
        if not 1 <= x <= n:
            raise ValueError(f"member {x} outside ground set [1, {n}]")
        bit = 1 << (x - 1)
        if m & bit:
            raise ValueError(f"repeated member {x}")
        m |= bit
    return m


def members_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    pos = 1
    while mask:
        if mask & 1:
            out.append(pos)
        mask >>= 1
        pos += 1
    return tuple(out)


def colex_rank(mask: int, n: int, k: int) -> int:
    """Index of a k-subset mask within subsets_colex(n, k)."""
    arr = subsets_colex(n, k)
    i = int(np.searchsorted(arr, mask))
    if i >= len(arr) or int(arr[i]) != mask:
        raise ValueError(f"mask {mask:#x} is not a {k}-subset of [{n}]")
    return i


class Element:
    """GF(p) linear combination of b-subsets of [n], stored densely.

    The ground shape is the composition (n-b, b); a >= b is not required
    here so that design solvers may return blocks covering more than half
    the ground set. Partition-specific entry points validate Partition2
    themselves.
    """

    __slots__ = ("n", "b", "p", "vec")

    def __init__(self, n: int, b: int, p: int, vec):
        _require_word_prime(p)
        if not 1 <= b <= n <= _MAX_GROUND:
            raise ValueError(f"need 1 <= b <= n <= {_MAX_GROUND}, got n={n}, b={b}")
        arr = np.asarray(vec, dtype=np.int64) % p
        want = math.comb(n, b)
        if arr.shape != (want,):
            raise ValueError(f"coefficient vector must have length C({n},{b}) = {want}")
        self.n = n
        self.b = b
        self.p = p
        self.vec = arr

    @property
    def a(self) -> int:
        return self.n - self.b

    @classmethod
    def zero(cls, n: int, b: int, p: int) -> "Element":
        return cls(n, b, p, np.zeros(math.comb(n, b), dtype=np.int64))

    @classmethod
    def ones(cls, n: int, b: int, p: int) -> "Element":
        return cls(n, b, p, np.ones(math.comb(n, b), dtype=np.int64))

    @classmethod
    def from_subsets(cls, n: int, b: int, p: int,
                     coeffs: Mapping[tuple[int, ...], int]) -> "Element":
        vec = np.zeros(math.comb(n, b), dtype=np.int64)
        for members, c in coeffs.items():
            ms = tuple(sorted(members))
            if len(ms) != b:
                raise ValueError(f"subset {ms} does not have size {b}")
            vec[colex_rank(mask_from_members(ms, n), n, b)] = c % p
        return cls(n, b, p, vec)

    def support(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (members, coeff) pairs in colex order."""
        masks = subsets_colex(self.n, self.b)
        for i in np.nonzero(self.vec)[0]:
            yield members_from_mask(int(masks[i])), int(self.vec[i])

    def coeff(self, members: Iterable[int]) -> int:
        return int(self.vec[colex_rank(mask_from_members(members, self.n), self.n, self.b)])

    def is_zero(self) -> bool:
        return not self.vec.any()

    def _like(self, other: "Element") -> None:
        if (self.n, self.b, self.p) != (other.n, other.b, other.p):
            raise ValueError("elements live in different modules")

    def __add__(self, other: "Element") -> "Element":
        self._like(other)
        return Element(self.n, self.b, self.p, self.vec + other.vec)

    def __sub__(self, other: "Element") -> "Element":
        self._like(other)
        return Element(self.n, self.b, self.p, self.vec - other.vec)

    def __rmul__(self, scalar: int) -> "Element":
        return Element(self.n, self.b, self.p, self.vec * (int(scalar) % self.p))

    def __neg__(self) -> "Element":
        return Element(self.n, self.b, self.p, -self.vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and (self.n, self.b, self.p) == (other.n, other.b, other.p)
            and bool(np.array_equal(self.vec, other.vec))
        )

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self.vec))
        return f"Element(n={self.n}, b={self.b}, p={self.p}, support={nz})"


def f_lambda(a: int, b: int, p: int) -> Element:
    """The sum of all tabloids of shape (a, b): every b-subset, coefficient 1."""
    lam = Partition2(a, b)
    return Element.ones(lam.n, b, p)


def _drop_once(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """Apply the delete-one-element matrix: (k-subsets) -> (k-1)-subsets."""
    mk = subsets_colex(n, k)
    mk1 = subsets_colex(n, k - 1)
    out = np.zeros(len(mk1), dtype=w.dtype)
    for pos in range(n):
        bit = 1 << pos
        sel = (mk & bit) != 0
        if not sel.any():
            continue
        sub = mk[sel] ^ bit
        idx = np.searchsorted(mk1, sub)
        np.add.at(out, idx, w[sel])
    return out


def psi_levels(n: int, b: int, vec, v: int = 0) -> list[np.ndarray]:
    """psi_k over the integers for every level k = v..b, from one walk down.

    Entry k - v of the returned list is psi_k(vec); the last entry is vec
    itself. Entries are Python ints (object dtype) when the int64 bound
    would not hold.
    """
    if not 0 <= v <= b:
        raise ValueError(f"need 0 <= v <= b, got v={v}, b={b}")
    w = np.asarray(vec)
    if w.shape != (math.comb(n, b),):
        raise ValueError("coefficient vector has the wrong length")
    # exact on Python ints: np.abs would wrap at the int64 minimum
    maxabs = max(abs(int(w.max())), abs(int(w.min()))) if w.size else 0
    # largest intermediate: level k-1 before dividing by b-k+1, at most
    # (b-k+1) * C(n-k+1, b-k+1) * maxabs <= b * C(n, b) * maxabs; it peaks at k = v+1
    bound = max(b - v, 1) * math.comb(n - v, b - v) * max(maxabs, 1)
    w = w.astype(np.int64 if bound < 2**62 else object)
    out = [w]
    for k in range(b, v, -1):
        d = _drop_once(n, k, w)
        c = b - k + 1
        if np.count_nonzero(d % c):
            raise AssertionError("inexact division in psi cascade")
        w = d // c
        out.append(w)
    out.reverse()
    return out


def psi_int(n: int, b: int, vec, v: int) -> np.ndarray:
    """psi_v over the integers: entry Y is sum of vec[X] over X containing Y."""
    return psi_levels(n, b, vec, v)[0]


def psi(u: Element, v: int) -> np.ndarray:
    """psi_v(u) over GF(p), as a coefficient vector on colex v-subsets."""
    if not 0 <= v <= u.b:
        raise ValueError(f"need 0 <= v <= {u.b}, got {v}")
    return (psi_int(u.n, u.b, u.vec, v) % u.p).astype(np.int64, copy=False)


def _inclusion_array(n: int, i: int, b: int) -> np.ndarray:
    """0/1 matrix: rows i-subsets, cols b-subsets, entry 1 iff row inside col."""
    rows = subsets_colex(n, i)
    cols = subsets_colex(n, b)
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if len(rows) <= len(cols):
        for r, y in enumerate(rows):
            a[r] = (cols & int(y)) == int(y)
    else:
        for c, x in enumerate(cols):
            a[:, c] = (rows & int(x)) == rows
    return a


def inclusion_matrix(n: int, i: int, b: int, p: int | None = None) -> MatFp | MatZ:
    """Inclusion matrix of i-subsets into b-subsets of [n]; mod p when given."""
    if not 0 <= i <= b <= n <= _MAX_GROUND:
        raise ValueError(f"need 0 <= i <= b <= n <= {_MAX_GROUND}")
    arr = _inclusion_array(n, i, b)
    if p is None:
        return MatZ.from_numpy(arr)
    return MatFp(arr, p)


def inclusion_stack(n: int, b: int, levels: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Vertically stacked inclusion matrices and their row offsets.

    Returns (matrix, offsets) with offsets[k] the first row of the k-th
    requested level block; offsets has one trailing entry = total rows.
    """
    lv = list(levels)
    blocks = [_inclusion_array(n, v, b) for v in lv]
    offsets = [0]
    for blk in blocks:
        offsets.append(offsets[-1] + blk.shape[0])
    return np.vstack(blocks) if blocks else np.zeros((0, math.comb(n, b)), dtype=np.int64), offsets


def specht_membership(u: Element) -> bool:
    """Whether psi_v(u) = 0 mod p for every level v = 0..b-1."""
    return not any((w % u.p).any() for w in psi_levels(u.n, u.b, u.vec)[:-1])


def specht_dim(a: int, b: int, p: int) -> int:
    """Dimension over GF(p) of the joint kernel of psi_0..psi_(b-1)."""
    lam = Partition2(a, b)
    require_odd_prime(p)
    stack, _ = inclusion_stack(lam.n, b, range(b))
    return math.comb(lam.n, b) - rank_fp(MatFp(stack, p))


def _check_partition(parts) -> tuple[int, ...]:
    ps = tuple(int(x) for x in parts)
    if not ps or any(x < 1 for x in ps):
        raise ValueError(f"partition parts must be positive, got {ps}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts must be weakly decreasing, got {ps}")
    return ps


def james_check(parts, p: int) -> bool:
    """Whether p divides C(parts[i] + j, j) for all i and 1 <= j <= parts[i+1]."""
    require_odd_prime(p)
    ps = _check_partition(parts)
    return all(
        all_binoms_divisible(ps[i], ps[i + 1], p) for i in range(len(ps) - 1)
    )


def h0_dim(parts, p: int) -> int:
    """Dimension of the invariants: 1 on James partitions, else 0."""
    return 1 if james_check(parts, p) else 0


def element_to_json(u: Element) -> dict:
    """Canonical JSON form: entries sorted by colex rank, coeffs in [0, p)."""
    return {
        "p": u.p,
        "a": u.a,
        "b": u.b,
        "entries": [
            {"set": list(members), "coeff": c} for members, c in u.support()
        ],
    }


def element_from_json(obj) -> Element:
    """Parse and validate the element JSON schema; round-trips bit-exactly."""
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object")
    missing = {"p", "a", "b", "entries"} - set(obj)
    if missing:
        raise ValueError(f"element JSON missing keys: {sorted(missing)}")
    p, a, b = obj["p"], obj["a"], obj["b"]
    for name, val in (("p", p), ("a", a), ("b", b)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"field {name!r} must be an int")
    require_odd_prime(p)
    if a < 0 or b < 1:
        raise ValueError(f"need a >= 0 and b >= 1, got a={a}, b={b}")
    n = a + b
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    vec = np.zeros(math.comb(n, b), dtype=np.int64)
    seen = set()
    for e in entries:
        if not isinstance(e, dict) or set(e) != {"set", "coeff"}:
            raise ValueError(f"bad entry {e!r}: need exactly 'set' and 'coeff'")
        s, c = e["set"], e["coeff"]
        if not isinstance(s, list) or len(s) != b:
            raise ValueError(f"entry set {s!r} must list {b} members")
        if any(not isinstance(x, int) or isinstance(x, bool) for x in s):
            raise ValueError(f"entry set {s!r} must hold ints")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise ValueError(f"entry set {s!r} must be strictly ascending")
        if not isinstance(c, int) or isinstance(c, bool) or not 0 <= c < p:
            raise ValueError(f"coeff {c!r} must be an int in [0, {p})")
        mask = mask_from_members(s, n)
        if mask in seen:
            raise ValueError(f"duplicate set {s!r}")
        seen.add(mask)
        vec[colex_rank(mask, n, b)] = c
    return Element(n, b, p, vec)
