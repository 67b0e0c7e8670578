"""Tabloids for two-row shapes: b-subsets of [n], module elements, psi maps.

A tabloid of shape (n-b, b) is determined by its second row, a b-subset of
{1..n}. Subsets are bitmask ints (bit i-1 is element i), listed in
colexicographic order, which on fixed-size subsets coincides with numeric
order of the masks. Vectors of coefficients are indexed by that order.

The block index works on whole arrays, and it has one rank and one
unrank. _rank gives the colex index of ascending members c_1 < ... < c_r
by the combinatorial number system, sum C(c_i - 1, i) (Knuth, TAOCP 4A,
7.2.1.3), read from the constant table _BINOM, so no lookup needs a
listing or a search; _ranks validates member rows before they are
ranked, but for the text decoder's, where an invalid row does not write
back. _members maps indices back to member rows from the masks of
subsets_colex, which builds each listing by the Pascal recursion: the
k-subsets of [n] without n, then those with n, listing(n, k) =
listing(n-1, k) ++ (listing(n-1, k-1) | 2^(n-1)), one row of the
triangle at a time; only the listings asked for are kept.
element_to_json is the element's JSON form as a dict; element_to_text
writes the same document as text, equal byte for byte to json.dumps of
the dict, and formats no number per entry: each slot of one template is
written from a byte table of the values it can hold, each followed by the
fixed text after the slot. _layout cuts that template from json.dumps
of documents whose numbers are slots, and _text_chunks, the one encoder,
fills it. element_from_text reads a text's digit runs as an element and
takes it only if _text_chunks writes that element back byte for byte,
and hands any other text to json.loads and element_from_json.

psi_v sends a b-subset to the formal sum of its v-subsets. Its matrix is
the 0/1 inclusion matrix W_{v,b} of v-subsets into b-subsets. One walk
from level b down computes every level: a step deletes a single element
from each k-subset, and since W_{k-1,k} W_{k,b} = (b-k+1) W_{k-1,b}, an
exact division by b-k+1 turns psi_k into psi_(k-1). A step splits on the
same Pascal recursion as the listings: the k-subsets with the top point m
drop it onto the (k-1)-subsets without m, one slice added to another, and
both halves split again, until a block of at most _DROP_BLOCK subsets is
finished by one np.add.at, on int64 and Python-int entries alike. A
block lists the j-subsets of [m], so its plan depends on (m, j) alone:
_drop_plan builds its (dst, src) pairs by the same split, once per shape,
and the walk ranks, unranks and lists no subset.

Every linear question about the level maps is asked of one matrix, the
stacked system [W_{v,b} | -E] over the requested levels v, with one
scalar column per level (R. M. Wilson, Europ. J. Combin. 11, 1990). This
module owns its layout, and constant_level_system is its one builder;
the solvers take views of its columns. Over GF(p)
most levels of that system are implied by the others through the
composition identity; _kept_levels names the ones that are not.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping

import numpy as np

from .linalg import _eliminate, _int64_array, _kernel_vector, _require_word_prime
from .numtheory import _int_vector, _require_ints, all_binoms_divisible, require_odd_prime

__all__ = [
    "Partition2",
    "subsets_colex",
    "Element",
    "f_lambda",
    "psi",
    "psi_int",
    "psi_levels",
    "constant_level_system",
    "specht_membership",
    "specht_dim",
    "james_check",
    "h0_dim",
    "element_to_json",
    "element_to_text",
    "element_from_json",
    "element_from_text",
]

_MAX_GROUND = 62  # masks live in int64
# Longest subset listing or element vector accepted: about 12 times the
# largest shape in the tests and the benchmark, C(21, 10) = 352716.
_MAX_SUBSETS = 1 << 22
# Most cells in one level system, 1 GiB of int64. construct_james(8, 7, 3)
# solves 6370 x 6437 cells on its kept levels, about 2^25.3; the 15808 x
# 12872 system of (8, 8, 3) is refused.
_MAX_CELLS = 1 << 27


def _require_listable(n: int, k: int) -> int:
    """Return C(n, k); refuse n and k that are not ints, n above _MAX_GROUND,
    then C(n, k) above _MAX_SUBSETS."""
    _require_ints((n, k), "subset sizes")
    if not 0 <= k <= n <= _MAX_GROUND:
        raise ValueError(f"need 0 <= k <= n <= {_MAX_GROUND}, got n={n}, k={k}")
    size = math.comb(n, k)
    if size > _MAX_SUBSETS:
        raise ValueError(f"C({n}, {k}) = {size} subsets exceed the limit of {_MAX_SUBSETS}")
    return size


# Default column budget of the solvers that eliminate a whole level system.
_COLUMN_BUDGET = 4000


def _require_columns(n: int, b: int, budget: int) -> int:
    """Return C(n, b); refuse a budget that is not an int, then C(n, b) above it."""
    _require_ints((budget,), "column budgets")
    ncols = math.comb(n, b)
    if ncols > budget:
        raise ValueError(f"C({n}, {b}) = {ncols} exceeds the budget of {budget} columns")
    return ncols


@dataclass(frozen=True, slots=True)
class Partition2(object):
    """Two-row partition (a, b) with a >= b >= 1."""

    a: int
    b: int

    def __post_init__(self) -> None:
        _require_ints((self.a, self.b), "partition parts")
        if not self.a >= self.b >= 1:
            raise ValueError(f"need a >= b >= 1, got ({self.a}, {self.b})")

    @property
    def n(self) -> int:
        return self.a + self.b


@lru_cache(maxsize=None, typed=True)
def subsets_colex(n: int, k: int) -> np.ndarray:
    """All k-subset masks of [n] in colex (= numeric) order, read-only.

    The cache is typed, so 5.0 and True do not hit the entries of 5 and 1
    and are refused by _require_listable.
    """
    _require_listable(n, k)
    row = {0: np.zeros(1, dtype=np.int64)}  # row m maps j to listing(m, j)
    for m in range(1, n + 1):
        nxt = {}
        # only the j that can still reach listing(n, k)
        for j in range(max(0, k - n + m), min(k, m) + 1):
            parts = [row[j]] if j < m else []  # the j-subsets without m
            if j:
                parts.append(row[j - 1] | (1 << (m - 1)))  # then those with m
            nxt[j] = np.concatenate(parts)
        row = nxt
    arr = row[k]
    arr.setflags(write=False)
    return arr


# _BINOM[c, i] = C(c, i) for every point c of a mask; C(61, 30) < 2^58.
_BINOM = np.array([[math.comb(c, i) for i in range(_MAX_GROUND + 1)]
                   for c in range(_MAX_GROUND)], dtype=np.int64)


def _rank(rows: np.ndarray) -> np.ndarray:
    """Colex indices of ascending member rows c_1 < ... < c_r in [1, 62].

    The combinatorial number system: the index is sum C(c_i - 1, i).
    """
    return _BINOM[rows - 1, np.arange(1, rows.shape[1] + 1)].sum(axis=1)


def _ranks(n: int, k: int, sets) -> np.ndarray:
    """Colex indices of the k-subsets of [n] given as m rows of members.

    Refuses rows that are not k ints in [1, n], not strictly ascending, or
    repeated, naming the first offending row, and C(n, k) past
    _require_listable. The rows are ranked by _rank, with no listing.
    """
    try:
        s = np.asarray(sets, dtype=np.int64).reshape(len(sets), k)
    except (OverflowError, ValueError):
        raise ValueError(f"sets must be rows of {k} ints in [1, {n}]") from None

    def refuse(bad: np.ndarray, why: str) -> None:
        if bad.any():
            raise ValueError(f"set {s[np.argmax(bad)].tolist()} {why}")

    refuse(((s < 1) | (s > n)).any(axis=1), f"has a member outside [1, {n}]")
    refuse((s[:, 1:] <= s[:, :-1]).any(axis=1), "must be strictly ascending")
    _require_listable(n, k)
    idx = _rank(s)
    first = np.zeros(len(idx), dtype=bool)
    first[np.unique(idx, return_index=True)[1]] = True
    refuse(~first, "is repeated")
    return idx


def _members(n: int, k: int, idx: np.ndarray) -> np.ndarray:
    """The (m, k) ascending member rows of the colex indices idx.

    Each row's lowest set bit is peeled off its listing mask; that bit is a
    power of two below 2^62, exact in float64, so np.frexp reads its place.
    An empty idx builds no listing.
    """
    if not len(idx):
        return np.empty((0, k), dtype=np.int64)
    masks = subsets_colex(n, k)[idx]
    out = np.empty((len(masks), k), dtype=np.int64)
    for j in range(k):
        low = masks & -masks
        out[:, j] = np.frexp(low)[1]  # 2^(c-1) = 0.5 * 2^c
        masks ^= low
    return out


class Element:
    """GF(p) linear combination of b-subsets of [n], stored densely.

    The ground shape is the composition (n-b, b); a >= b is not required
    here so that design solvers may return blocks covering more than half
    the ground set. Partition-specific entry points validate Partition2
    themselves. The coefficient vector must have an integer dtype that fits
    int64; floats, bools, uint64 and object arrays are refused, and so are
    a bool in a list, and subset members and coefficients that are not ints
    in from_subsets and coeff.
    """

    __slots__ = ("n", "b", "p", "vec")

    def __init__(self, n: int, b: int, p: int, vec):
        p = _require_word_prime(p)
        if b < 1:
            raise ValueError(f"need b >= 1, got b={b}")
        want = _require_listable(n, b)
        arr = _int64_array(vec, "coefficients")
        if arr.shape != (want,):
            raise ValueError(f"coefficient vector must have length C({n},{b}) = {want}")
        arr = arr % p
        self.n = int(n)
        self.b = int(b)
        self.p = p
        self.vec = arr

    @classmethod
    def _of_residues(cls, n: int, b: int, p: int, vec: np.ndarray) -> "Element":
        """An element on vec itself: no check, reduction or copy.

        Only for an int64 vector of length C(n, b) that the caller has just
        allocated and filled with entries in [0, p), where n, b and p have
        passed the checks of __init__.
        """
        u = object.__new__(cls)
        u.n, u.b, u.p, u.vec = n, b, p, vec
        return u

    @property
    def a(self) -> int:
        return self.n - self.b

    @classmethod
    def zero(cls, n: int, b: int, p: int) -> "Element":
        return cls(n, b, p, np.zeros(_require_listable(n, b), dtype=np.int64))

    @classmethod
    def ones(cls, n: int, b: int, p: int) -> "Element":
        return cls(n, b, p, np.ones(_require_listable(n, b), dtype=np.int64))

    @classmethod
    def from_subsets(cls, n: int, b: int, p: int,
                     coeffs: Mapping[tuple[int, ...], int]) -> "Element":
        sets = [sorted(ms) for ms in coeffs]
        _require_ints(chain(chain.from_iterable(sets), coeffs.values()),
                      "subset members and coefficients")
        vec = np.zeros(_require_listable(n, b), dtype=np.int64)
        vec[_ranks(n, b, sets)] = [c % p for c in coeffs.values()]
        return cls(n, b, p, vec)

    def support(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """Nonzero (members, coeff) pairs in colex order."""
        idx = np.flatnonzero(self.vec)
        return zip(map(tuple, _members(self.n, self.b, idx).tolist()), self.vec[idx].tolist())

    def coeff(self, members: Iterable[int]) -> int:
        ms = sorted(members)
        _require_ints(ms, "subset members")
        return int(self.vec[_ranks(self.n, self.b, [ms])[0]])

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
        _require_ints((scalar,), "scalars")
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


# Most k-subsets in one block of the drop step. Timed on the walks
# psi_levels (21, 10), (20, 9) and all n <= 13 (numpy 2.4.6, one thread of
# a 2-core host): 256 was slower on the two large walks, and 1024-4096 were
# within noise of 512 on all three. The plans of every block shape up to
# 512 subsets take 4.0 MiB; up to 1024 they would take 11 and up to 4096, 48.
_DROP_BLOCK = 512


def _drop_once(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """Apply the delete-one-element matrix D: (k-subsets) -> (k-1)-subsets.

    The colex listing of the k-subsets of [m] is those without m, then
    those with m, so D_{m,k} (w0, w1) = (D_{m-1,k} w0 + w1, D_{m-1,k-1} w1).
    _drop_into splits on that until a block holds at most _DROP_BLOCK
    subsets, and finishes a block with one np.add.at along _drop_plan.
    """
    out = np.zeros(math.comb(n, k - 1), dtype=w.dtype)
    _drop_into(out, w, n, k, 0, 0)
    return out


@lru_cache(maxsize=None)
def _drop_plan(m: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The (dst, src) pairs of D_{m,j}, as two read-only arrays.

    The same split as _drop_into: the pairs of D_{m-1,j}, then each
    subset with m sent to its own entry of the run below, then the pairs
    of D_{m-1,j-1} shifted past both halves. The pairs depend on (m, j)
    alone, so each shape is built once per process (see _DROP_BLOCK for
    what the cache holds).
    """
    if not 0 < j <= m:
        dst = src = np.zeros(0, dtype=np.int64)
    else:
        without = math.comb(m - 1, j)
        below = math.comb(m - 1, j - 1)
        dst0, src0 = _drop_plan(m - 1, j)
        dst1, src1 = _drop_plan(m - 1, j - 1)
        own = np.arange(below)
        dst = np.concatenate([dst0, own, dst1 + below])
        src = np.concatenate([src0, own + without, src1 + without])
    dst.setflags(write=False)
    src.setflags(write=False)
    return dst, src


def _drop_into(out: np.ndarray, w: np.ndarray, m: int, j: int, at: int, to: int) -> None:
    """out[to:] += D_{m,j} w[at:], one block of the step.

    w[at:] starts a run of C(m, j) subsets whose points above m are the
    same, so their points up to m list the j-subsets of [m] in colex order;
    out[to:] starts the matching run of C(m, j-1) entries. A block of at
    most _DROP_BLOCK subsets is finished along _drop_plan(m, j), built by
    this same split.
    """
    size = math.comb(m, j)
    if size > _DROP_BLOCK:
        without = math.comb(m - 1, j)  # w0 | w1, by whether a subset holds m
        below = math.comb(m - 1, j - 1)  # out splits the same way
        out[to : to + below] += w[at + without : at + size]
        if without:
            _drop_into(out, w, m - 1, j, at, to)
        if j > 1:
            _drop_into(out, w, m - 1, j - 1, at + without, to + below)
        return
    dst, src = _drop_plan(m, j)
    np.add.at(out[to : to + math.comb(m, j - 1)], dst, w[at : at + size][src])


def psi_levels(n: int, b: int, vec, v: int = 0) -> list[np.ndarray]:
    """psi_k over the integers for every level k = v..b, from one walk down.

    Entry k - v of the returned list is psi_k(vec); the last entry is vec
    itself. Entries are Python ints (object dtype) when the int64 bound
    would not hold. n, b, v and vec must hold ints or numpy integers: floats
    and bools are refused, and ints past int64 are read as Python ints.
    """
    _require_ints((n, b), "subset sizes")
    _require_ints((v,), "level")
    if not 0 <= v <= b:
        raise ValueError(f"need 0 <= v <= b, got v={v}, b={b}")
    w = _int_vector(vec, "coefficients")
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
            raise AssertionError(f"inexact division by {c} in psi cascade from level {k} "
                                 f"to {k - 1} (n={n}, b={b})")
        w = d // c
        out.append(w)
    out.reverse()
    return out


def psi_int(n: int, b: int, vec, v: int) -> np.ndarray:
    """psi_v over the integers: entry Y is sum of vec[X] over X containing Y."""
    return psi_levels(n, b, vec, v)[0]


def psi(u: Element, v: int) -> np.ndarray:
    """psi_v(u) over GF(p), as a coefficient vector on colex v-subsets."""
    return (psi_int(u.n, u.b, u.vec, v) % u.p).astype(np.int64, copy=False)


def constant_level_system(n: int, b: int, levels) -> np.ndarray:
    """Augmented matrix whose kernel is the all-chosen-levels-constant space.

    Columns: C(n, b) element coordinates, then one scalar per requested
    level. Rows: one block per requested level v, the v-subsets of [n] in
    colex order; its element columns are W_{v,b} and its scalar column
    holds -1. A kernel vector (u, c) satisfies psi_v(u) = c_v * ones for
    each level v; u determines c, so the kernel dimension equals the
    dimension of the constant-level space.

    Refuses a level outside 0..b, then more than _MAX_CELLS cells, then
    allocates the array once and writes each block in place: every
    v-combination of member positions is one scatter, over all b-subsets
    at once, to the _rank of the v-subset at those positions.
    """
    lv = list(levels)
    _require_ints(lv, "levels")
    ncols = _require_listable(n, b)
    for v in lv:
        if not 0 <= v <= b:
            raise ValueError(f"need 0 <= v <= b, got v={v}, b={b}")
    heights = [math.comb(n, v) for v in lv]
    rows, width = sum(heights), ncols + len(lv)
    if rows * width > _MAX_CELLS:
        raise ValueError(f"level system of {rows} rows x {width} columns = {rows * width} "
                         f"cells exceeds the limit of {_MAX_CELLS}")
    out = np.zeros((rows, width), dtype=np.int64)
    flat = out.reshape(-1)
    cols = np.arange(ncols)
    rows = _members(n, b, cols)
    top = 0
    for k, (v, height) in enumerate(zip(lv, heights)):
        for pos in combinations(range(b), v):
            flat[(top + _rank(rows[:, list(pos)])) * width + cols] = 1
        out[top : top + height, ncols + k] = -1
        top += height
    return out


def _kept_levels(b: int, p: int) -> list[int]:
    """The levels below b that no other level implies mod p, ascending.

    W_{s,t} W_{t,b} = C(b-s, t-s) W_{s,b}, so for u with psi_t(u) constant
    (or zero), psi_s(u) is too whenever C(b-s, t-s) is a unit mod p. From
    b-1 down, level s is kept only when every kept t > s has C(b-s, t-s)
    = 0 mod p; the system on the kept levels then admits the same elements
    u as the one on all levels. The binomials are exact Python ints: the
    brute-force route must not rest on the digit criteria.
    """
    kept: list[int] = []
    for s in range(b - 1, -1, -1):
        if all(math.comb(b - s, t - s) % p == 0 for t in kept):
            kept.append(s)
    return kept[::-1]


def _kept_echelon(n: int, b: int, p: int, levels=None) -> tuple[np.ndarray, list[int], int]:
    """The level system on levels, by default _kept_levels(b, p), eliminated in place.

    The 0/1 element columns are already residues and only the -1 scalar
    entries are reduced, so constant_level_system's array is the one copy.
    Panels run left to right, so the pivots among the first C(n, b) columns
    are those of the element columns alone. Returns the array, its pivot
    columns and e, their count: the first pivot row on a scalar column.
    """
    ncols = math.comb(n, b)
    system = constant_level_system(n, b, _kept_levels(b, p) if levels is None else levels)
    system[:, ncols:] %= p
    m, pivots = _eliminate(system, p)
    return m, pivots, bisect_left(pivots, ncols)


def _level_element(n: int, b: int, p: int, targets: Mapping[int, int]) -> Element | None:
    """The echelon element (free coordinates zero) whose level-s sums are
    all targets[s] mod p: _kept_echelon on the target levels, back-solved
    from its scalar coordinates preset to the targets. None when a scalar
    pivot row, zero on the element columns, moves a preset: no element fits.
    """
    p = _require_word_prime(p)
    _require_ints(targets.values(), "level targets")
    m, pivots, _ = _kept_echelon(n, b, p, list(targets))
    ncols = math.comb(n, b)
    preset = np.zeros(m.shape[1], dtype=np.int64)
    preset[ncols:] = [t % p for t in targets.values()]
    x = _kernel_vector(m, p, pivots, preset)
    if not np.array_equal(x[ncols:], preset[ncols:]):
        return None
    return Element(n, b, p, x[:ncols])


def specht_membership(u: Element) -> bool:
    """Whether psi_v(u) = 0 mod p for every level v = 0..b-1."""
    return not any((w % u.p).any() for w in psi_levels(u.n, u.b, u.vec)[:-1])


def specht_dim(a: int, b: int, p: int) -> int:
    """Dimension over GF(p) of the joint kernel of psi_0..psi_(b-1).

    Only the levels in _kept_levels(b, p) are eliminated; they imply the
    rest. The kernel rank is e, _kept_echelon's count of element pivots.
    """
    lam = Partition2(a, b)
    p = _require_word_prime(p)
    return math.comb(lam.n, b) - _kept_echelon(lam.n, b, p)[2]


def _check_partition(parts) -> tuple[int, ...]:
    ps = tuple(parts)
    _require_ints(ps, "partition parts")
    ps = tuple(map(int, ps))
    if not ps or any(x < 1 for x in ps):
        raise ValueError(f"partition parts must be positive, got {ps}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"parts must be weakly decreasing, got {ps}")
    return ps


def james_check(parts, p: int) -> bool:
    """Whether p divides C(parts[i] + j, j) for all i and 1 <= j <= parts[i+1]."""
    p = require_odd_prime(p)
    ps = _check_partition(parts)
    return all(
        all_binoms_divisible(ps[i], ps[i + 1], p) for i in range(len(ps) - 1)
    )


def h0_dim(parts, p: int) -> int:
    """Dimension of the invariants: 1 on James partitions, else 0."""
    return 1 if james_check(parts, p) else 0


def element_to_json(u: Element) -> dict:
    """Canonical JSON form: entries sorted by colex rank, coeffs in [0, p)."""
    idx = np.flatnonzero(u.vec)
    sets = _members(u.n, u.b, idx).tolist()
    return {
        "p": u.p,
        "a": u.a,
        "b": u.b,
        "entries": [{"set": s, "coeff": c} for s, c in zip(sets, u.vec[idx].tolist())],
    }


def _layout(b: int, indent: int | None) -> tuple[str, str, str, str]:
    """The text template of an element of block size b with support: (head, entry, sep, tail).

    The text of m >= 1 support blocks is head + sep.join([entry] * m) +
    tail, its 3 + m(b+1) %d slots filled by p, a, b and then each block's
    b members and coefficient. The pieces are cut from
    json.dumps(..., indent=indent) of documents whose numbers are all -1,
    each -1 then made a %d slot: the entries [0, 0] split on "0" into
    head, sep and tail, and one block fills the entry between them.
    """
    def dump(entries: list) -> str:
        doc = {"p": -1, "a": -1, "b": -1, "entries": entries}
        return json.dumps(doc, indent=indent).replace("-1", "%d")

    head, sep, tail = dump([0, 0]).split("0")
    entry = dump([{"set": [-1] * b, "coeff": -1}])[len(head):-len(tail)]
    return head, entry, sep, tail


# Support blocks encoded per record array. Measured on (11,10,3): 2^12 and
# 2^13 encode faster than 2^16, and than one array for the whole element,
# and keep the peak near the text as bytes plus the text as str.
_TEXT_BLOCK = 1 << 12


def _slot_table(values, text: str) -> np.ndarray:
    """Each value's digits followed by text, as one fixed-width bytes array."""
    suffix = text.encode("ascii")
    return np.array([b"%d%s" % (v, suffix) for v in values])


def _text_chunks(u: Element, indent: int | None) -> Iterator[bytes]:
    """json.dumps(element_to_json(u), indent=indent) as ASCII bytes, in pieces.

    The empty element's text is that json.dumps itself. Otherwise no
    number is formatted per entry. In the _layout entry, each %d slot is
    followed by fixed text, so a slot is written from a byte table: the
    digits of every value it can hold, each followed by that text. A
    coefficient's text runs on through the entry separator to the start of
    the next entry. There are at most three tables, built per call: middle
    member and last member, indexed by 0..n, and coefficient, indexed by the
    distinct coefficients. Each support block is one structured record with
    one fixed-width field per slot, gathered from its table. The records'
    bytes, with the fields' NUL padding deleted, are the entries; each
    piece holds _TEXT_BLOCK of them, and the last entry's run-on text is
    trimmed.
    """
    idx = np.flatnonzero(u.vec)
    if not len(idx):
        yield json.dumps(element_to_json(u), indent=indent).encode("ascii")
        return
    head, entry, sep, tail = _layout(u.b, indent)
    first, *after = entry.split("%d")  # after[j]: the fixed text after slot j
    coeffs, which = np.unique(u.vec[idx], return_inverse=True)
    ground = {text: _slot_table(range(u.n + 1), text) for text in set(after[:-1])}
    tables = [ground[text] for text in after[:-1]]
    tables.append(_slot_table(coeffs.tolist(), after[-1] + sep + first))
    fields = [(f"s{j}", t.dtype) for j, t in enumerate(tables)]
    yield (head % (u.p, u.a, u.b) + first).encode("ascii")
    for at in range(0, len(idx), _TEXT_BLOCK):
        block = slice(at, at + _TEXT_BLOCK)
        rec = np.empty(len(idx[block]), dtype=fields)
        for j, col in enumerate(_members(u.n, u.b, idx[block]).T):
            rec[f"s{j}"] = tables[j][col]
        rec[f"s{u.b}"] = tables[-1][which[block]]
        chunk = rec.tobytes().translate(None, b"\0")
        # the last entry ends at its "}"
        yield chunk if at + _TEXT_BLOCK < len(idx) else chunk[:-len(sep + first)]
    yield tail.encode("ascii")


def element_to_text(u: Element, indent: int | None = None) -> str:
    """json.dumps(element_to_json(u), indent=indent), joined from _text_chunks."""
    return b"".join(_text_chunks(u, indent)).decode("ascii")


_DIGIT_FLAGS = bytes(c in b"0123456789" for c in range(256))  # for translate: digits to 1
_MAX_DIGITS = 18  # every run of at most 18 digits is exact in int64
_INT32_MAX = (1 << 31) - 1


def _canonical_element(text: str) -> Element | None:
    """The element if text is element_to_text(u, indent) for indent None or 2, else None.

    The digit runs are read as p, a, b and each block's b members and
    coefficient, and the text is taken only if _text_chunks writes that
    element back as the stripped text byte for byte, so json.loads reads
    it as element_to_json of the element. Checked first, so that no number
    is misread and nothing raises: runs of at most _MAX_DIGITS digits
    (exact in int64), a word-size prime, a listable shape, whole blocks,
    members in [1, n], ranks below C(n, b) and coefficients below p. A
    leading zero, an unsorted or repeated row or a zero coefficient does
    not write back. Temporaries are freed as soon as they are used, and
    byte positions are held in int32 and run lengths (checked first) in
    int8, to keep the peak below that of the json route.
    """
    if not text.isascii():
        return None
    data = text.encode("ascii").strip(b" \t\n\r")
    if data[:1] != b"{" or data[-1:] != b"}":
        return None  # so that every run of digits starts and ends inside
    if len(data) > _INT32_MAX:
        return None  # so that every position fits the int32 arrays below
    # the last byte before each change between digit and non-digit; np.diff
    # of bools is their not_equal, whose flatnonzero is twice that of int8's
    edges = np.flatnonzero(np.diff(np.frombuffer(data.translate(_DIGIT_FLAGS), dtype=bool)))
    lengths = edges[1::2] - edges[0::2]
    if len(lengths) < 3 or lengths.max() > _MAX_DIGITS:
        return None
    lengths = lengths.astype(np.int8)
    starts = edges[0::2].astype(np.int32) + 1
    del edges
    byte = np.frombuffer(data, dtype=np.uint8)
    zero = ord("0")
    nums = byte[starts].astype(np.int64) - zero
    for j in range(1, int(lengths.max())):  # one pass per digit position
        live = np.flatnonzero(lengths > j)
        nums[live] = nums[live] * 10 + byte[starts[live] + j] - zero
    del starts, lengths, byte
    p, a, b = nums[:3].tolist()
    if b < 1:
        return None
    try:
        _require_word_prime(p)
        size = _require_listable(a + b, b)
    except ValueError:
        return None
    m, extra = divmod(len(nums) - 3, b + 1)
    if extra:
        return None
    rows = nums[3:].reshape(m, b + 1)
    members, coeffs = rows[:, :-1], rows[:, -1]
    if members.min(initial=1) < 1 or members.max(initial=1) > a + b or coeffs.max(initial=0) >= p:
        return None
    idx = _rank(members)
    if idx.max(initial=0) >= size:
        return None
    vec = np.zeros(size, dtype=np.int64)
    vec[idx] = coeffs
    del nums, rows, members, coeffs, idx
    u = Element._of_residues(a + b, b, p, vec)
    at = 0
    for chunk in _text_chunks(u, 2 if data[1:2] == b"\n" else None):
        if not data.startswith(chunk, at):
            return None
        at += len(chunk)
    return u if at == len(data) else None


def element_from_text(text: str) -> Element:
    """The element of an element JSON text, as element_from_json(json.loads(text)).

    A text element_to_text writes, indent None or 2, is decoded with no
    per-entry Python work by _canonical_element; every other text goes
    through json.loads and element_from_json. Either way a text gives the
    same element, or the same error. Nesting too deep for json.loads is
    refused as a ValueError.
    """
    u = _canonical_element(text)
    if u is not None:
        return u
    try:
        return element_from_json(json.loads(text))
    except RecursionError:
        raise ValueError("element JSON is nested too deeply") from None


def element_from_json(obj) -> Element:
    """Parse the element JSON schema, checking each entry once; round-trips bit-exactly."""
    if not isinstance(obj, dict):
        raise ValueError("element JSON must be an object")
    missing = {"p", "a", "b", "entries"} - set(obj)
    if missing:
        raise ValueError(f"element JSON missing keys: {sorted(missing)}")
    p, a, b = obj["p"], obj["a"], obj["b"]
    for name, val in (("p", p), ("a", a), ("b", b)):
        if not isinstance(val, int) or isinstance(val, bool):
            raise ValueError(f"field {name!r} must be an int")
    _require_word_prime(p)
    if a < 0 or b < 1:
        raise ValueError(f"need a >= 0 and b >= 1, got a={a}, b={b}")
    n = a + b
    entries = obj["entries"]
    if not isinstance(entries, list):
        raise ValueError("entries must be a list")
    vec = np.zeros(_require_listable(n, b), dtype=np.int64)
    keys = {"set", "coeff"}  # structure only; _ranks checks range, order and repeats
    sets, coeffs = [], []
    for e in entries:  # each entry checked once, so the first fault is named
        if not isinstance(e, dict) or e.keys() != keys:
            raise ValueError(f"bad entry {e!r}: need exactly 'set' and 'coeff'")
        s, c = e["set"], e["coeff"]
        if not isinstance(s, list) or len(s) != b or set(map(type, s)) != {int}:
            raise ValueError(f"entry set {s!r} must list {b} ints")
        if type(c) is not int or not 0 <= c < p:
            raise ValueError(f"coeff {c!r} must be an int in [0, {p})")
        sets.append(s)
        coeffs.append(c)
    vec[_ranks(n, b, sets)] = coeffs
    return Element(n, b, p, vec)
