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
and the walk ranks, unranks and lists no subset. Each level it passes
must fit the listing limit all the same; _require_walkable refuses the
walk before its first step.

Every linear question about the level maps is asked of one matrix, the
stacked system [W_{v,b} | -E] over the requested levels v, with one
scalar column per level (R. M. Wilson, Europ. J. Combin. 11, 1990). This
module owns its layout, and one routine writes it over all C(n, b) blocks:
constant_level_system in int64, whose columns the integer route takes as
views, and _kept_echelon in residues mod p in the narrowest type that holds
p - 1 (int8 for p <= 127), which it eliminates for the oracle, specht_dim
and brute_force_h1. Each is refused before it is allocated when its byte
estimate passes _MAX_BYTES (_require_system). Over GF(p) most levels of
that system are implied by the others through the composition identity;
_kept_levels names the ones that are not.

The orbit layer shrinks that system for a group G <= S_n whose order is
a unit mod p (_orbit_tree: iterated wreath products of S_(p-1), one per
base-(p-1) digit of n). Averaging over G keeps every level sum, so the
G-invariant elements, one coordinate per G-orbit of b-subsets, reach
every spectrum that any element reaches. _orbit_canon puts whole arrays
of masks in a canonical form per orbit, bottom-up by sorting each tree
node's child fields. _orbit_level_system lays out the Kramer-Mesner orbit
matrix (E. S. Kramer and D. M. Mesner, Discrete Math. 15, 1976) on the
requested levels in the same [W | -E] layout. It walks up once from the
empty set for each level's forms and lifts, walks its rows down by one
gather per point and the exact division of psi, and reads the b-listing
only to number its blocks. Every GF(p) witness is solved on it:
_level_element back-solves the eliminated orbit system from its scalar
coordinates preset to level targets and expands the solution by orbit id.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping

import numpy as np

from .linalg import (_eliminate, _eliminate_bytes, _int64_array, _kernel_vector, _narrowest_int,
                     _require_word_prime)
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
# Most bytes of one level system and its elimination's temporaries. For
# p <= 127 it admits every oracle system with n <= 16, the largest (8, 8, 3)
# at 15,808 x 12,872 int8 cells, and refuses (10, 7, 3) and (9, 8, p).
_MAX_BYTES = 1 << 28


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


def _require_levels(b: int, levels) -> list[int]:
    """levels as a list; refuse one that is not an int, then one outside 0..b."""
    lv = list(levels)
    _require_ints(lv, "levels")
    for v in lv:
        if not 0 <= v <= b:
            raise ValueError(f"need 0 <= v <= b, got v={v}, b={b}")
    return lv


def _require_walkable(n: int, b: int, v: int) -> None:
    """Refuse a psi walk from level b down to v that would list a level
    past _require_listable: the two ends first, then the levels between."""
    for k in (b, v, *range(v + 1, b)):
        _require_listable(n, k)


def _psi_walk(n: int, b: int, vec, v: int) -> Iterator[np.ndarray]:
    """psi_k(vec) for k = b down to v, one at a time: psi_int keeps only the last."""
    _require_ints((n, b), "subset sizes")
    _require_levels(b, (v,))
    w = _int_vector(vec, "coefficients")
    if w.shape != (math.comb(n, b),):
        raise ValueError("coefficient vector has the wrong length")
    _require_walkable(n, b, v)
    # exact on Python ints: np.abs would wrap at the int64 minimum
    maxabs = max(abs(int(w.max())), abs(int(w.min()))) if w.size else 0
    # largest intermediate: level k-1 before dividing by b-k+1, at most
    # (b-k+1) * C(n-k+1, b-k+1) * maxabs <= b * C(n, b) * maxabs; it peaks at k = v+1
    bound = max(b - v, 1) * math.comb(n - v, b - v) * max(maxabs, 1)
    w = w.astype(np.int64 if bound < 2**62 else object)
    yield w
    for k in range(b, v, -1):
        d = _drop_once(n, k, w)
        c = b - k + 1
        if np.count_nonzero(d % c):
            raise AssertionError(f"inexact division by {c} in psi cascade from level {k} "
                                 f"to {k - 1} (n={n}, b={b})")
        w = d // c
        yield w


def psi_levels(n: int, b: int, vec, v: int = 0) -> list[np.ndarray]:
    """psi_k over the integers for every level k = v..b, from one walk down.

    Entry k - v of the returned list is psi_k(vec); the last entry is vec
    itself. Entries are Python ints (object dtype) when the int64 bound
    would not hold. n, b, v and vec must hold ints or numpy integers: floats
    and bools are refused, and ints past int64 are read as Python ints.
    A walk that _require_walkable refuses is refused before any listing.
    """
    return list(_psi_walk(n, b, vec, v))[::-1]


def psi_int(n: int, b: int, vec, v: int) -> np.ndarray:
    """psi_v over the integers: entry Y is sum of vec[X] over X containing Y."""
    return deque(_psi_walk(n, b, vec, v), maxlen=1)[0]


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
    """
    return _level_system(n, b, levels)


def _require_system(n: int, b: int, levels, p: int | None = None):
    """The levels, heights, C(n, b) and type of _level_system(n, b, levels, p);
    refuses levels past _require_levels, C(n, b) past _require_listable, then
    more than _MAX_BYTES for the array and, with p, _eliminate_bytes."""
    lv, ncols = _require_levels(b, levels), _require_listable(n, b)
    heights = [math.comb(n, v) for v in lv]
    rows, width = sum(heights), ncols + len(lv)
    dtype = np.dtype(np.int64 if p is None else _narrowest_int(p - 1))
    nbytes = rows * width * dtype.itemsize + (0 if p is None else _eliminate_bytes(rows, p))
    if nbytes > _MAX_BYTES:
        mod = "" if p is None else f" with its elimination mod {p}"
        raise ValueError(f"level system of n={n}, b={b}: {rows} rows x {width} columns in "
                         f"{dtype}{mod} needs {nbytes} bytes, over the limit of {_MAX_BYTES}")
    return lv, heights, ncols, dtype


def _level_system(n: int, b: int, levels, p: int | None = None) -> np.ndarray:
    """constant_level_system's array, or with p in residues mod p for
    _eliminate in the narrowest type that holds p - 1 (int8 for p <= 127),
    refused as _require_system refuses it. The array is allocated once and
    each block written in place: every v-combination of member positions is
    one scatter, over all b-subsets at once, to the _rank of the v-subset at
    those positions."""
    lv, heights, ncols, dtype = _require_system(n, b, levels, p)
    width = ncols + len(lv)
    out = np.zeros((sum(heights), width), dtype=dtype)
    flat = out.reshape(-1)
    cols = np.arange(ncols)
    rows = _members(n, b, cols)
    top = 0
    for k, (v, height) in enumerate(zip(lv, heights)):
        for pos in combinations(range(b), v):
            flat[(top + _rank(rows[:, list(pos)])) * width + cols] = 1
        out[top : top + height, ncols + k] = -1 if p is None else p - 1
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


def _kept_echelon(n: int, b: int, p: int) -> tuple[np.ndarray, list[int], int]:
    """The level system on _kept_levels(b, p), eliminated in place: the
    oracle's system, for specht_dim and brute_force_h1.

    The layout is written straight in residues mod p (_level_system), so
    that array is the one copy. Panels run left to right, so
    the pivots among the first C(n, b) columns are those of the element
    columns alone. Returns the array, its pivot columns and e, their
    count: the first pivot row on a scalar column. For a >= b, James'
    kernel intersection theorem gives dim S = C(n, b) - C(n, b-1), so e
    must be C(n, b-1); a count that is not raises AssertionError.
    """
    ncols = _require_listable(n, b)  # before _kept_levels, whose binomials grow with b
    system = _level_system(n, b, _kept_levels(b, p), p)
    m, pivots = _eliminate(system, p)
    e, want = bisect_left(pivots, ncols), math.comb(n, b - 1)
    if e != want:
        raise AssertionError(f"{e} element pivots where the kernel intersection theorem "
                             f"needs C({n}, {b - 1}) = {want} (a={n - b}, b={b}, p={p})")
    return m, pivots, e


# Masks put in canonical form at a time, to bound the (masks x fields)
# temporaries of _sort_fields: 2^15 masks x 16 fields of int64 is 4 MiB.
_CANON_BLOCK = 1 << 15


def _orbit_tree(n: int, p: int) -> list[tuple[int, list[int]]]:
    """The blocks of the p'-group G <= S_n, as (first point, fan-outs bottom-up).

    With m = p - 1, each nonzero base-m digit d_k of n, lowest first, owns
    the next d_k * m^k points: d_k consecutive runs of m^k points, each the
    leaves of a complete m-ary tree of depth k. G is the product over the
    digits of S_{d_k} wr W_k, where W_k, the k-fold iterated wreath product
    of S_m, permutes the m children of every node of a tree and S_{d_k} the
    trees. A block's fan-outs are m at each of the k levels, then d_k at the
    root; fan-outs of 1 move nothing and are left out. |G| is a product of
    factorials of numbers below p, a unit mod p.
    """
    m, tree, first, k = p - 1, [], 0, 0
    while n:
        n, d = divmod(n, m)
        if d:
            tree.append((first, [f for f in [m] * k + [d] if f > 1]))
            first += d * m**k
        k += 1
    return tree


def _sort_fields(x: np.ndarray, width: int, fan: int, count: int) -> np.ndarray:
    """Sort the count fields of width bits in x, lowest first, within each
    run of fan consecutive fields, and pack them back."""
    shifts = np.arange(count, dtype=np.int64) * width
    fields = (x[:, None] >> shifts) & ((1 << width) - 1)
    fields = np.sort(fields.reshape(len(x), count // fan, fan), axis=2)
    return (fields << shifts.reshape(count // fan, fan)).sum(axis=(1, 2))


def _orbit_canon(n: int, p: int, masks: np.ndarray) -> np.ndarray:
    """The canonical form of each mask of subsets of [n] under the group of
    _orbit_tree: two masks share it exactly when they lie in one G-orbit,
    and it is itself in that orbit.

    Bottom-up in each block: every node's child fields, each already in
    canonical form, are cut into an (N, fan) array, sorted and packed back,
    so that a node's field is the sorted multiset of its children's forms.
    Blocks of _CANON_BLOCK masks bound the temporaries.
    """
    out = np.zeros_like(masks)
    tree = _orbit_tree(n, p)
    for lo in range(0, len(masks), _CANON_BLOCK):
        chunk = masks[lo : lo + _CANON_BLOCK]
        for first, fans in tree:
            size = math.prod(fans)
            x = (chunk >> first) & ((1 << size) - 1)
            width = 1
            for fan in fans:
                x = _sort_fields(x, width, fan, size // width)
                width *= fan
            out[lo : lo + len(chunk)] |= x << first
    return out


def _orbit_level_system(n: int, b: int, p: int, levels) -> tuple[np.ndarray, np.ndarray]:
    """The Kramer-Mesner system [W_orb | -E] of the G-orbits on levels,
    and the orbit id of each b-subset in colex order.

    G is the group of _orbit_tree, whose order is a unit mod p. Orbit ids
    number the b-orbits by size, then by canonical form (a form: the
    _orbit_canon image that names an orbit), so that the free columns of
    an echelon solution, left zero, are the largest orbits and the
    expanded witness has a small support. Rows: per level s, one per
    s-orbit, ascending by form; entry (O_T, O_B) counts the blocks of O_B
    that contain a set T of O_T, and the scalar column holds -1. One walk up
    from the empty set gives the forms, each k-form plus each of its n - k
    points outside, and lifts[k][t, i], the (k+1)-orbit of k-form i plus its
    t-th point. Rows are walked down from level b, the identity in id order,
    as psi is: W_{k,k+1} W_{k+1,b} = (b-k) W_{k,b}, so rows_k = sum_t
    rows_(k+1)[lifts[k][t]] / (b-k), exact, the sum below 62 * 2^22 under
    the listing limit. Only the requested levels' rows are kept. Refuses
    levels past _require_levels, then the listing limit, before the first form.
    """
    levels = _require_levels(b, levels)
    listing = subsets_colex(n, b)  # refuses past the listing limit before any form
    points = np.int64(1) << np.arange(n, dtype=np.int64)
    forms, lifts = [np.zeros(1, dtype=np.int64)], []  # the empty set's form
    for k in range(b):
        i, x = np.nonzero((forms[k][:, None] & points) == 0)  # each form, a point outside it
        above, j = np.unique(_orbit_canon(n, p, forms[k][i] | points[x]), return_inverse=True)
        forms.append(above)
        lifts.append(j.reshape(len(forms[k]), n - k).T)  # lifts[k][t, i]: form i, its t-th point
    ids = np.searchsorted(forms[b], _orbit_canon(n, p, listing))
    order = np.argsort(np.argsort(np.bincount(ids), kind="stable"))  # smallest orbits first
    rows = {b: np.eye(len(order), dtype=np.int64)[order]}
    for k in range(b - 1, min(levels, default=b) - 1, -1):
        d, c = rows[k + 1][lifts[k][0]], b - k
        for lift in lifts[k][1:]:  # one point at a time: a gather of all n - k holds n - k levels
            d += rows[k + 1][lift]
        if np.count_nonzero(d % c):
            raise AssertionError(f"inexact division by {c} in orbit walk to level {k}")
        rows[k] = np.floor_divide(d, c, out=d)
        rows = {s: r for s, r in rows.items() if s in levels or s == k}  # and the one walked
    w = np.concatenate([rows[s] for s in levels] or [rows[b][:0]])  # no levels: no rows
    e = np.repeat(np.eye(len(levels), dtype=np.int64), [len(rows[s]) for s in levels], axis=0)
    return np.hstack([w, -e]), order[ids]


def _orbit_echelon(n: int, b: int, p: int, levels) -> tuple[np.ndarray, list[int], int, np.ndarray]:
    """_orbit_level_system on levels, reduced mod p and eliminated in place:
    the array, its pivot columns, e, their count on the element columns,
    and the orbit ids of the b-listing."""
    system, ids = _orbit_level_system(n, b, p, levels)
    system %= p
    m, pivots = _eliminate(system, p)
    return m, pivots, bisect_left(pivots, int(ids.max()) + 1), ids


def _level_element(n: int, b: int, p: int, targets: Mapping[int, int]) -> Element | None:
    """The element whose level-s sums are all targets[s] mod p, or None.

    The echelon solution (free coordinates zero) of the orbit system on
    the target levels, back-solved by _kernel_vector from the scalar
    coordinates preset to the targets, and expanded by orbit id. A scalar
    pivot row, zero on the element columns, that moves a preset shows that
    no G-invariant element fits, and so, by averaging, no element.
    """
    p = _require_word_prime(p)
    _require_ints(targets.values(), "level targets")
    m, pivots, _, ids = _orbit_echelon(n, b, p, list(targets))
    ncols = m.shape[1] - len(targets)
    preset = np.zeros(m.shape[1], dtype=np.int64)
    preset[ncols:] = [t % p for t in targets.values()]
    x = _kernel_vector(m, p, pivots, preset)
    if not np.array_equal(x[ncols:], preset[ncols:]):
        return None
    return Element(n, b, p, x[ids])


def specht_membership(u: Element) -> bool:
    """Whether psi_v(u) = 0 mod p for every level v = 0..b-1."""
    return not any((w % u.p).any() for w in psi_levels(u.n, u.b, u.vec)[:-1])


def specht_dim(a: int, b: int, p: int) -> int:
    """Dimension over GF(p) of the joint kernel of psi_0..psi_(b-1).

    Only the levels in _kept_levels(b, p) are eliminated; they imply the
    rest. The kernel rank is e, _kept_echelon's count of element pivots.
    """
    lam, p = Partition2(a, b), _require_word_prime(p)
    e = _kept_echelon(lam.n, b, p)[2]  # refuses n past the mask width before C(n, b)
    return math.comb(lam.n, b) - e


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
