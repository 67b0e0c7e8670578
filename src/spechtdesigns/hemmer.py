"""Constructing and verifying universal elements with independent spectra.

An element u on two-row tabloids qualifies when (1) every level sum is
constant, (2) some level is nonzero, and (3) its spectrum is not a scalar
multiple of the all-ones element's spectrum. Constructors exist for the
two kinds classify() predicts: a digit-divisibility kind solved mod p,
and a pointed kind built from a block-avoiding base element.
Every constructor re-verifies its output and raises SelfCheckError on
any miss, so a returned element is always certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import (
    Spectrum,
    poset_X,
    spectrum,
)
from .h1 import _fields_json, classify
from .linalg import _kernel_vector, _require_word_prime
from .numtheory import _require_ints, binom_mod_p, p_adic_length, p_adic_val, require_odd_prime
from .tabloid import (
    Element,
    Partition2,
    _kept_levels,
    _level_element,
    _orbit_echelon,
    _require_listable,
    f_lambda,
    subsets_colex,
)

__all__ = [
    "SelfCheckError",
    "HemmerReport",
    "verify_hemmer",
    "adjoin",
    "construct_base_case",
    "construct_pointed",
    "construct_james",
    "construct_auto",
    "decompose_pointed",
    "find_hemmer_by_solver",
]


class SelfCheckError(RuntimeError):
    """A constructed object failed its own verification."""


def _f_spectrum(a: int, b: int, p: int) -> Spectrum:
    """Spectrum of the all-ones element, by direct binomials."""
    n = a + b
    return Spectrum(p, tuple(binom_mod_p(n - v, b - v, p) for v in range(b)))


@dataclass(frozen=True, slots=True)
class HemmerReport:
    """Verification of the three defining conditions for one element."""

    a: int
    b: int
    p: int
    spectrum: Spectrum
    condition1: bool
    some_level_nonzero: bool
    condition2: bool

    @property
    def is_hemmer(self) -> bool:
        return self.condition1 and self.some_level_nonzero and self.condition2

    def to_json(self) -> dict:
        return {**_fields_json(self), "spectrum": self.spectrum.to_json(),
                "is_hemmer": self.is_hemmer}


def verify_hemmer(u: Element) -> HemmerReport:
    """Check the three conditions for u. Requires a >= b."""
    if u.a < u.b:
        raise ValueError(f"need a >= b, got a={u.a}, b={u.b}")
    s = spectrum(u)
    return HemmerReport(
        u.a, u.b, u.p, s,
        condition1=s.universal,
        some_level_nonzero=s.some_nonzero,
        condition2=not s.is_multiple_of(_f_spectrum(u.a, u.b, u.p)),
    )


def adjoin(u: Element, new_points) -> Element:
    """Extend u's ground set by new_points, given in the enlarged numbering.

    The old ground maps order-preservingly onto the complement of
    new_points and every block absorbs them: a bijection, in colex order,
    onto the blocks that contain new_points, whose slots u's entries fill.
    Points must be ints or numpy integers; floats and bools are refused.
    """
    pts = list(new_points)
    _require_ints(pts, "new points")
    pts = sorted(int(q) for q in pts)
    k = len(pts)
    if len(set(pts)) != k:
        raise ValueError("new points must be distinct")
    n2 = u.n + k
    if pts and not (1 <= pts[0] and pts[-1] <= n2):
        raise ValueError(f"new points must lie in [1, {n2}]")
    ymask = sum(1 << (q - 1) for q in pts)
    new_masks = subsets_colex(n2, u.b + k)
    vec = np.zeros(len(new_masks), dtype=np.int64)
    vec[(new_masks & ymask) == ymask] = u.vec
    return Element._of_residues(n2, u.b + k, u.p, vec)


def _certify(u: Element, name: str, levels_ok) -> Element:
    """Return u if it qualifies and levels_ok holds on its spectrum levels.

    Raises SelfCheckError naming the constructor, shape and spectrum
    otherwise.
    """
    rep = verify_hemmer(u)
    if not (rep.is_hemmer and levels_ok(rep.spectrum.levels)):
        raise SelfCheckError(
            f"{name} element for (a={u.a}, b={u.b}, p={u.p}) failed verification: "
            f"spectrum {rep.spectrum.levels}"
        )
    return u


def construct_base_case(a: int, b: int, p: int) -> Element:
    """Element whose spectrum is nonzero only at level 0, for b a power of p.

    Requires b = p^beta with p^(nu_p(a+1)) < b and a >= b. Sums every
    b-subset avoiding the first a - b + 1 ground points; the surviving
    block sums of each level then cancel mod p except at level 0.
    """
    Partition2(a, b)
    p = require_odd_prime(p)
    beta = p_adic_length(b, p)
    if b != p**beta:
        raise ValueError(f"b={b} is not a power of {p}")
    if p ** p_adic_val(a + 1, p) >= b:
        raise ValueError(
            f"need p^nu_p(a+1) < b, got nu={p_adic_val(a + 1, p)}, b={b}"
        )
    n = a + b
    m = a - b + 1
    masks = subsets_colex(n, b)
    low = (1 << m) - 1
    vec = np.where(masks & low == 0, 1, 0).astype(np.int64)
    want0 = binom_mod_p(2 * b - 1, b, p)
    return _certify(
        Element(n, b, p, vec), "base",
        lambda levels: want0 != 0 and levels == (want0,) + (0,) * (b - 1),
    )


def construct_pointed(a: int, b: int, p: int) -> Element:
    """Element whose spectrum is nonzero exactly at level bhat = b - p^beta.

    Only defined when classify(a, b, p) is pointed. For bhat = 0 this is
    the base construction; otherwise u is the sum, over every bhat-subset
    S of [n], of the base element u0 for (a, p^beta) with S adjoined to
    its blocks. The paper weights these copies by a strength-bhat carrier
    design c on (b-1)-subsets, but the weights cancel:
        sum_B c_B sum_{S in B} adjoin(u0, S) = sum_S (sum_{B >= S} c_B) adjoin(u0, S),
    and the carrier's level-bhat sums sum_{B >= S} c_B are all 1 mod p.
    """
    n = a + b
    _require_listable(n, b)
    cls = classify(a, b, p)
    if cls.kind != "pointed":
        raise ValueError(f"(a={a}, b={b}) mod {p} is {cls.kind}, not pointed")
    beta, bhat = cls.beta, cls.bhat
    if bhat == 0:
        return construct_base_case(a, b, p)
    u0 = construct_base_case(a, p**beta, p)
    acc = np.zeros(math.comb(n, b), dtype=np.int64)
    for sub in combinations(range(1, n + 1), bhat):
        acc += adjoin(u0, sub).vec
    return _certify(
        Element(n, b, p, acc), "pointed",
        lambda levels: levels[bhat] != 0
        and all(mu == 0 for v, mu in enumerate(levels) if v != bhat),
    )


def construct_james(a: int, b: int, p: int) -> Element:
    """Element with spectrum obtained from the all-ones level sums divided
    by their common p-power.

    Only defined when classify(a, b, p) is james. The exact level sums of
    the all-ones element are C(n-s, b-s); dividing by p^d with d their
    minimum valuation gives targets, not all divisible by p, that an
    integral design realizes; so the GF(p) level system with those targets
    is consistent. The targets obey the composition identity mod p, so the
    system on the levels of _kept_levels(b, p) has the same solutions. The
    witness is tabloid._level_element on those levels and targets: the
    echelon solution of the orbit system of the p'-group G of
    tabloid._orbit_tree, expanded by orbit id, and certified by its full
    spectrum walk.
    """
    n = a + b
    _require_listable(n, b)
    cls = classify(a, b, p)
    if cls.kind != "james":
        raise ValueError(f"(a={a}, b={b}) mod {p} is {cls.kind}, not james")
    exact = [math.comb(n - s, b - s) for s in range(b)]
    d = min(p_adic_val(x, p) for x in exact)
    mus = [x // p**d % p for x in exact]
    u = _level_element(n, b, p, {s: mus[s] for s in _kept_levels(b, p)})
    if u is None:
        raise SelfCheckError(
            f"no G-invariant element with level constants {mus} mod {p} on (n={n}, b={b})"
        )
    return _certify(u, "james", lambda levels: levels == tuple(mus))


def construct_auto(a: int, b: int, p: int) -> Element:
    """Dispatch on the classification; raises ValueError for kind neither."""
    kind = classify(a, b, p).kind
    if kind == "james":
        return construct_james(a, b, p)
    if kind == "pointed":
        return construct_pointed(a, b, p)
    raise ValueError(
        f"(a={a}, b={b}) mod {p} is neither kind; no such element exists"
    )


def decompose_pointed(w: Element) -> tuple[Element, int]:
    """Split a universal w on a pointed shape as w = u' + alpha * f with
    the spectrum of u' supported on the isolated level.

    Returns (u', alpha). alpha is read off at a level of the big poset
    component, where the all-ones spectrum cannot vanish.
    """
    a, b, p = w.a, w.b, w.p
    cls = classify(a, b, p)
    if cls.kind != "pointed":
        raise ValueError(f"(a={a}, b={b}) mod {p} is {cls.kind}, not pointed")
    sw = spectrum(w)
    if not sw.universal:
        raise ValueError("decomposition needs every level constant")
    bhat = cls.bhat
    px = poset_X(a, b, p)
    big = [v for comp in px.components for v in comp if bhat not in comp]
    if not big or (bhat,) not in px.components:
        raise SelfCheckError(
            f"poset of (a={a}, b={b}, p={p}) lacks the pointed shape: {px.components}"
        )
    sf = _f_spectrum(a, b, p)
    v = big[0]
    if sf.levels[v] == 0:
        raise SelfCheckError(f"all-ones spectrum {sf.levels} of (a={a}, b={b}, p={p}) "
                             f"vanishes at poset level {v}")
    alpha = sw.levels[v] * pow(sf.levels[v], p - 2, p) % p
    u = w - alpha * f_lambda(a, b, p)
    su = spectrum(u)
    if not su.universal or any(
        mu != 0 for lv, mu in enumerate(su.levels) if lv != bhat
    ):
        raise SelfCheckError(
            f"residual spectrum {su.levels} of (a={a}, b={b}, p={p}) "
            f"not supported on level {bhat}"
        )
    return u, alpha


def find_hemmer_by_solver(a: int, b: int, p: int) -> Element | None:
    """Search for a qualifying element by pure linear algebra.

    One forward elimination, in place, of the orbit system on the kept
    levels (tabloid._orbit_echelon). Its kernel vectors pair the
    G-invariant elements with every level constant with their kept-level
    constants, which by averaging are those of all elements. The canonical
    vector of a free element column has spectrum 0, so only free scalar
    columns can qualify, and their spectra come from the scalar pivot rows
    alone, which are zero on the element columns. The first, in column
    order, that escapes the line of the all-ones spectrum is back-solved,
    expanded by orbit id, certified and returned. Its spectrum, not its
    vector, is the one a scan of the kernel basis of the all-level system
    over all C(n, b) blocks finds. Only the subset limit of the b-listing
    bounds it. Independent of the classification and of the constructors;
    returns None when no qualifying element exists.
    """
    Partition2(a, b)
    p = _require_word_prime(p)
    n = a + b
    kept = _kept_levels(b, p)
    m, pivots, e, ids = _orbit_echelon(n, b, p, kept)
    ncols = m.shape[1] - len(kept)
    sf_kept = Spectrum(p, tuple(_f_spectrum(a, b, p).levels[v] for v in kept))
    for g in range(ncols, m.shape[1]):
        if g in pivots[e:]:
            continue
        unit = np.eye(1, m.shape[1], g, dtype=np.int64)[0]
        levels = _kernel_vector(m[e:], p, pivots[e:], unit)[ncols:]
        if not Spectrum(p, tuple(levels.tolist())).is_multiple_of(sf_kept):
            u = Element(n, b, p, _kernel_vector(m, p, pivots, unit)[ids])
            return _certify(u, "solver", lambda levels: True)
    return None
