"""Constructing and verifying universal elements with independent spectra.

An element u on two-row tabloids qualifies when (1) every level sum is
constant, (2) some level is nonzero, and (3) its spectrum is not a scalar
multiple of the all-ones element's spectrum. Constructors exist for the
two kinds classify() predicts: a digit-divisibility kind solved over the
integers, and a pointed kind built from a block-avoiding base element.
Every constructor re-verifies its output and raises SelfCheckError on
any miss, so a returned element is always certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .designs import (
    DesignParams,
    Spectrum,
    constant_level_system,
    construct_integral_design,
    find_t_design_fp,
    poset_X,
    spectrum,
)
from .h1 import classify
from .linalg import MatFp, kernel_basis_fp
from .numtheory import binom_mod_p, p_adic_length, p_adic_val, require_odd_prime
from .tabloid import Element, Partition2, f_lambda, mask_from_members, subsets_colex

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
        return {
            "a": self.a,
            "b": self.b,
            "p": self.p,
            "spectrum": self.spectrum.to_json(),
            "condition1": self.condition1,
            "some_level_nonzero": self.some_level_nonzero,
            "condition2": self.condition2,
            "is_hemmer": self.is_hemmer,
        }


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


def adjoin(u: Element, new_points, row: str = "bottom") -> Element:
    """Extend u's ground set by new_points, given in the enlarged numbering.

    The old ground maps order-preservingly onto the complement of
    new_points. With row="bottom" every block absorbs the new points
    (block size grows); with row="top" blocks are unchanged.
    """
    if row not in ("bottom", "top"):
        raise ValueError(f"row must be 'bottom' or 'top', got {row!r}")
    pts = sorted(int(q) for q in new_points)
    k = len(pts)
    if len(set(pts)) != k:
        raise ValueError("new points must be distinct")
    n2 = u.n + k
    if pts and not (1 <= pts[0] and pts[-1] <= n2):
        raise ValueError(f"new points must lie in [1, {n2}]")
    ymask = mask_from_members(pts, n2)
    keep = [i for i in range(n2) if not ymask >> i & 1]
    old = subsets_colex(u.n, u.b)
    out = np.zeros(len(old), dtype=np.int64)
    for i, pos in enumerate(keep):
        out |= (old >> i & 1) << pos
    b2 = u.b
    if row == "bottom":
        out |= ymask
        b2 += k
    new_masks = subsets_colex(n2, b2)
    vec = np.zeros(len(new_masks), dtype=np.int64)
    vec[np.searchsorted(new_masks, out)] = u.vec
    return Element(n2, b2, u.p, vec)


def construct_base_case(a: int, b: int, p: int) -> Element:
    """Element whose spectrum is nonzero only at level 0, for b a power of p.

    Requires b = p^beta with p^(nu_p(a+1)) < b and a >= b. Sums every
    b-subset avoiding the first a - b + 1 ground points; the surviving
    block sums of each level then cancel mod p except at level 0.
    """
    Partition2(a, b)
    require_odd_prime(p)
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
    u = Element(n, b, p, vec)
    rep = verify_hemmer(u)
    want0 = binom_mod_p(2 * b - 1, b, p)
    ok = (
        rep.is_hemmer
        and rep.spectrum.levels[0] == want0
        and want0 != 0
        and all(mu == 0 for mu in rep.spectrum.levels[1:])
    )
    if not ok:
        raise SelfCheckError(
            f"base element for (a={a}, b={b}, p={p}) failed verification: "
            f"spectrum {rep.spectrum.levels}"
        )
    return u


def construct_pointed(a: int, b: int, p: int) -> Element:
    """Element whose spectrum is nonzero exactly at level bhat = b - p^beta.

    Only defined when classify(a, b, p) is pointed. For bhat = 0 this is
    the base construction; otherwise the base element for (a, p^beta) is
    summed over all ways to push bhat extra points into its blocks,
    weighted by a bhat-design on (b-1)-subsets of the full ground set.
    """
    cls = classify(a, b, p)
    if cls.kind != "pointed":
        raise ValueError(f"(a={a}, b={b}) mod {p} is {cls.kind}, not pointed")
    beta, bhat = cls.beta, cls.bhat
    if bhat == 0:
        return construct_base_case(a, b, p)
    n = a + b
    u0 = construct_base_case(a, p**beta, p)
    carrier = find_t_design_fp(DesignParams(n, b - 1, bhat, p), 1)
    if carrier is None:
        raise SelfCheckError(
            f"no strength-{bhat} carrier design exists on [{n}]"
        )
    acc = np.zeros(math.comb(n, b), dtype=np.int64)
    for members, c in carrier.support():
        for sub in combinations(members, bhat):
            acc = (acc + c * adjoin(u0, sub, "bottom").vec) % p
    u = Element(n, b, p, acc)
    rep = verify_hemmer(u)
    ok = (
        rep.is_hemmer
        and rep.spectrum.levels[bhat] != 0
        and all(mu == 0 for v, mu in enumerate(rep.spectrum.levels) if v != bhat)
    )
    if not ok:
        raise SelfCheckError(
            f"pointed element for (a={a}, b={b}, p={p}) failed verification: "
            f"spectrum {rep.spectrum.levels}"
        )
    return u


def construct_james(a: int, b: int, p: int) -> Element:
    """Element with spectrum obtained from the all-ones level sums divided
    by their common p-power.

    Only defined when classify(a, b, p) is james. The exact level sums of
    the all-ones element are C(n-s, b-s); dividing by p^d with d their
    minimum valuation gives integer targets an integral design realizes,
    and the reduction mod p has a nonzero level.
    """
    cls = classify(a, b, p)
    if cls.kind != "james":
        raise ValueError(f"(a={a}, b={b}) mod {p} is {cls.kind}, not james")
    n = a + b
    exact = [math.comb(n - s, b - s) for s in range(b)]
    d = min(p_adic_val(x, p) for x in exact)
    mus = [x // p**d for x in exact]
    design = construct_integral_design(n, b, b - 1, mus)
    if design is None:
        raise SelfCheckError(
            f"no integral design with targets {mus} on (n={n}, b={b})"
        )
    u = design.reduce_mod(p)
    rep = verify_hemmer(u)
    if not (rep.is_hemmer and rep.spectrum.levels == tuple(x % p for x in mus)):
        raise SelfCheckError(
            f"james element for (a={a}, b={b}, p={p}) failed verification: "
            f"spectrum {rep.spectrum.levels}"
        )
    return u


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
        raise SelfCheckError(f"all-ones spectrum vanishes at poset level {v}")
    alpha = sw.levels[v] * pow(sf.levels[v], p - 2, p) % p
    u = w - alpha * f_lambda(a, b, p)
    su = spectrum(u)
    if not su.universal or any(
        mu != 0 for lv, mu in enumerate(su.levels) if lv != bhat
    ):
        raise SelfCheckError(
            f"residual spectrum {su.levels} not supported on level {bhat}"
        )
    return u, alpha


def find_hemmer_by_solver(a: int, b: int, p: int, budget: int = 4000) -> Element | None:
    """Search for a qualifying element by pure linear algebra.

    Solves for all elements with every level constant, then scans a basis
    for one whose spectrum escapes the line spanned by the all-ones
    spectrum. Independent of the classification and of the constructors;
    returns None when no qualifying element exists.
    """
    Partition2(a, b)
    require_odd_prime(p)
    n = a + b
    ncols = math.comb(n, b)
    if ncols > budget:
        raise ValueError(
            f"C({n}, {b}) = {ncols} exceeds the budget of {budget} columns"
        )
    aug = constant_level_system(n, b, range(b))
    sf = _f_spectrum(a, b, p)
    for k in kernel_basis_fp(MatFp(aug, p)):
        s = Spectrum(p, tuple(int(x) for x in k[ncols:]))
        if not s.is_multiple_of(sf):
            u = Element(n, b, p, k[:ncols])
            rep = verify_hemmer(u)
            if not rep.is_hemmer:
                raise SelfCheckError("solver element failed verification")
            return u
    return None
