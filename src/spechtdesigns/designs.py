"""p-ary and integral designs on b-subsets: spectra, existence, construction.

A coefficient vector c on b-subsets of [g] is a t-design when its level-t
sums (over supersets) are constant. The per-level constants of an element
form its spectrum. Existence goes two independent ways: the classical
arithmetic criteria (Wilson mod p, the integral ratio condition) and
direct linear solving; the test suite holds the two routes against each
other, so neither implementation may consult the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .linalg import MatZ, _require_word_prime, solve_integer
from .numtheory import (
    _MAX_BINOM_STEPS,
    _carries,
    _int_vector,
    _require_ints,
    binom_mod_p,
    digits_base_p,
    p_adic_length,
    require_odd_prime,
)
from .tabloid import (
    _MAX_SUBSETS,
    Element,
    Partition2,
    _level_element,
    _ranks,
    _require_listable,
    _require_walkable,
    constant_level_system,
    psi,
    psi_int,
    psi_levels,
)

__all__ = [
    "DesignParams",
    "Spectrum",
    "IntegerDesign",
    "PosetX",
    "constant_value",
    "spectrum",
    "is_t_design",
    "is_universal",
    "similar",
    "coefficient_transfer",
    "wilson_exists",
    "find_t_design_fp",
    "integral_design_exists",
    "construct_integral_design",
    "null_design_generator",
    "level_design_exists",
    "poset_X",
]


def _require_design_sizes(g: int, b: int, t: int) -> None:
    """Refuse sizes that are not ints or lie off the domain 0 <= t < b <= g."""
    _require_ints((g, b, t), "design parameters")
    if not 0 <= t < b <= g:
        raise ValueError(f"need 0 <= t < b <= g, got t={t}, b={b}, g={g}")


@dataclass(frozen=True, slots=True)
class DesignParams:
    """Ground size g, block size b, strength t, odd prime p; 0 <= t < b <= g."""

    g: int
    b: int
    t: int
    p: int

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        _require_design_sizes(self.g, self.b, self.t)


@dataclass(frozen=True, slots=True)
class Spectrum:
    """Per-level constants of an element: levels[v] is mu_v, or None when
    the level-v image is not constant."""

    p: int
    levels: tuple[int | None, ...]

    @property
    def universal(self) -> bool:
        return all(mu is not None for mu in self.levels)

    @property
    def some_nonzero(self) -> bool:
        return any(mu not in (0, None) for mu in self.levels)

    def is_multiple_of(self, other: "Spectrum") -> bool:
        """Whether self = c * other for some scalar c mod p.

        False when self is not universal; other must be universal, and the
        two spectra of one length. c is read off other's first nonzero
        level, or is 0 when other is zero.
        """
        if not self.universal:
            return False
        p = self.p
        pairs = list(zip(self.levels, other.levels, strict=True))
        c = next((mu * pow(nu, p - 2, p) for mu, nu in pairs if nu), 0)
        return all((mu - c * nu) % p == 0 for mu, nu in pairs)

    def to_json(self) -> dict:
        out = []
        for v, mu in enumerate(self.levels):
            row: dict = {"v": v, "constant": mu is not None}
            if mu is not None:
                row["mu"] = mu
            out.append(row)
        return {"levels": out}


def constant_value(arr) -> int | None:
    """The common entry of a vector of ints, or None if entries differ;
    read by _int_vector, so floats and bools are refused."""
    a = _int_vector(arr, "vector entries")
    if a.size == 0:
        return 0
    first = a.flat[0]
    return int(first) if bool((a == first).all()) else None


def spectrum(u: Element) -> Spectrum:
    """Spectrum of u across levels 0..b-1."""
    levels = psi_levels(u.n, u.b, u.vec)[:-1]
    return Spectrum(u.p, tuple(constant_value(w % u.p) for w in levels))


def is_t_design(u: Element, t: int) -> bool:
    """Whether psi_t(u) is constant."""
    if not 0 <= t < u.b:
        raise ValueError(f"need 0 <= t < b, got t={t}, b={u.b}")
    return constant_value(psi(u, t)) is not None


def is_universal(u: Element) -> bool:
    """Whether every level 0..b-1 of u is constant."""
    return spectrum(u).universal


def similar(u: Element, w: Element) -> bool:
    """Whether spectrum(u) = alpha * spectrum(w) for some scalar alpha;
    u and w must be universal elements of one module."""
    su, sw = spectrum(u), spectrum(w)
    if not (su.universal and sw.universal):
        raise ValueError("similarity compares universal designs only")
    u._like(w)
    return su.is_multiple_of(sw)


def coefficient_transfer(mu_t: int, params: DesignParams, j: int) -> int:
    """mu_j of a t-design from mu_t: C(g-j, t-j) / C(b-j, t-j) * mu_t mod p.

    Only valid when the denominator is invertible mod p; otherwise the
    level-j coefficient is not determined by mu_t and this raises.
    """
    g, b, t, p = params.g, params.b, params.t, params.p
    _require_ints((mu_t, j), "level constant and level")
    mu_t, j = int(mu_t), int(j)
    if not 0 <= j <= t:
        raise ValueError(f"need 0 <= j <= t, got j={j}, t={t}")
    den = binom_mod_p(b - j, t - j, p)
    if den == 0:
        raise ValueError(
            f"C({b - j}, {t - j}) = 0 mod {p}: level {j} not determined by level {t}"
        )
    num = binom_mod_p(g - j, t - j, p)
    return num * pow(den, p - 2, p) * (mu_t % p) % p


def level_design_exists(a: int, b: int, p: int, l: int) -> bool:
    """Digit criterion for a non-null design at strength b - p^l on a + b
    points: digit l of a is not p - 1, or b < p^(l+1).

    The strict inequality matters: at b = p^(l+1) the binomial C(b, p^l)
    vanishes mod p, so existence does depend on digit l of a.
    """
    p = require_odd_prime(p)
    _require_ints((a, b, l), "shape and digit position")
    if not 0 <= l <= p_adic_length(b, p):
        raise ValueError(f"need 0 <= l <= l_p(b), got l={l}, b={b}")
    return digits_base_p(a, p).digit(l) != p - 1 or b < p ** (l + 1)


def wilson_exists(g: int, b: int, t: int, p: int) -> bool:
    """Arithmetic criterion for a non-null t-design of block size b on [g].

    Requires t <= b <= g - t. True iff for every i <= t, whenever p divides
    C(b-i, t-i) it also divides C(g-i, t-i). Step i multiplies at most
    min(t, b - t) and min(t, g - t) times, and at most (p - 1) // 2 times
    per base-p digit of t; a call whose t + 1 steps could pass
    _MAX_BINOM_STEPS multiplications is refused before the first.
    """
    p = require_odd_prime(p)
    _require_ints((g, b, t), "design parameters")
    if not 0 <= t < b <= g - t:
        raise ValueError(f"need 0 <= t < b <= g - t, got g={g}, b={b}, t={t}")
    per_binom = min(t, int(t).bit_length() * (p - 1) // 2)  # bit_length >= base-p digits
    steps = (t + 1) * (min(b - t, per_binom) + min(g - t, per_binom))
    if steps > _MAX_BINOM_STEPS:
        raise ValueError(f"Wilson's criterion at t={t} mod {p} needs up to {steps} "
                         f"multiplications, over the limit of {_MAX_BINOM_STEPS}")
    return all(
        binom_mod_p(g - i, t - i, p) == 0
        for i in range(t + 1)
        if binom_mod_p(b - i, t - i, p) == 0
    )


def find_t_design_fp(params: DesignParams, target: int) -> Element | None:
    """A t-design with level-t constant `target`, by solving mod p.

    Returns tabloid._level_element on level t, the echelon solution of
    the one-level orbit system of a p'-group expanded by orbit id, or None
    when no design exists (averaging over the group keeps level sums). For
    a target = 0 mod p the zero element is returned without a system. A
    solution whose psi_t is not the target on every t-subset raises
    AssertionError. That check walks psi from level b down to t, so a
    shape whose walk _require_walkable refuses is refused before the solve.
    """
    g, b, t, p = params.g, params.b, params.t, params.p
    _require_word_prime(p)  # refused first, as by _level_element
    _require_ints((target,), "level targets")
    if target % p == 0:
        return Element.zero(g, b, p)
    _require_walkable(g, b, t)
    u = _level_element(g, b, p, {t: target})
    if u is not None and (psi(u, t) != target % p).any():
        raise AssertionError(f"t-design on (g={g}, b={b}, t={t}) mod {p} failed its level "
                             f"check for target {target}")
    return u


def _level_constants(g: int, b: int, t: int, mu) -> list[int]:
    """mu_0..mu_t as ints, after checking the sizes, then the constants and their count."""
    _require_design_sizes(g, b, t)
    mus = list(mu)
    _require_ints(mus, "level constants")
    mus = [int(x) for x in mus]
    if len(mus) != t + 1:
        raise ValueError(f"need {t + 1} level constants mu_0..mu_{t}, got {len(mus)}")
    return mus


def integral_design_exists(g: int, b: int, t: int, mu) -> bool:
    """Ratio criterion over Z: (g-s) mu_{s+1} = (b-s) mu_s for all s < t.

    mu lists the prescribed level constants mu_0..mu_t.
    """
    mus = _level_constants(g, b, t, mu)
    return all((g - s) * mus[s + 1] == (b - s) * mus[s] for s in range(t))


@dataclass(frozen=True)
class IntegerDesign:
    """Integer coefficient vector on colex b-subsets of [g]."""

    g: int
    b: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_ints((self.g, self.b), "design sizes")
        _require_ints(self.coeffs, "design coefficients")
        if not 1 <= self.b <= self.g:
            raise ValueError(f"need 1 <= b <= g, got b={self.b}, g={self.g}")
        if len(self.coeffs) != math.comb(self.g, self.b):
            raise ValueError("coefficient vector has the wrong length")

    @classmethod
    def _of_coeffs(cls, g: int, b: int, coeffs: tuple[int, ...]) -> "IntegerDesign":
        """A design on coeffs itself, with no check.

        Only for a tuple of C(g, b) Python ints that the caller has just
        built, where g and b have passed the checks of __post_init__.
        """
        u = object.__new__(cls)
        for name, value in (("g", g), ("b", b), ("coeffs", coeffs)):
            object.__setattr__(u, name, value)
        return u

    def hat_values(self, s: int) -> list[int]:
        """Level-s sums over supersets, exactly over Z."""
        arr = psi_int(self.g, self.b, np.array(self.coeffs, dtype=object), s)
        return [int(x) for x in arr]

    def reduce_mod(self, p: int) -> Element:
        return Element(self.g, self.b, p, [c % p for c in self.coeffs])


def construct_integral_design(g: int, b: int, t: int, mu) -> IntegerDesign | None:
    """Solve for an integral design with prescribed constants mu_0..mu_t.

    Stacks the level-0..t inclusion matrices into one integer system and
    hands it to the integer solver. No arithmetic feasibility test is
    consulted here: this is the independent route the ratio criterion is
    checked against. The output is verified level by level before return.
    """
    mus = _level_constants(g, b, t, mu)
    # the solver's one working copy: the rows x cols system over a cols x cols U
    cols = math.comb(g, b)
    cells = cols * (sum(math.comb(g, s) for s in range(t + 1)) + cols)
    if cells > _MAX_SUBSETS:
        raise ValueError(
            f"integer solve on C({g}, {b}) = {cols} columns needs {cells} cells, "
            f"over the limit of {_MAX_SUBSETS}"
        )
    system = constant_level_system(g, b, range(t + 1))
    rhs = system[:, cols:].astype(object) @ np.array([-m for m in mus], dtype=object)
    x = solve_integer(MatZ.from_numpy(system[:, :cols]), rhs.tolist())
    if x is None:
        return None
    design = IntegerDesign(g, b, tuple(x))
    levels = psi_levels(g, b, np.array(design.coeffs, dtype=object))
    if any((levels[s] != mus[s]).any() for s in range(t + 1)):
        raise AssertionError(
            f"integral design on (g={g}, b={b}, t={t}) failed its level check "
            f"for mu={mus}"
        )
    return design


def null_design_generator(g: int, b: int, t: int, pairs, fixed=()) -> IntegerDesign:
    """Signed generator of the strength-t null designs.

    pairs is a sequence of t+1 disjoint ordered pairs (x_i, y_i); fixed is
    a disjoint (b-t-1)-subset appearing in every block. Each block picks
    x_i or y_i from every pair; the sign is the parity of the number of
    y picks. Every level <= t then sums to zero.
    """
    _require_ints((t,), "strength")
    if t < 0:
        raise ValueError(f"need strength t >= 0, got t={t}")
    ps = [(x, y) for x, y in pairs]
    fx = tuple(fixed)
    _require_ints(chain(chain.from_iterable(ps), fx), "points")
    if len(ps) != t + 1:
        raise ValueError(f"need {t + 1} pairs, got {len(ps)}")
    if len(fx) != b - t - 1:
        raise ValueError(f"need {b - t - 1} fixed points, got {len(fx)}")
    flat = [z for xy in ps for z in xy] + list(fx)
    if len(set(flat)) != len(flat):
        raise ValueError("pairs and fixed points must be pairwise disjoint")
    if any(not 1 <= z <= g for z in flat):
        raise ValueError(f"points must lie in [1, {g}]")
    # with the points distinct and in [1, g], the 2^(t+1) blocks are distinct
    # b-subsets, so there are at most C(g, b) of them
    coeffs = [0] * _require_listable(g, b)
    xy = np.array(ps, dtype=np.int64).reshape(t + 1, 2)
    picks = np.arange(1 << (t + 1))[:, None] >> np.arange(t + 1) & 1  # 1: pick x
    blocks = np.hstack([np.where(picks == 1, xy[:, 0], xy[:, 1]),
                        np.tile(np.array(fx, dtype=np.int64), (len(picks), 1))])
    signs = (-1) ** (t + 1 - picks.sum(axis=1))
    for r, c in zip(_ranks(g, b, np.sort(blocks, axis=1)).tolist(), signs.tolist()):
        coeffs[r] = c
    return IntegerDesign._of_coeffs(g, b, tuple(coeffs))


@dataclass(frozen=True)
class PosetX:
    """Digit-compatible levels of (a, b) mod p and their comparability parts.

    members: levels j in 0..b-1 whose complement b-j adds to a without
    touching a forbidden digit below the leading position of b.
    components: partition of members under the relation i > j comparable
    iff C(b-j, i-j) is nonzero mod p.
    """

    a: int
    b: int
    p: int
    members: tuple[int, ...]
    components: tuple[tuple[int, ...], ...]

    def to_json(self) -> dict:
        return {
            "members": list(self.members),
            "components": [list(c) for c in self.components],
        }


def poset_X(a: int, b: int, p: int) -> PosetX:
    """Compute the level poset of the partition (a, b) mod p."""
    Partition2(a, b)
    a, b, p = int(a), int(b), require_odd_prime(p)
    pairs = math.comb(b, 2)  # the component merge visits every pair of members
    if pairs > _MAX_SUBSETS:
        raise ValueError(
            f"poset of b = {b} levels has C({b}, 2) = {pairs} level pairs, "
            f"over the limit of {_MAX_SUBSETS}"
        )
    ell = p_adic_length(b, p)
    da = digits_base_p(a, p)
    members = []
    for j in range(b):
        d = digits_base_p(b - j, p)
        if all(d.digit(m) + da.digit(m) < p for m in range(ell)):
            members.append(j)
    parent = {j: j for j in members}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in combinations(members, 2):  # i < j
        if _carries(j - i, b - j, p) == 0:  # Kummer: C(b-i, j-i) != 0 mod p
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for j in members:
        groups.setdefault(find(j), []).append(j)
    components = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=min)
    )
    return PosetX(a, b, p, tuple(members), components)
