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
from itertools import combinations

import numpy as np

from .linalg import MatFp, MatZ, rank_fp, solve_affine_fp, solve_integer
from .numtheory import (
    binom_mod_p,
    digits_base_p,
    p_adic_length,
    require_odd_prime,
)
from .tabloid import (
    Element,
    Partition2,
    inclusion_stack,
    mask_from_members,
    psi,
    psi_int,
    psi_levels,
    subsets_colex,
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
    "constant_level_system",
    "constant_space_dim",
]


@dataclass(frozen=True, slots=True)
class DesignParams:
    """Ground size g, block size b, strength t, odd prime p; 0 <= t < b <= g."""

    g: int
    b: int
    t: int
    p: int

    def __post_init__(self) -> None:
        require_odd_prime(self.p)
        if not 0 <= self.t < self.b <= self.g:
            raise ValueError(
                f"need 0 <= t < b <= g, got t={self.t}, b={self.b}, g={self.g}"
            )


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

        False when self is not universal; other must be universal.
        """
        if not self.universal:
            return False
        p = self.p
        c = None
        for mu, nu in zip(self.levels, other.levels):
            if nu:
                cand = mu * pow(nu, p - 2, p) % p
                if c is None:
                    c = cand
                elif c != cand:
                    return False
            elif mu:
                return False
        return True  # c None means other is zero, forcing self to be zero too

    def to_json(self) -> dict:
        out = []
        for v, mu in enumerate(self.levels):
            row: dict = {"v": v, "constant": mu is not None}
            if mu is not None:
                row["mu"] = mu
            out.append(row)
        return {"levels": out}


def constant_value(arr) -> int | None:
    """The common entry of a vector, or None if entries differ."""
    a = np.asarray(arr)
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
    """Whether spectrum(u) = alpha * spectrum(w) for some scalar alpha."""
    su, sw = spectrum(u), spectrum(w)
    if not (su.universal and sw.universal):
        raise ValueError("similarity compares universal designs only")
    if u.p != w.p:
        raise ValueError("modulus mismatch")
    return su.is_multiple_of(sw)


def coefficient_transfer(mu_t: int, params: DesignParams, j: int) -> int:
    """mu_j of a t-design from mu_t: C(g-j, t-j) / C(b-j, t-j) * mu_t mod p.

    Only valid when the denominator is invertible mod p; otherwise the
    level-j coefficient is not determined by mu_t and this raises.
    """
    g, b, t, p = params.g, params.b, params.t, params.p
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
    require_odd_prime(p)
    if not 0 <= l <= p_adic_length(b, p):
        raise ValueError(f"need 0 <= l <= l_p(b), got l={l}, b={b}")
    return digits_base_p(a, p).digit(l) != p - 1 or b < p ** (l + 1)


def wilson_exists(g: int, b: int, t: int, p: int) -> bool:
    """Arithmetic criterion for a non-null t-design of block size b on [g].

    Requires t <= b <= g - t. True iff for every i <= t, whenever p divides
    C(b-i, t-i) it also divides C(g-i, t-i).
    """
    require_odd_prime(p)
    if not 0 <= t < b <= g - t:
        raise ValueError(f"need 0 <= t < b <= g - t, got g={g}, b={b}, t={t}")
    return all(
        binom_mod_p(g - i, t - i, p) == 0
        for i in range(t + 1)
        if binom_mod_p(b - i, t - i, p) == 0
    )


def find_t_design_fp(params: DesignParams, target: int) -> Element | None:
    """A t-design with level-t constant `target`, by solving mod p.

    Returns the canonical echelon solution (free coordinates zero) or None
    when no design exists. target 0 is allowed; the zero element then
    satisfies it.
    """
    g, b, t, p = params.g, params.b, params.t, params.p
    stack, _ = inclusion_stack(g, b, [t])
    rhs = np.full(stack.shape[0], target % p, dtype=np.int64)
    sol = solve_affine_fp(MatFp(stack, p), rhs)
    if sol.particular is None:
        return None
    return Element(g, b, p, sol.particular)


def integral_design_exists(g: int, b: int, t: int, mu) -> bool:
    """Ratio criterion over Z: (g-s) mu_{s+1} = (b-s) mu_s for all s < t.

    mu lists the prescribed level constants mu_0..mu_t.
    """
    mus = [int(x) for x in mu]
    if len(mus) != t + 1:
        raise ValueError(f"need {t + 1} level constants mu_0..mu_{t}, got {len(mus)}")
    if not 0 <= t < b <= g:
        raise ValueError(f"need 0 <= t < b <= g, got g={g}, b={b}, t={t}")
    return all((g - s) * mus[s + 1] == (b - s) * mus[s] for s in range(t))


@dataclass(frozen=True)
class IntegerDesign:
    """Integer coefficient vector on colex b-subsets of [g]."""

    g: int
    b: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.b <= self.g:
            raise ValueError(f"need 1 <= b <= g, got b={self.b}, g={self.g}")
        if len(self.coeffs) != math.comb(self.g, self.b):
            raise ValueError("coefficient vector has the wrong length")

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
    mus = [int(x) for x in mu]
    if len(mus) != t + 1:
        raise ValueError(f"need {t + 1} level constants mu_0..mu_{t}, got {len(mus)}")
    if not 0 <= t < b <= g:
        raise ValueError(f"need 0 <= t < b <= g, got g={g}, b={b}, t={t}")
    stack, offsets = inclusion_stack(g, b, range(t + 1))
    rhs: list[int] = []
    for s in range(t + 1):
        rhs.extend([mus[s]] * (offsets[s + 1] - offsets[s]))
    x = solve_integer(MatZ.from_numpy(stack), rhs)
    if x is None:
        return None
    design = IntegerDesign(g, b, tuple(x))
    levels = psi_levels(g, b, np.array(design.coeffs, dtype=object))
    if any((levels[s] != mus[s]).any() for s in range(t + 1)):
        raise AssertionError("integral design failed its level check")
    return design


def null_design_generator(g: int, b: int, t: int, pairs, fixed=()) -> IntegerDesign:
    """Signed generator of the strength-t null designs.

    pairs is a sequence of t+1 disjoint ordered pairs (x_i, y_i); fixed is
    a disjoint (b-t-1)-subset appearing in every block. Each block picks
    x_i or y_i from every pair; the sign is the parity of the number of
    y picks. Every level <= t then sums to zero.
    """
    ps = [(int(x), int(y)) for x, y in pairs]
    fx = tuple(int(z) for z in fixed)
    if len(ps) != t + 1:
        raise ValueError(f"need {t + 1} pairs, got {len(ps)}")
    if len(fx) != b - t - 1:
        raise ValueError(f"need {b - t - 1} fixed points, got {len(fx)}")
    flat = [z for xy in ps for z in xy] + list(fx)
    if len(set(flat)) != len(flat):
        raise ValueError("pairs and fixed points must be pairwise disjoint")
    if any(not 1 <= z <= g for z in flat):
        raise ValueError(f"points must lie in [1, {g}]")
    masks = subsets_colex(g, b)
    vec = [0] * len(masks)
    for picks in range(1 << (t + 1)):
        members = list(fx)
        ycount = 0
        for i, (x, y) in enumerate(ps):
            if picks >> i & 1:
                members.append(x)
            else:
                members.append(y)
                ycount += 1
        mask = mask_from_members(members, g)
        idx = int(np.searchsorted(masks, mask))
        vec[idx] += -1 if ycount % 2 else 1
    return IntegerDesign(g, b, tuple(vec))


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
    require_odd_prime(p)
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
        if binom_mod_p(b - i, j - i, p) != 0:
            parent[find(i)] = find(j)
    groups: dict[int, list[int]] = {}
    for j in members:
        groups.setdefault(find(j), []).append(j)
    components = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=min)
    )
    return PosetX(a, b, p, tuple(members), components)


def constant_level_system(n: int, b: int, levels) -> np.ndarray:
    """Augmented matrix whose kernel is the all-chosen-levels-constant space.

    Columns: C(n, b) element coordinates, then one scalar per requested
    level. A kernel vector (u, c) satisfies psi_v(u) = c_v * ones for each
    level v; u determines c, so the kernel dimension equals the dimension
    of the constant-level space.
    """
    lv = list(levels)
    stack, offsets = inclusion_stack(n, b, lv)
    aug = np.zeros((stack.shape[0], stack.shape[1] + len(lv)), dtype=np.int64)
    aug[:, : stack.shape[1]] = stack
    for k in range(len(lv)):
        aug[offsets[k] : offsets[k + 1], stack.shape[1] + k] = -1
    return aug


def constant_space_dim(n: int, b: int, p: int, levels) -> int:
    """Dimension of {u : psi_v(u) constant for all v in levels}."""
    require_odd_prime(p)
    lv = list(levels)
    aug = constant_level_system(n, b, lv)
    return aug.shape[1] - rank_fp(MatFp(aug, p))
