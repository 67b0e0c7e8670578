import itertools
import math

import numpy as np
import pytest

from spechtdesigns import designs, tabloid
from spechtdesigns.cli import main
from spechtdesigns.designs import (
    DesignParams,
    IntegerDesign,
    Spectrum,
    coefficient_transfer,
    constant_value,
    construct_integral_design,
    find_t_design_fp,
    integral_design_exists,
    is_t_design,
    is_universal,
    level_design_exists,
    null_design_generator,
    poset_X,
    similar,
    spectrum,
    wilson_exists,
)
from linalg_reference import constant_space_dim, inclusion_matrix, kernel_basis
from spechtdesigns.linalg import MatFp, rank_fp
from spechtdesigns.numtheory import binom_mod_p, p_adic_length
from spechtdesigns.tabloid import (
    Element,
    constant_level_system,
    f_lambda,
    psi,
    specht_membership,
)

BIG_PRIME = 10007


def pod_args(g: int, b: int, t: int):
    """(pairs, fixed) of every signed generator with x < y in each pair."""

    def matchings(points):
        if not points:
            yield []
            return
        x = points[0]
        rest = points[1:]
        for i, y in enumerate(rest):
            for m in matchings(rest[:i] + rest[i + 1 :]):
                yield [(x, y)] + m

    npts = 2 * (t + 1)
    if npts + (b - t - 1) > g:
        return
    for chosen in itertools.combinations(range(1, g + 1), npts):
        for pairs in matchings(list(chosen)):
            remaining = [x for x in range(1, g + 1) if x not in chosen]
            for fixed in itertools.combinations(remaining, b - t - 1):
                yield pairs, fixed


def all_pods(g: int, b: int, t: int):
    """Every signed generator with x < y in each pair, over all matchings."""
    for pairs, fixed in pod_args(g, b, t):
        yield null_design_generator(g, b, t, pairs, fixed)


def test_design_params_validation():
    DesignParams(6, 3, 2, 3)
    for g, b, t, p in [(6, 3, 3, 3), (6, 7, 1, 3), (6, 0, 0, 3), (6, 3, 1, 4),
                       (6, 3, True, 3), (6.0, 3, 1, 3)]:
        with pytest.raises(ValueError):
            DesignParams(g, b, t, p)


def test_spectrum_of_ones():
    s = spectrum(f_lambda(3, 3, 3))
    assert s.levels == (2, 1, 1)
    assert s.universal and s.some_nonzero
    assert s.to_json() == {
        "levels": [
            {"v": 0, "constant": True, "mu": 2},
            {"v": 1, "constant": True, "mu": 1},
            {"v": 2, "constant": True, "mu": 1},
        ]
    }


def test_spectrum_non_constant_level():
    u = Element.from_subsets(4, 2, 3, {(1, 2): 1})
    s = spectrum(u)
    assert s.levels[1] is None
    assert not s.universal
    assert s.to_json()["levels"][1] == {"v": 1, "constant": False}
    assert is_t_design(u, 0) and not is_t_design(u, 1)
    assert not is_universal(u)
    with pytest.raises(ValueError):
        is_t_design(u, 2)
    # True was read as level 1, where u is not constant
    for t in (True, 1.0):
        with pytest.raises(ValueError, match="must be ints"):
            is_t_design(u, t)
    assert is_t_design(u, np.int64(0))


def test_constant_value_refuses_floats_and_bools():
    # each returned 1
    for vec in ([1.5, 1.5], np.array([True, True]), [True, True], np.array([1.0, 1.0]),
                np.array([1, 1.5], dtype=object)):
        with pytest.raises(ValueError, match="must be ints"):
            constant_value(vec)
    assert constant_value(np.array([4, 4], dtype=np.int64)) == 4
    assert constant_value(np.array([2**70, 2**70], dtype=object)) == 2**70
    assert constant_value([2**70, 2**70 + 1]) is None
    assert constant_value(np.array([3, 3], dtype=np.uint8)) == 3
    assert constant_value([]) == 0


def test_spectrum_linearity():
    rng = np.random.default_rng(17)
    for _ in range(10):
        p = int(rng.choice([3, 5]))
        u = Element(6, 3, p, rng.integers(0, p, size=20))
        w = Element(6, 3, p, rng.integers(0, p, size=20))
        alpha = int(rng.integers(0, p))
        su, sw, ss = spectrum(u), spectrum(w), spectrum(alpha * u + w)
        for x, y, z in zip(su.levels, sw.levels, ss.levels):
            if x is not None and y is not None:
                assert z == (alpha * x + y) % p


def test_spectrum_matches_inclusion_matrices():
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        for b in range(1, n + 1):
            for p in (3, 5):
                cases = [(Element(n, b, p, rng.integers(0, p, size=math.comb(n, b))), False)]
                if 2 * b <= n:
                    # f plus strength-(b-1) null designs: every level constant
                    vec = np.ones(math.comb(n, b), dtype=np.int64)
                    for _ in range(3):
                        pts = [int(x) for x in rng.permutation(n)[: 2 * b] + 1]
                        gen = null_design_generator(n, b, b - 1, list(zip(pts[::2], pts[1::2])))
                        vec = vec + int(rng.integers(1, p)) * np.array(gen.coeffs)
                    cases.append((Element(n, b, p, vec), True))
                for u, universal in cases:
                    want = tuple(
                        constant_value(inclusion_matrix(n, v, b, p).apply(u.vec))
                        for v in range(b)
                    )
                    s = spectrum(u)
                    assert s.levels == want
                    if universal:
                        assert s == spectrum(f_lambda(n - b, b, p))


def test_one_walk_per_element(monkeypatch):
    calls = []
    drop = tabloid._drop_once

    def counting(n, k, w):
        calls.append(k)
        return drop(n, k, w)

    monkeypatch.setattr(tabloid, "_drop_once", counting)
    rng = np.random.default_rng(37)
    for n, b, p in [(6, 3, 3), (9, 4, 5), (10, 5, 3)]:
        u = Element(n, b, p, rng.integers(0, p, size=math.comb(n, b)))
        for f in (spectrum, specht_membership):
            calls.clear()
            f(u)
            assert calls == list(range(b, 0, -1))


def test_similar():
    f = f_lambda(3, 3, 3)
    assert similar(f, 2 * f)
    assert similar(Element.zero(6, 3, 3), f)
    assert not similar(f, Element.zero(6, 3, 3))
    # spectrum (1,0,0) is no multiple of (2,1,1): sum of blocks avoiding 1
    masks = [ms for ms, _ in Element.ones(6, 3, 3).support() if 1 not in ms]
    u = Element.from_subsets(6, 3, 3, {ms: 1 for ms in masks})
    assert spectrum(u).levels == (1, 0, 0)
    assert not similar(u, f) and not similar(f, u)
    nonconst = Element.from_subsets(6, 3, 3, {(1, 2, 3): 1})
    with pytest.raises(ValueError, match="universal designs only"):
        similar(nonconst, f)
    # spectra (1, 1) and (2,) of two modules were compared truncated
    with pytest.raises(ValueError, match="different modules"):
        similar(f_lambda(3, 2, 3), f_lambda(4, 1, 3))


def test_is_multiple_of_refuses_spectra_of_another_length():
    with pytest.raises(ValueError):
        Spectrum(3, (1, 2)).is_multiple_of(Spectrum(3, (1,)))


def test_coefficient_transfer():
    # mu_1 of a strength-2 design from mu_2 = 1 on the (3,3) shape
    assert coefficient_transfer(1, DesignParams(6, 3, 2, 3), 1) == 1
    assert coefficient_transfer(1, DesignParams(6, 3, 2, 3), 2) == 1
    # C(3, 2) = 0 mod 3: level 0 is not determined
    with pytest.raises(ValueError):
        coefficient_transfer(1, DesignParams(6, 3, 2, 3), 0)
    with pytest.raises(ValueError):
        coefficient_transfer(1, DesignParams(6, 3, 2, 3), 3)
    # agreement with the all-ones element wherever defined
    f = f_lambda(4, 3, 3)
    s = spectrum(f)
    params = DesignParams(7, 3, 2, 3)
    assert coefficient_transfer(s.levels[2], params, 1) == s.levels[1]
    # a float mu_t was returned as is, and True was read as 1
    for mu_t, j in ((1.5, 0), (True, 1), (1, 1.0), (1, True)):
        with pytest.raises(ValueError, match="must be ints"):
            coefficient_transfer(mu_t, DesignParams(10, 4, 1, 3), j)
    assert coefficient_transfer(np.int64(1), params, np.int64(1)) == s.levels[1]


def test_wilson_examples():
    assert wilson_exists(9, 3, 1, 3)
    assert not wilson_exists(5, 3, 2, 3)
    assert wilson_exists(6, 3, 2, 3)
    with pytest.raises(ValueError):
        wilson_exists(5, 4, 2, 3)  # violates b <= g - t
    with pytest.raises(ValueError):
        wilson_exists(6, 3, 3, 3)
    with pytest.raises(ValueError, match="must be ints"):
        wilson_exists(6.5, 3, 1, 3)  # was True


def test_find_t_design_verifies():
    u = find_t_design_fp(DesignParams(9, 3, 1, 3), 1)
    assert u is not None
    assert (psi(u, 1) == 1).all()
    assert find_t_design_fp(DesignParams(5, 3, 2, 3), 1) is None
    z = find_t_design_fp(DesignParams(5, 3, 2, 3), 0)
    assert z is not None and z.is_zero()
    with pytest.raises(ValueError, match="must be ints"):
        find_t_design_fp(DesignParams(6, 3, 1, 3), 1.5)  # solved for target 1


def test_find_t_design_checks_its_solution(monkeypatch, capsys):
    # a solution whose level 1 is not the target was returned as a design
    def miss(n, b, p, targets):
        return Element.from_subsets(n, b, p, {(1, 2, 3): 1})
    monkeypatch.setattr(designs, "_level_element", miss)
    with pytest.raises(AssertionError, match=r"\(g=9, b=3, t=1\) mod 3 .* target 1$"):
        find_t_design_fp(DesignParams(9, 3, 1, 3), 1)
    assert main(["design", "--g", "9", "--b", "3", "--t", "1", "--p", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("self-check failed: t-design on (g=9, b=3, t=1) mod 3")


def test_find_t_design_refuses_what_it_cannot_check(monkeypatch):
    # the check would walk psi from level 33 of 39 points down through
    # C(39, 19) entries, so the shape is refused before it is solved
    monkeypatch.setattr(designs, "_level_element", lambda *args: pytest.fail("solved"))
    with pytest.raises(ValueError, match=r"^C\(39, 7\) = 15380937 subsets exceed the limit"):
        find_t_design_fp(DesignParams(39, 33, 6, 3), 1)
    assert find_t_design_fp(DesignParams(39, 33, 6, 3), 3).vec.sum() == 0


def test_level_design_exists_examples():
    # digit 0 of a = 5 is 2 = p - 1 and b = 3 = p^1: boundary case, no design
    assert not level_design_exists(5, 3, 3, 0)
    assert level_design_exists(3, 3, 3, 0)
    assert level_design_exists(3, 3, 3, 1)
    assert not level_design_exists(8, 3, 3, 0)
    with pytest.raises(ValueError):
        level_design_exists(3, 3, 3, 2)
    with pytest.raises(ValueError, match="must be ints"):
        level_design_exists(5.5, 3, 3, 0)  # was True


def test_level_design_exists_matches_search_small():
    for p in (3, 5):
        for n in range(2, 10):
            for b in range(1, n // 2 + 1):
                a = n - b
                for l in range(p_adic_length(b, p) + 1):
                    t = b - p**l
                    if t < 0:
                        continue
                    found = find_t_design_fp(DesignParams(n, b, t, p), 1)
                    assert level_design_exists(a, b, p, l) == (found is not None)


def test_integral_design_exists_examples():
    assert integral_design_exists(4, 2, 1, (6, 3))
    assert not integral_design_exists(4, 2, 1, (6, 2))
    assert integral_design_exists(11, 3, 2, (55, 15, 3))
    assert integral_design_exists(5, 3, 0, (7,))
    with pytest.raises(ValueError):
        integral_design_exists(4, 2, 1, (6,))
    with pytest.raises(ValueError, match="must be ints"):
        integral_design_exists(4, 2, 1, [2.9, 1])  # answered for (2, 1)


def test_construct_integral_design_examples():
    d = construct_integral_design(4, 2, 1, (6, 3))
    assert d is not None
    assert d.hat_values(1) == [3] * 4
    assert d.hat_values(0) == [6]
    # the single-block ground: unique design puts mu on the one block
    d = construct_integral_design(3, 3, 2, (5, 5, 5))
    assert d is not None and d.coeffs == (5,)
    assert construct_integral_design(4, 2, 1, (6, 2)) is None
    d = construct_integral_design(11, 3, 2, (55, 15, 3))
    assert d is not None
    assert set(d.hat_values(2)) == {3}
    with pytest.raises(ValueError, match="must be ints"):
        construct_integral_design(4, 2, 1, [6.5, 3])  # built a design for (6, 3)


def test_integral_design_self_check_names_the_system(monkeypatch):
    monkeypatch.setattr(designs, "solve_integer", lambda a, rhs: [0] * a.shape[1])
    with pytest.raises(AssertionError,
                       match=r"\(g=5, b=2, t=1\) failed its level check for mu=\[10, 4\]"):
        construct_integral_design(5, 2, 1, (10, 4))


def test_integer_design_reduce_mod():
    d = IntegerDesign(4, 2, (7, -1, 0, 3, 12, 2))
    u = d.reduce_mod(3)
    assert u.vec.tolist() == [1, 2, 0, 0, 0, 2]
    with pytest.raises(ValueError):
        IntegerDesign(4, 2, (1, 2, 3))


def test_design_sizes_must_be_ints():
    # the first returned True, the construct calls raised TypeError or read
    # True as 1, and IntegerDesign took non-int sizes and coefficients
    cases = [
        (integral_design_exists, (4.0, 2, 1, [6, 3])),
        (integral_design_exists, (4, True, 0, [2])),
        (integral_design_exists, (4, 2, True, [6, 3])),
        (construct_integral_design, (4.0, 2, 1, [6, 3])),
        (construct_integral_design, (4, 2, True, [6, 3])),
        (IntegerDesign, (4, True, (1, 2, 3, 4))),
        (IntegerDesign, (4, 2, (1.5,) * 6)),
        (IntegerDesign, (4.0, 2, (0,) * 6)),
    ]
    for call, args in cases:
        with pytest.raises(ValueError, match="must be ints"):
            call(*args)


def test_null_generator_singleton():
    d = null_design_generator(3, 1, 0, [(1, 2)])
    assert d.coeffs == (1, -1, 0)
    assert d.hat_values(0) == [0]


def test_null_generator_four_terms():
    d = null_design_generator(4, 2, 1, [(1, 2), (3, 4)])
    u = {members: c for members, c in zip(
        [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)], d.coeffs) if c}
    assert u == {(1, 3): 1, (1, 4): -1, (2, 3): -1, (2, 4): 1}
    assert d.hat_values(1) == [0] * 4
    assert d.hat_values(0) == [0]


def test_null_generator_strength_and_validation():
    # strength t kills levels 0..t; level t+1 need not vanish
    d = null_design_generator(6, 3, 1, [(1, 2), (3, 4)], (5,))
    for s in (0, 1):
        assert all(x == 0 for x in d.hat_values(s))
    assert any(x != 0 for x in d.hat_values(2))
    u = d.reduce_mod(3)
    s = spectrum(u)
    assert s.levels[0] == 0 and s.levels[1] == 0
    with pytest.raises(ValueError):
        null_design_generator(6, 3, 1, [(1, 2), (2, 3)], (5,))  # overlap
    with pytest.raises(ValueError):
        null_design_generator(6, 3, 1, [(1, 2)], (5,))  # wrong pair count
    with pytest.raises(ValueError):
        null_design_generator(6, 3, 1, [(1, 2), (3, 4)], (5, 6))  # fixed size
    with pytest.raises(ValueError):
        null_design_generator(6, 3, 1, [(1, 2), (3, 7)], (5,))  # out of range
    for pairs, fixed in (([(1.9, 2), (3, 4)], (5,)), ([(True, 2), (3, 4)], (5,)),
                         ([(1, 2), (3, 4)], (5.0,))):
        with pytest.raises(ValueError, match="must be ints"):  # 1.9 is not point 1
            null_design_generator(6, 3, 1, pairs, fixed)
    # t = -1 took no pairs and returned the one block of its fixed points
    with pytest.raises(ValueError, match="t >= 0"):
        null_design_generator(5, 2, -1, [], fixed=[1, 2])
    for t in (1.0, True):
        with pytest.raises(ValueError, match="must be ints"):
            null_design_generator(6, 3, t, [(1, 2), (3, 4)], (5,))
    with pytest.raises(ValueError, match="must be ints"):  # 5.0 raised TypeError
        null_design_generator(5.0, 2, 1, [(1, 2), (3, 4)])


def test_null_generator_matches_block_loop():
    # reference: one block at a time, ranked in colex (largest members first)
    for g, b, t in [(5, 2, 1), (6, 3, 1), (7, 3, 2), (7, 4, 1)]:
        rank = {c: i for i, c in enumerate(
            sorted(itertools.combinations(range(1, g + 1), b), key=lambda c: c[::-1]))}
        for pairs, fixed in pod_args(g, b, t):
            want = [0] * len(rank)
            for picks in itertools.product((0, 1), repeat=t + 1):
                block = tuple(sorted([xy[i] for xy, i in zip(pairs, picks)] + list(fixed)))
                want[rank[block]] = (-1) ** sum(picks)
            d = null_design_generator(g, b, t, pairs, fixed)
            assert d.coeffs == tuple(want)
            assert all(type(c) is int for c in d.coeffs)
            # built unchecked, it equals the design that passes every check
            assert d == IntegerDesign(g, b, tuple(want))


def test_pods_span_integral_null_space():
    # span of the signed generators has the full nullity of the level map,
    # certified over one big prime; containment is checked exactly over Z
    for g in range(2, 8):
        for b in range(1, g + 1):
            for t in range(0, b):
                if b > g - t:
                    continue
                gens = [d.coeffs for d in all_pods(g, b, t)]
                amat = inclusion_matrix(g, t, b)
                for c in gens:
                    assert all(x == 0 for x in amat.apply(list(c)))
                nullity = math.comb(g, b) - rank_fp(
                    inclusion_matrix(g, t, b, p=BIG_PRIME)
                )
                span_rank = (
                    rank_fp(MatFp(np.array(gens, dtype=np.int64), BIG_PRIME))
                    if gens
                    else 0
                )
                assert span_rank == nullity


def test_level_map_sends_null_space_onto_null_space():
    # pushing strength-t null designs down to blocks of size t+1 fills the
    # whole strength-t null space there
    for g in range(2, 8):
        for b in range(1, g + 1):
            for t in range(0, b):
                if b + t + 1 > g or t + 1 > b:
                    continue
                gens = [d.coeffs for d in all_pods(g, b, t)]
                if not gens:
                    continue
                down = inclusion_matrix(g, t + 1, b)
                img = np.array(
                    [down.apply(list(c)) for c in gens], dtype=np.int64
                )
                # containment: the image is null at level t
                amat = inclusion_matrix(g, t, t + 1)
                for row in img:
                    assert all(x == 0 for x in amat.apply(row.tolist()))
                want = math.comb(g, t + 1) - rank_fp(
                    inclusion_matrix(g, t, t + 1, p=BIG_PRIME)
                )
                assert rank_fp(MatFp(img, BIG_PRIME)) == want


def test_poset_refuses_too_many_level_pairs():
    # C(2897, 2) = 4194856 pairs is the first count above the 2^22 limit
    with pytest.raises(ValueError, match="C\\(2897, 2\\) = 4194856 level pairs"):
        poset_X(2897, 2897, 3)
    with pytest.raises(ValueError, match="level pairs"):
        poset_X(1000000, 1000000, 3)


def test_poset_examples():
    px = poset_X(3, 3, 3)
    assert px.members == (0, 1, 2)
    assert px.components == ((0,), (1, 2))
    assert px.to_json() == {"members": [0, 1, 2], "components": [[0], [1, 2]]}
    assert poset_X(8, 3, 3).components == ((0,),)
    assert poset_X(3, 2, 3).components == ((0, 1),)
    assert poset_X(11, 10, 3).members == (1, 4, 7)
    assert poset_X(11, 10, 3).components == ((1,), (4, 7))
    with pytest.raises(ValueError):
        poset_X(2, 3, 3)


def test_poset_components_match_lucas():
    # comparability by Kummer carries must join what nonzero Lucas residues join
    for p in (3, 5, 7, 1000000007):
        for b in range(1, 40):
            for a in (b, b + 1, 2 * b + 3, p * b - 1):
                px = poset_X(a, b, p)
                comp = {j: {j} for j in px.members}
                for i, j in itertools.combinations(px.members, 2):
                    if binom_mod_p(b - i, j - i, p) and comp[i] is not comp[j]:
                        merged = comp[i] | comp[j]
                        for x in merged:
                            comp[x] = merged
                want = sorted({tuple(sorted(c)) for c in comp.values()})
                assert px.components == tuple(want), (a, b, p)


def test_universal_iff_powers_of_p_levels():
    # constancy at the levels b - p^l alone forces constancy everywhere
    for p in (3, 5):
        for n in range(2, 10):
            for b in range(1, n // 2 + 1):
                lv = [b - p**l for l in range(p_adic_length(b, p) + 1) if b - p**l >= 0]
                full = constant_space_dim(n, b, p, range(b))
                sparse = constant_space_dim(n, b, p, lv)
                assert full == sparse


def test_nonzero_spectrum_levels_lie_in_poset():
    rng = np.random.default_rng(29)
    for a, b, p in [(3, 3, 3), (4, 3, 3), (5, 3, 3), (5, 4, 3), (4, 4, 5)]:
        n = a + b
        aug = constant_level_system(n, b, range(b))
        basis = kernel_basis(MatFp(aug, p))
        members = set(poset_X(a, b, p).members)
        ncols = math.comb(n, b)
        for _ in range(10):
            coeffs = rng.integers(0, p, size=len(basis))
            vec = np.zeros(ncols, dtype=np.int64)
            for c, k in zip(coeffs, basis):
                vec = (vec + int(c) * k[:ncols]) % p
            s = spectrum(Element(n, b, p, vec))
            assert s.universal
            hot = {v for v, mu in enumerate(s.levels) if mu}
            assert hot <= members


def test_numpy_moduli_and_parts_are_read_as_ints():
    # a numpy modulus was refused with "modulus must be an int"
    assert DesignParams(6, 3, 1, np.int64(3)) == DesignParams(6, 3, 1, 3)
    px = poset_X(np.int64(11), np.int64(10), np.int64(3))
    assert all(type(x) is int for x in (px.a, px.b, px.p)) and px == poset_X(11, 10, 3)


def test_zero_target_needs_no_solve(monkeypatch):
    # each eliminated its whole level system to return the zero element;
    # (16, 8, 7, 3) was refused by the cell guard of its level system
    def refuse(m, p):
        raise AssertionError("eliminated a homogeneous system")
    monkeypatch.setattr(tabloid, "_eliminate", refuse)
    for g, b, t, p, target in ((13, 6, 5, 3, 0), (13, 6, 5, 3, 3), (9, 4, 2, 5, -10),
                               (16, 8, 7, 3, 0)):
        assert find_t_design_fp(DesignParams(g, b, t, p), target) == Element.zero(g, b, p)
    with pytest.raises(ValueError, match="too large for int64 residues"):
        find_t_design_fp(DesignParams(9, 4, 2, 2147483659), 0)
