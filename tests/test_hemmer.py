import dataclasses
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from spechtdesigns import hemmer
from spechtdesigns.designs import (
    DesignParams,
    Spectrum,
    find_t_design_fp,
    spectrum,
)
from spechtdesigns.h1 import classify
from spechtdesigns.hemmer import (
    SelfCheckError,
    adjoin,
    construct_auto,
    construct_base_case,
    construct_james,
    construct_pointed,
    decompose_pointed,
    find_hemmer_by_solver,
    verify_hemmer,
)
from linalg_reference import kernel_basis
from orbit_reference import generators, permute
from spechtdesigns.linalg import MatFp
from spechtdesigns.numtheory import p_adic_length, p_adic_val
from spechtdesigns.tabloid import (
    Element,
    constant_level_system,
    element_from_text,
    element_to_json,
    element_to_text,
    f_lambda,
    specht_membership,
    subsets_colex,
)


def random_kernel_element(a: int, b: int, p: int, rng) -> Element:
    """Random element killed by every level map."""
    n = a + b
    ncols = math.comb(n, b)
    basis = kernel_basis(MatFp(constant_level_system(n, b, range(b))[:, :ncols], p))
    vec = np.zeros(ncols, dtype=np.int64)
    for k in basis:
        vec = (vec + int(rng.integers(0, p)) * k) % p
    return Element(n, b, p, vec)


def test_base_case_worked_example():
    u = construct_base_case(3, 3, 3)
    support = list(u.support())
    assert len(support) == 10
    assert all(c == 1 and 1 not in members for members, c in support)
    assert {members for members, _ in support} == {
        (2, 3, 4), (2, 3, 5), (2, 4, 5), (3, 4, 5), (2, 3, 6),
        (2, 4, 6), (3, 4, 6), (2, 5, 6), (3, 5, 6), (4, 5, 6),
    }
    assert spectrum(u).levels == (1, 0, 0)
    assert verify_hemmer(u).is_hemmer


def test_base_case_avoids_prefix():
    u = construct_base_case(4, 3, 3)
    # m = a - b + 1 = 2 ground points never appear
    assert all(set(m).isdisjoint({1, 2}) for m, _ in u.support())
    assert spectrum(u).levels == (1, 0, 0)


def test_base_case_rejections():
    with pytest.raises(ValueError):
        construct_base_case(5, 3, 3)  # p^nu_p(6) = 3 is not < b
    with pytest.raises(ValueError):
        construct_base_case(4, 2, 3)  # b not a power of p
    with pytest.raises(ValueError):
        construct_base_case(2, 3, 3)  # not a partition
    with pytest.raises(ValueError):
        construct_base_case(8, 9, 3)


def test_all_small_base_cases():
    for p in (3, 5):
        for beta in (1, 2):
            b = p**beta
            for a in range(b, 13 - b):
                try:
                    u = construct_base_case(a, b, p)
                except ValueError:
                    continue
                s = spectrum(u)
                assert s.levels[0] != 0
                assert all(mu == 0 for mu in s.levels[1:])


def test_verify_hemmer_on_reference_elements():
    f = f_lambda(4, 3, 3)
    rep = verify_hemmer(f)
    assert rep.condition1 and rep.some_level_nonzero and not rep.condition2
    assert not rep.is_hemmer
    z = Element.zero(7, 3, 3)
    rep = verify_hemmer(z)
    assert rep.condition1 and not rep.some_level_nonzero
    assert not rep.is_hemmer
    with pytest.raises(ValueError):
        verify_hemmer(Element.ones(4, 3, 3))  # b > a
    doc = verify_hemmer(f).to_json()
    assert list(doc) == ["a", "b", "p", "spectrum", "condition1", "some_level_nonzero",
                         "condition2", "is_hemmer"]  # the key order json.dumps keeps
    assert doc["is_hemmer"] is False and doc["condition1"] is True
    assert doc["spectrum"]["levels"][0] == {"v": 0, "constant": True, "mu": 2}


def test_adjoin_bottom():
    u = Element.from_subsets(3, 2, 3, {(1, 2): 1})
    w = adjoin(u, [2])
    assert w.n == 4 and w.b == 3
    assert w.coeff([1, 2, 3]) == 1
    assert sum(1 for _ in w.support()) == 1


def test_adjoin_validation():
    u = Element.from_subsets(3, 2, 3, {(1, 2): 1})
    with pytest.raises(ValueError):
        adjoin(u, [1, 1])
    with pytest.raises(ValueError):
        adjoin(u, [9])
    for pts in ([2.7], [True], [np.bool_(True)], [1, 2.0]):  # were read as 2, 1, 1 and 1, 2
        with pytest.raises(ValueError, match="must be ints"):
            adjoin(u, pts)
    assert adjoin(u, [np.int64(2)]) == adjoin(u, [2])


def test_adjoin_empty_is_identity():
    u = Element.from_subsets(4, 2, 3, {(1, 3): 2})
    assert adjoin(u, []) == u


def reference_adjoin(u: Element, new_points) -> Element:
    """adjoin by spreading each block's bits over the kept positions and
    finding the enlarged block by binary search."""
    pts = sorted(new_points)
    n2 = u.n + len(pts)
    ymask = sum(1 << (q - 1) for q in pts)
    keep = [i for i in range(n2) if not ymask >> i & 1]
    old = subsets_colex(u.n, u.b)
    out = np.zeros(len(old), dtype=np.int64)
    for i, pos in enumerate(keep):
        out |= (old >> i & 1) << pos
    out |= ymask
    new_masks = subsets_colex(n2, u.b + len(pts))
    vec = np.zeros(len(new_masks), dtype=np.int64)
    vec[np.searchsorted(new_masks, out)] = u.vec
    return Element(n2, u.b + len(pts), u.p, vec)


def test_adjoin_matches_reference():
    rng = np.random.default_rng(59)
    for n in range(1, 10):
        for b in range(1, n + 1):
            u = Element(n, b, 5, rng.integers(0, 5, math.comb(n, b)))
            for k in range(4):
                for _ in range(3):
                    pts = rng.choice(np.arange(1, n + k + 1), size=k, replace=False).tolist()
                    assert adjoin(u, pts) == reference_adjoin(u, pts)


def test_construct_james_examples():
    u = construct_james(8, 3, 3)
    assert spectrum(u).levels == (1, 0, 0)
    u = construct_james(2, 1, 3)
    assert spectrum(u).levels == (1,)
    u = construct_james(5, 2, 3)
    assert spectrum(u).levels == (1, 2)
    with pytest.raises(ValueError):
        construct_james(3, 3, 3)  # pointed, not james
    with pytest.raises(ValueError):
        construct_james(5, 3, 3)  # neither
    for p in (3, 5):
        for n in range(2, 14):
            for b in range(1, n // 2 + 1):
                a = n - b
                if classify(a, b, p).kind != "james":
                    continue
                exact = [math.comb(n - s, b - s) for s in range(b)]
                d = min(p_adic_val(x, p) for x in exact)
                u = construct_james(a, b, p)
                assert spectrum(u).levels == tuple(x // p**d % p for x in exact)
                assert verify_hemmer(u).is_hemmer


def test_construct_james_needs_no_integer_solver(monkeypatch):
    def refuse(*args):
        raise AssertionError("integer solver reached")
    monkeypatch.setattr("spechtdesigns.linalg.solve_integer", refuse)
    monkeypatch.setattr("spechtdesigns.designs.solve_integer", refuse)
    u = construct_james(8, 3, 3)
    assert spectrum(u).levels == (1, 0, 0)
    assert verify_hemmer(u).is_hemmer


def test_level_walk_and_adjoin_need_no_binary_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("binary search reached")
    monkeypatch.setattr(np, "searchsorted", refuse)
    rng = np.random.default_rng(61)
    u = Element(10, 5, 3, rng.integers(0, 3, math.comb(10, 5)))
    assert len(spectrum(u).levels) == 5
    assert adjoin(u, [2, 7]).b == 7
    assert verify_hemmer(construct_pointed(9, 9, 3)).is_hemmer
    # every other subset index: the level system, both decoder routes, and
    # the members <-> rank pair behind Element
    system = constant_level_system(10, 5, range(5))
    assert (system[:, :-5].sum(axis=0) == 2**5 - 1).all()  # C(5, 0) + ... + C(5, 4)
    assert element_from_text(element_to_text(u)) == u
    assert element_from_text(json.dumps(element_to_json(u), indent=4)) == u
    w = Element.from_subsets(10, 5, 3, {(9, 1, 7, 4, 5): 2, (2, 3, 6, 8, 10): 1})
    assert w.coeff([1, 4, 5, 7, 9]) == 2 and w.coeff([2, 3, 6, 8, 10]) == 1
    assert list(w.support()) == [((1, 4, 5, 7, 9), 2), ((2, 3, 6, 8, 10), 1)]


def test_element_to_text_peak_is_a_small_multiple_of_its_text():
    # the tracemalloc peak of one call over the length of the text it
    # returns, on the 24,310-block (9,9,3) pointed witness. The encoder
    # that filled one template by % peaked at 5.62 times the text plain and
    # 3.14 times with indent 2; the bound, 3, is the smaller of those
    # rounded down. The byte tables peak at 2.67 and 2.34: the text as
    # bytes and as str, plus the index arrays and one block of records
    u = construct_pointed(9, 9, 3)
    for indent in (None, 2):
        element_to_text(u, indent)  # the subset listing is built before tracing
        tracemalloc.start()
        try:
            text = element_to_text(u, indent)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * len(text), (indent, peak, len(text))


@pytest.mark.parametrize("a,b,p", [
    (8, 3, 3), (8, 4, 3), (9, 3, 5), (9, 4, 5), (14, 3, 5), (4, 4, 5),
    (11, 2, 3), (14, 2, 5), (17, 2, 3), (8, 5, 3),
])
def test_james_witness_matches_full_level_solve(a, b, p):
    # construct_james solves on G-orbits of the kept levels only: the
    # witness is fixed by every generator of G, and with its targets it is
    # a kernel vector of the level system on every level
    n = a + b
    u = construct_james(a, b, p)
    masks = subsets_colex(n, b)
    for sigma in generators(n, p):
        assert np.array_equal(u.vec[np.searchsorted(masks, permute(masks, sigma))], u.vec), sigma
    exact = [math.comb(n - s, b - s) for s in range(b)]
    d = min(p_adic_val(x, p) for x in exact)
    targets = [x // p**d % p for x in exact]
    system = constant_level_system(n, b, range(b))
    assert not (system @ np.concatenate([u.vec, targets]) % p).any()


def test_construct_pointed_dispatches_to_base():
    assert construct_pointed(3, 3, 3) == construct_base_case(3, 3, 3)
    with pytest.raises(ValueError):
        construct_pointed(8, 3, 3)  # james, not pointed
    with pytest.raises(ValueError):
        construct_pointed(5, 4, 3)  # neither


def test_construct_auto_dispatch():
    assert construct_auto(8, 3, 3) == construct_james(8, 3, 3)
    assert construct_auto(4, 3, 3) == construct_pointed(4, 3, 3)
    with pytest.raises(ValueError):
        construct_auto(5, 3, 3)


def test_construct_pointed_with_offset_level(monkeypatch):
    """Smallest shape whose isolated level is not 0: (11, 10) mod 3.

    The witness is a plain sum, so no GF(p) elimination is reached.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("GF(p) elimination reached")
    monkeypatch.setattr("spechtdesigns.linalg._eliminate", refuse)
    u = construct_pointed(11, 10, 3)
    s = spectrum(u)
    assert s.levels == (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)
    assert verify_hemmer(u).is_hemmer


def carrier_weighted_sum(u0: Element, carrier: Element, bhat: int) -> np.ndarray:
    """The carrier route of the pointed construction, kept as the reference:
    every bhat-subset S of each carrier block B, adjoined to u0 and
    weighted by the block's coefficient c_B."""
    acc = 0
    for members, c in carrier.support():
        for sub in combinations(members, bhat):
            acc = acc + c * adjoin(u0, sub).vec
    return acc % u0.p


def test_carrier_weighted_sum_equals_plain_sum():
    """A carrier whose level-bhat sums are all 1 mod p weights every
    adjoined copy of u0 by 1, whatever its block size."""
    p = 3
    rng = np.random.default_rng(41)
    ran = 0
    for n0, b0 in [(5, 2), (7, 3)]:
        u0 = Element(n0, b0, p, rng.integers(0, p, math.comb(n0, b0)))
        for bhat in (1, 2):
            n = n0 + bhat
            plain = sum(adjoin(u0, sub).vec for sub in combinations(range(1, n + 1), bhat))
            for k in range(bhat + 1, n):
                carrier = find_t_design_fp(DesignParams(n, k, bhat, p), 1)
                if carrier is None:
                    continue
                assert np.array_equal(carrier_weighted_sum(u0, carrier, bhat), plain % p)
                ran += 1
    assert ran > 0


def test_hemmer_stable_under_kernel_and_ones_shifts():
    rng = np.random.default_rng(31)
    for a, b, p in [(4, 3, 3), (8, 3, 3), (5, 5, 5)]:
        kind = classify(a, b, p).kind
        if kind == "neither":
            continue
        u = construct_auto(a, b, p)
        s = random_kernel_element(a, b, p, rng)
        assert specht_membership(s)
        shifted = u + s
        assert verify_hemmer(shifted).is_hemmer
        assert spectrum(shifted).levels == spectrum(u).levels
        bumped = u + 2 * f_lambda(a, b, p)
        assert verify_hemmer(bumped).is_hemmer


def test_solver_route_agrees_with_classification():
    for p in (3, 5):
        for n in range(2, 10):
            for b in range(1, n // 2 + 1):
                a = n - b
                found = find_hemmer_by_solver(a, b, p)
                if classify(a, b, p).kind == "neither":
                    assert found is None
                else:
                    assert found is not None
                    assert verify_hemmer(found).is_hemmer


def reference_solver(a: int, b: int, p: int) -> np.ndarray | None:
    """The kernel scan: the first canonical basis vector of the system on
    every level whose spectrum escapes the all-ones line, as element
    coordinates."""
    n = a + b
    ncols = math.comb(n, b)
    sf = Spectrum(p, tuple(math.comb(n - v, b - v) % p for v in range(b)))
    for k in kernel_basis(MatFp(constant_level_system(n, b, range(b)), p)):
        if not Spectrum(p, tuple(int(x) for x in k[ncols:])).is_multiple_of(sf):
            return k[:ncols]
    return None


def test_solver_matches_kernel_scan():
    # the solver runs on G-orbits of the kept levels: it finds a witness
    # exactly where the kernel scan of the full system on every level does,
    # with the scan's spectrum, and its witness is fixed by every generator
    # of G
    found = 0
    for p in (3, 5, 7):
        for n in range(2, 14):
            for b in range(1, n // 2 + 1):
                want = reference_solver(n - b, b, p)
                got = find_hemmer_by_solver(n - b, b, p)
                if want is None:
                    assert got is None, (n - b, b, p)
                    continue
                assert got is not None, (n - b, b, p)
                assert spectrum(got) == spectrum(Element(n, b, p, want)), (n - b, b, p)
                masks = subsets_colex(n, b)
                for sigma in generators(n, p):
                    moved = got.vec[np.searchsorted(masks, permute(masks, sigma))]
                    assert np.array_equal(moved, got.vec), (n - b, b, p, sigma)
                found += 1
    assert found > 30


def test_solver_budget():
    # the b-listing's limit bounds the solver, as it bounds construct_james
    with pytest.raises(ValueError, match=r"^C\(54, 27\) = \d+ subsets exceed the limit of 4194304$"):
        find_hemmer_by_solver(27, 27, 3)


def test_decompose_pointed_base_shapes():
    rng = np.random.default_rng(37)
    for a, b, p in [(3, 3, 3), (4, 3, 3), (5, 5, 5), (3, 3, 5)]:
        if classify(a, b, p).kind != "pointed":
            continue
        bhat = classify(a, b, p).bhat
        u = construct_pointed(a, b, p)
        for alpha in range(p):
            w = u + alpha * f_lambda(a, b, p) + random_kernel_element(a, b, p, rng)
            got_u, got_alpha = decompose_pointed(w)
            assert got_alpha == alpha
            s = spectrum(got_u)
            assert all(mu == 0 for v, mu in enumerate(s.levels) if v != bhat)


def test_decompose_rejections():
    with pytest.raises(ValueError):
        decompose_pointed(f_lambda(8, 3, 3))  # james shape
    with pytest.raises(ValueError):
        decompose_pointed(Element.from_subsets(6, 3, 3, {(1, 2, 3): 1}))


def test_decompose_self_checks_name_the_shape(monkeypatch):
    f = f_lambda(4, 3, 3)
    with monkeypatch.context() as m:
        m.setattr(hemmer, "_f_spectrum", lambda a, b, p: Spectrum(p, (0,) * b))
        with pytest.raises(SelfCheckError,
                           match=r"all-ones spectrum \(0, 0, 0\) of \(a=4, b=3, p=3\) vanishes"):
            decompose_pointed(f)
    # with f taken as zero, f itself is the residual, nonzero off the isolated level
    monkeypatch.setattr(hemmer, "f_lambda", lambda a, b, p: Element.zero(a + b, b, p))
    with pytest.raises(SelfCheckError,
                       match=r"residual spectrum \(.*\) of \(a=4, b=3, p=3\) not supported"):
        decompose_pointed(f)


def test_solver_self_check_names_the_shape_and_spectrum(monkeypatch):
    real = hemmer.verify_hemmer
    monkeypatch.setattr(hemmer, "verify_hemmer",
                        lambda u: dataclasses.replace(real(u), condition2=False))
    with pytest.raises(SelfCheckError,
                       match=r"solver element for \(a=8, b=3, p=3\) failed verification: "
                             r"spectrum \(\d+, \d+, \d+\)"):
        find_hemmer_by_solver(8, 3, 3)


def test_self_check_error_is_runtime_error():
    assert issubclass(SelfCheckError, RuntimeError)


def test_numpy_shape_gives_the_same_json():
    # the witness kept numpy n and b, so json.dumps of either document raised TypeError
    u, want = construct_auto(np.int64(5), np.int64(1), 3), construct_auto(5, 1, 3)
    assert json.dumps(element_to_json(u)) == json.dumps(element_to_json(want))
    assert json.dumps(verify_hemmer(u).to_json()) == json.dumps(verify_hemmer(want).to_json())
