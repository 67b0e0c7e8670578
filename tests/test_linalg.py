import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_reference import blocked_rref, canonical_solution, kernel_basis
from spechtdesigns import designs, hemmer, linalg, numtheory, tabloid
from spechtdesigns.designs import DesignParams, find_t_design_fp, spectrum
from spechtdesigns.hemmer import construct_james, find_hemmer_by_solver
from spechtdesigns.linalg import MatFp, MatZ, rank_fp, solve_integer
from spechtdesigns.tabloid import constant_level_system


def brute_solutions(a: np.ndarray, rhs: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All solutions of a tiny system by exhaustive enumeration."""
    n = a.shape[1]
    out = set()
    for x in itertools.product(range(p), repeat=n):
        if all((a @ np.array(x)) % p == rhs % p):
            out.add(x)
    return out


# 2147483629, the second largest prime below 2^31, takes the int64 product
# route; 65521 and 4194301 take float64, and 3, 5 and 7 take float32 at
# every size these tests use.
WORD_PRIMES = (3, 5, 7, 65521, 4194301, 2147483629)
# The largest prime whose panel rows go unreduced between updates at
# _PANEL = 128, and the next prime, whose rows are reduced after each.
LAZY_EDGE = (416107, 416147)


def reference_eliminate(m: np.ndarray, p: int, full: bool) -> tuple[np.ndarray, list[int]]:
    """Per-pivot elimination, the oracle for the blocked core.

    One full-width outer-product update per pivot. Row reduce in place.
    full=True gives RREF, else forward echelon only.
    """
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        if inv != 1:
            m[r] = m[r] * inv % p
        if full:
            col = m[:, c].copy()
            col[r] = 0
            tgt = np.nonzero(col)[0]
        else:
            tgt = r + 1 + np.nonzero(m[r + 1 :, c])[0]
        if tgt.size:
            m[tgt] = (m[tgt] - np.outer(m[tgt, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def exact_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p in Python integers."""
    return (a.astype(object) @ b.astype(object) % p).astype(np.int64)


def test_plain_int64_product_wraps_near_2_31():
    # the trap the modular product avoids: three terms of (p-1)^2 pass 2^63
    p = 2147483629
    a = np.full((1, 3), p - 1, dtype=np.int64)
    b = np.full((3, 1), p - 1, dtype=np.int64)
    assert (a @ b % p).item() != 3
    assert linalg._matmul_mod(a, b, p).item() == 3


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_matmul_mod_exact(p):
    rng = np.random.default_rng(p % 1000)
    # 4194301 fits 512 float64 terms per chunk, so 700 crosses a chunk edge
    for rows, inner, cols in [(3, 1, 4), (5, 700, 3), (2, 40, 2000), (0, 3, 2), (2, 0, 3)]:
        a = rng.integers(0, p, size=(rows, inner))
        a[:, : inner // 2] = p - 1  # the largest terms
        b = rng.integers(0, p, size=(inner, cols))
        assert np.array_equal(linalg._matmul_mod(a, b, p), exact_product(a, b, p))
    # accumulation into chosen rows of out, with b aliasing out
    out = rng.integers(0, p, size=(6, 5))
    a = rng.integers(0, p, size=(2, 6))
    want = out.copy()
    want[[1, 4]] = (want[[1, 4]] + exact_product(a, out, p)) % p
    linalg._matmul_mod(a, out, p, out=out, rows=np.array([1, 4]))
    assert np.array_equal(out, want)


# (p, inner dimension, product type, accumulator type): float32 with int16
# and int32 accumulators, its edge at p = 257 (255 (p-1)^2 + p < 2^24 and
# 256 (p-1)^2 + p > 2^24), float64 in one chunk and in several, and the
# int64 products of a prime too large for one float64 term
MATMUL_ROUTES = ((3, 128, np.float32, np.int16), (13, 128, np.float32, np.int16),
                 (17, 128, np.float32, np.int32), (257, 255, np.float32, np.int32),
                 (257, 256, np.float64, np.int32), (65521, 128, np.float64, np.int64),
                 (4194301, 700, np.float64, np.int64), (2147483629, 5, np.int64, np.int64))


@pytest.mark.parametrize("p, inner, product, acc", MATMUL_ROUTES)
def test_matmul_mod_routes(monkeypatch, p, inner, product, acc):
    assert linalg._product_route(p, inner)[1:] == (product, acc)
    reduced, reduce = [], linalg._reduce

    def record(x, p):
        reduced.append(x.dtype)
        return reduce(x, p)

    monkeypatch.setattr(linalg, "_reduce", record)
    rng = np.random.default_rng(inner)
    residue = linalg._narrowest_int(p - 1)
    # every term (p-1)^2, into a narrow out on chosen rows
    a = np.full((3, inner), p - 1, dtype=residue)
    b = np.full((inner, 4), p - 1, dtype=residue)
    b[:, 0] = rng.integers(0, p, size=inner)
    out = rng.integers(0, p, size=(5, 4)).astype(residue)
    want = out.astype(np.int64)
    want[[0, 2, 3]] += exact_product(a.astype(np.int64), b.astype(np.int64), p)
    want %= p
    linalg._matmul_mod(a, b, p, out=out, rows=np.array([0, 2, 3]))
    assert out.dtype == residue and np.array_equal(out, want)
    assert reduced and set(reduced) == {np.dtype(acc)}
    # an empty inner dimension adds nothing
    before = out.copy()
    linalg._matmul_mod(np.zeros((5, 0), dtype=residue), np.zeros((0, 4), dtype=residue), p, out=out)
    assert np.array_equal(out, before)


def test_float_bound_is_asserted(monkeypatch):
    p = 2147483629
    assert linalg._float_chunk(p) == 0  # routed to int64
    assert linalg._float_chunk(3) > 10**15
    monkeypatch.setattr(linalg, "_float_chunk", lambda p: 2)
    with pytest.raises(AssertionError):
        linalg._matmul_mod(np.ones((1, 2), dtype=np.int64), np.ones((2, 1), dtype=np.int64), p)


def test_lazy_bound_is_asserted(monkeypatch):
    lo, hi = LAZY_EDGE
    assert [q for q in range(lo, hi + 1) if numtheory._is_prime(q)] == [lo, hi]
    assert linalg._lazy(lo) and not linalg._lazy(hi)
    # the bound without its factor p would admit 4194301, whose scaled rows wrap
    assert not linalg._lazy(4194301)
    monkeypatch.setattr(linalg, "_lazy", lambda p: True)
    with pytest.raises(AssertionError):
        linalg._eliminate(np.ones((2, 2), dtype=np.int64), 2147483629)


def random_cases(rng, p, panel):
    """Matrices around the panel width: dense, sparse, low rank, zero blocks."""
    for _ in range(12):
        rows, cols = int(rng.integers(1, 61)), int(rng.integers(1, 61))
        yield rng.integers(0, p, size=(rows, cols)) * (rng.random((rows, cols)) < rng.random())
    for cols in (panel - 1, panel, panel + 1, 2 * panel + 1):
        rows = int(rng.integers(1, 61))
        yield rng.integers(0, p, size=(rows, cols))
        k = int(rng.integers(0, min(rows, cols) + 1))  # rank at most k
        yield rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols)) % p
        m = rng.integers(0, p, size=(rows, cols))
        m[:, panel // 2 : panel // 2 + panel] = 0  # an all-zero panel
        yield m
    yield np.zeros((7, panel + 1), dtype=np.int64)


# 256 was the default width before 128; it still takes the lazy route for
# fewer primes, so both widths stay covered.
@pytest.mark.parametrize("panel", sorted({4, linalg._PANEL, 256}))
@pytest.mark.parametrize("p", WORD_PRIMES + LAZY_EDGE)
def test_eliminate_matches_reference(monkeypatch, p, panel):
    monkeypatch.setattr(linalg, "_PANEL", panel)
    rng = np.random.default_rng(panel * 7 + p % 1000)
    for a in random_cases(rng, p, panel):
        # forward echelon from the library, RREF from the test-side back-substitution
        for full, run in ((False, linalg._eliminate), (True, blocked_rref)):
            want = reference_eliminate(a.copy(), p, full)
            got = run(a.copy(), p)
            assert got[1] == want[1]
            assert np.array_equal(got[0], want[0])


# (p, the narrowest type of its residues, the panel's work type at _PANEL):
# int8 and int16 systems, int16, int32 and int64 lazy panels, and the
# int64 panel that reduces each update
DTYPE_ROUTES = ((3, np.int8, np.int16), (11, np.int8, np.int32), (127, np.int8, np.int32),
                (131, np.int16, np.int32), (LAZY_EDGE[0], np.int32, np.int64),
                (LAZY_EDGE[1], np.int32, None))


def test_narrowest_int_edges():
    for bound, want in ((0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16),
                        (32768, np.int32), ((1 << 31) - 1, np.int32), (1 << 31, np.int64),
                        ((1 << 63) - 1, np.int64)):
        assert linalg._narrowest_int(bound) is want, bound
    with pytest.raises(ValueError):
        linalg._narrowest_int(1 << 63)


@pytest.mark.parametrize("p, system, panel", DTYPE_ROUTES)
def test_eliminate_dtype_routes(p, system, panel):
    # every signed type that holds p - 1 gives the int64 echelon and pivots
    # and keeps its own type; a narrower one, or no signed integer type, is refused
    assert linalg._narrowest_int(p - 1) is system
    bound = (linalg._PANEL * (p - 1) ** 2 + p) * p
    assert (linalg._narrowest_int(bound) if linalg._lazy(p) else None) is panel
    rng = np.random.default_rng(p % 1000 + 7)
    for a in random_cases(rng, p, linalg._PANEL):
        want, want_pivots = linalg._eliminate(a.astype(np.int64), p)
        for t in (np.int8, np.int16, np.int32):
            if np.iinfo(t).max < p - 1:
                with pytest.raises(ValueError, match="do not fit"):
                    linalg._eliminate(a.astype(t), p)
                continue
            got, pivots = linalg._eliminate(a.astype(t), p)
            assert got.dtype == t and pivots == want_pivots
            assert np.array_equal(got.astype(np.int64), want)
    for t in (np.uint8, np.float64):
        with pytest.raises(ValueError, match="do not fit"):
            linalg._eliminate(np.ones((2, 2), dtype=t), p)


def wilson_rank(n: int, t: int, k: int, p: int) -> int:
    """The p-rank of W_{t,k} on n points for t <= min(k, n - k) (R. M.
    Wilson, Europ. J. Combin. 11, 1990), in exact integers."""
    return sum(math.comb(n, i) - (math.comb(n, i - 1) if i else 0)
               for i in range(t + 1) if math.comb(k - i, t - i) % p)


def test_eliminate_matches_wilson_rank():
    # single-level inclusion matrices past the per-pivot reference's reach,
    # laid out as the oracle lays out its system: int8 residues for
    # p <= 127 and int16 for 131, int16 panels for p <= 7 and int32 above
    for p in (3, 5, 7, 127, 131):
        for n in (14, 15):
            for k in range(1, n // 2 + 1):
                for t in range(min(k, 4)):
                    w = tabloid._level_system(n, k, [t], p)[:, :-1]
                    assert len(linalg._eliminate(w, p)[1]) == wilson_rank(n, t, k, p), (n, t, k, p)


def test_eliminate_matches_reference_on_sweep():
    """Every brute-force H^1 system with a + b <= 13 and p in {3, 5}.

    The reference runs in forward mode only, for time. The test-side
    blocked RREF is then checked against it: it is reduced echelon with
    the same pivots, and the reference echelon rows lie in its row space,
    so both spans agree and the RREF is the unique one.
    """
    for p in (3, 5):
        for n in range(2, 14):
            for b in range(1, n // 2 + 1):
                a = constant_level_system(n, b, range(b)) % p
                echelon, pivots = reference_eliminate(a.copy(), p, full=False)
                got, got_pivots = linalg._eliminate(a.copy(), p)
                assert got_pivots == pivots
                assert np.array_equal(got, echelon)
                rref, rref_pivots = blocked_rref(a.copy(), p)
                r = len(pivots)
                assert rref_pivots == pivots
                assert not rref[r:].any()
                assert np.array_equal(rref[:r, pivots], np.eye(r, dtype=np.int64))
                assert all(not rref[i, : c].any() for i, c in enumerate(pivots))
                coords = MatFp(echelon[:r, pivots], p)
                assert (coords @ MatFp(rref[:r], p)).entries.tolist() == echelon[:r].tolist()


def test_matfp_reduces_entries():
    m = MatFp([[3, 4], [-1, 7]], 3)
    assert m.entries.tolist() == [[0, 1], [2, 1]]
    with pytest.raises(ValueError):
        MatFp([1, 2, 3], 3)


def test_matmul_matches_numpy_small():
    rng = np.random.default_rng(7)
    for p in (3, 5):
        a = rng.integers(0, p, size=(4, 6))
        b = rng.integers(0, p, size=(6, 3))
        got = (MatFp(a, p) @ MatFp(b, p)).entries
        assert np.array_equal(got, (a @ b) % p)


def test_word_size_prime_guard():
    with pytest.raises(ValueError):
        MatFp([[1]], 4294967311)  # the least prime above 2^32
    p = 2**31 - 1  # the largest prime the guard admits
    got = MatFp([[p - 1, p - 1]], p) @ MatFp([[p - 1], [p - 1]], p)
    assert got.entries.tolist() == [[2]]


def test_rank_examples():
    assert rank_fp(MatFp([[1, 2], [2, 4]], 3)) == 1  # second row is twice the first
    assert rank_fp(MatFp([[1, 0], [0, 1]], 3)) == 2
    assert rank_fp(MatFp(np.zeros((3, 4), dtype=np.int64), 5)) == 0
    # rank drops mod 3: det = 3
    assert rank_fp(MatFp([[1, 2], [2, 1]], 3)) == 1


def test_rank_prefix_matches_two_runs():
    # brute_force_h1 reads the rank of a column prefix off the pivots of
    # one elimination of the whole matrix
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = int(rng.choice([3, 5]))
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.integers(0, p, size=(rows, cols))
        k = int(rng.integers(0, cols + 1))
        _, pivots = linalg._eliminate(a.copy(), p)
        assert len(pivots) == rank_fp(MatFp(a, p))
        assert sum(c < k for c in pivots) == rank_fp(MatFp(a[:, :k], p))


def test_kernel_basis_properties():
    # the test-side canonical kernel basis, which other tests use as reference
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = int(rng.choice([3, 5]))
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.integers(0, p, size=(rows, cols))
        m = MatFp(a, p)
        basis = kernel_basis(m)
        assert len(basis) == cols - rank_fp(m)
        for v in basis:
            assert not m.apply(v).any()
        if basis:
            assert rank_fp(MatFp(np.array(basis), p)) == len(basis)
        # canonical form: one vector per free column f, 1 at f, 0 at the other frees
        pivots = [c for c in range(cols)
                  if rank_fp(MatFp(a[:, : c + 1], p)) > rank_fp(MatFp(a[:, :c], p))]
        free = [f for f in range(cols) if f not in pivots]
        assert [v[free].tolist() for v in basis] == np.eye(len(free), dtype=int).tolist()


def solve(a: np.ndarray, rhs, p: int) -> np.ndarray | None:
    """The echelon solution of a x = rhs mod p, or None: [a | -rhs] is
    eliminated and its kernel vector completed from 1 in the last
    coordinate, which a pivot row moves exactly when there is none."""
    m, pivots = linalg._eliminate(np.column_stack([a, -np.asarray(rhs)]) % p, p)
    preset = np.zeros(m.shape[1], dtype=np.int64)
    preset[-1] = 1
    x = linalg._kernel_vector(m, p, pivots, preset)
    return x[:-1] if x[-1] == 1 else None


def test_kernel_vector_of_a_narrow_echelon():
    # at p = 127 an int8 column times a residue wraps unless it is widened
    p = 127
    rng = np.random.default_rng(127)
    for _ in range(20):
        a = rng.integers(0, p, size=(6, 9))
        m, pivots = linalg._eliminate(a.copy(), p)
        preset = np.zeros(9, dtype=np.int64)
        free = [c for c in range(9) if c not in pivots]
        preset[free] = rng.integers(0, p, size=len(free))
        want = linalg._kernel_vector(m, p, pivots, preset)
        assert not exact_product(a, want.reshape(-1, 1), p).any()
        assert np.array_equal(linalg._kernel_vector(m.astype(np.int8), p, pivots, preset), want)


def test_affine_solution_against_enumeration():
    rng = np.random.default_rng(42)
    p = 3
    for _ in range(30):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(0, p, size=(rows, cols))
        rhs = rng.integers(0, p, size=rows)
        sol = solve(a, rhs, p)
        want = brute_solutions(a, rhs, p)
        if not want:
            assert sol is None
            continue
        assert tuple(sol) in want
        # particular + kernel span reproduces the whole solution set
        kernel = kernel_basis(MatFp(a, p))
        got = set()
        for coeffs in itertools.product(range(p), repeat=len(kernel)):
            x = sol.copy()
            for c, v in zip(coeffs, kernel):
                x = (x + c * v) % p
            got.add(tuple(int(t) for t in x))
        assert got == want


def test_affine_free_coordinates_are_zero():
    # one equation, three unknowns: echelon particular keeps frees at zero
    assert solve(np.array([[1, 1, 1]]), [2], 3).tolist() == [2, 0, 0]


@pytest.mark.parametrize("p", WORD_PRIMES)
def test_solve_matches_rref(p):
    # consistent and inconsistent systems around the panel width
    rng = np.random.default_rng(p % 1000 + 1)
    outcomes = set()
    for a in random_cases(rng, p, linalg._PANEL):
        x0 = rng.integers(0, p, size=a.shape[1])
        for rhs in (exact_product(a, x0.reshape(-1, 1), p).ravel(),
                    rng.integers(0, p, size=a.shape[0])):
            want = canonical_solution(np.column_stack([a, rhs]), p)
            got = solve(a, rhs, p)
            if want is None:
                assert got is None
            else:
                assert got is not None and np.array_equal(got, want)
            outcomes.add(want is None)
    assert outcomes == {False, True}


# the james workload's shapes in bench/run.py
JAMES_BENCH = ((8, 3, 3), (8, 4, 3), (9, 3, 5), (9, 4, 5), (14, 3, 5), (4, 4, 5),
               (11, 2, 3), (14, 2, 5), (17, 2, 3))


def test_solve_matches_rref_on_level_systems(monkeypatch):
    """Every GF(p) level system the library solves here: the t-designs with
    g <= 10, 0 <= t < b < g, targets 0, 1, 2 and p in {3, 5, 7}, and the
    james systems of the benchmark shapes and (8, 5, 3). Each is solved on
    G-orbits, and a solution exists exactly where the RREF of the system
    over all C(g, b) blocks finds no pivot in the rhs column. The witness
    is the RREF's canonical solution of the orbit system, expanded by orbit
    id. Target 0 gives the zero element, the full system's canonical
    solution, without a level solve."""
    solved = {True: 0, False: 0}
    homogeneous = 0
    real = tabloid._level_element

    def canonical(system, targets, p):
        ncols = system.shape[1] - len(targets)
        rhs = -(system[:, ncols:] @ np.array(targets))
        return canonical_solution(np.column_stack([system[:, :ncols], rhs]) % p, p)

    def checked(n, b, p, targets):
        levels, values = list(targets), list(targets.values())
        exists = canonical(constant_level_system(n, b, levels), values, p) is not None
        got = real(n, b, p, targets)
        assert (got is not None) == exists, (n, b, p, targets)
        if exists:
            system, ids = tabloid._orbit_level_system(n, b, p, levels)
            assert np.array_equal(got.vec, canonical(system, values, p)[ids]), (n, b, p, targets)
        solved[exists] += 1
        return got

    monkeypatch.setattr(designs, "_level_element", checked)
    monkeypatch.setattr(hemmer, "_level_element", checked)
    for p in (3, 5, 7):
        for g in range(2, 11):
            for b in range(1, g):
                for t in range(b):
                    for target in (0, 1, 2):
                        before = dict(solved)
                        u = find_t_design_fp(DesignParams(g, b, t, p), target)
                        if target == 0:
                            assert solved == before
                            system = constant_level_system(g, b, [t])
                            system[:, -1] = 0
                            assert np.array_equal(u.vec, canonical_solution(system, p))
                            homogeneous += 1
    assert solved == {True: 826, False: 164} and homogeneous == 495  # 1485 systems
    for a, b, p in JAMES_BENCH + ((8, 5, 3),):
        construct_james(a, b, p)
    assert solved == {True: 826 + len(JAMES_BENCH) + 1, False: 164}


@pytest.mark.parametrize("n,b,levels", [(9, 4, (0, 1, 2, 3)), (10, 5, (1, 3, 4)), (8, 3, (0, 2))])
def test_level_element_at_word_size_prime(n, b, levels):
    # the targets of minus the all-ones element, so the system is consistent;
    # presets near p put several terms of about p^2 in one residual row
    p = 2147483629
    targets = {s: -math.comb(n - s, b - s) % p for s in levels}
    # the system over all C(n, b) blocks, eliminated and back-solved from
    # the presets, gives the RREF's canonical solution
    system = constant_level_system(n, b, levels)
    ncols = system.shape[1] - len(levels)
    m, pivots = linalg._eliminate(system % p, p)
    preset = np.zeros(system.shape[1], dtype=np.int64)
    preset[ncols:] = list(targets.values())
    x = linalg._kernel_vector(m, p, pivots, preset)
    assert np.array_equal(x[ncols:], preset[ncols:])
    rhs = -(system[:, ncols:].astype(object) @ np.array(list(targets.values()), dtype=object))
    aug = np.column_stack([system[:, :ncols], (rhs % p).astype(np.int64)])
    assert np.array_equal(x[:ncols], canonical_solution(aug, p))
    # on orbits G = S_n, whose one b-orbit makes the witness a multiple of
    # the all-ones element: minus it, here
    assert not tabloid._orbit_level_system(n, b, p, levels)[1].any()
    u = tabloid._level_element(n, b, p, targets)
    assert u == -tabloid.Element.ones(n, b, p)
    levels_of_u = spectrum(u).levels
    assert all(levels_of_u[s] == mu for s, mu in targets.items())


@pytest.mark.parametrize("run", [
    lambda: find_t_design_fp(DesignParams(9, 4, 2, 5), 1),
    lambda: construct_james(8, 4, 3),
    lambda: find_hemmer_by_solver(8, 3, 3),
], ids=["find_t_design_fp", "construct_james", "find_hemmer_by_solver"])
def test_level_solves_eliminate_once(monkeypatch, run):
    calls = []
    real = linalg._eliminate

    def counting(m, p):
        calls.append(m.shape)
        return real(m, p)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    monkeypatch.setattr(tabloid, "_eliminate", counting)
    assert run() is not None
    assert len(calls) == 1


def test_solve_integer_examples():
    assert solve_integer(MatZ([[2]]), [4]) == [2]
    assert solve_integer(MatZ([[2]]), [3]) is None
    # 2x2 invertible over Q but not over Z unless rhs cooperates
    assert solve_integer(MatZ([[2, 0], [0, 3]]), [4, 9]) == [2, 3]
    assert solve_integer(MatZ([[2, 0], [0, 3]]), [1, 3]) is None
    # underdetermined: any valid solution accepted, verified by apply
    a = MatZ([[1, 2, 3]])
    x = solve_integer(a, [7])
    assert x is not None and a.apply(x) == [7]


def test_solve_integer_self_check_names_the_shape(monkeypatch):
    monkeypatch.setattr(MatZ, "apply", lambda self, vec: [1] * self.shape[0])
    with pytest.raises(AssertionError, match="non-solution of a 2 x 3 system"):
        solve_integer(MatZ([[1, 0, 0], [0, 1, 0]]), [0, 0])


def test_solve_integer_random_solvable():
    rng = np.random.default_rng(5)
    for _ in range(40):
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.integers(-4, 5, size=(rows, cols))
        x0 = rng.integers(-6, 7, size=cols)
        rhs = (a @ x0).tolist()
        m = MatZ(a.tolist())
        x = solve_integer(m, rhs)
        assert x is not None
        assert m.apply(x) == rhs


def test_solve_integer_detects_infeasible():
    # x + y even plus x + y odd cannot both hold
    assert solve_integer(MatZ([[2, 2], [1, 1]]), [2, 2]) is None
    # consistent over GF(p) for no p: 0 = 1
    assert solve_integer(MatZ([[0]]), [1]) is None
    assert solve_integer(MatZ([[0]]), [0]) == [0]


def test_matz_validation():
    with pytest.raises(ValueError):
        MatZ([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve_integer(MatZ([[1, 2]]), [1, 2])


def test_matrices_refuse_non_int_entries():
    # each was coerced or overflowed before: floats truncated, True read
    # as 1, 2**64 raised OverflowError
    too_big = np.array([[2**63]], dtype=np.uint64)  # wrapped negative if cast
    for entries in ([[1.5, 2.9]], [[True, 2]], [[2**64]], np.array([[1.0, 2.0]]), too_big):
        with pytest.raises(ValueError, match="must be int"):
            MatFp(entries, 3)
    for vec in ([0.5, 1.7], [True, 1]):
        with pytest.raises(ValueError, match="must be int"):
            MatFp([[1, 2]], 3).apply(vec)
    for rows in ([[1.5, 2]], [[True, 2]]):
        with pytest.raises(ValueError, match="must be ints"):
            MatZ(rows)
    with pytest.raises(ValueError, match="must be ints"):
        MatZ([[1, 2]]).apply([1.5, True])
    with pytest.raises(ValueError, match="must be ints"):
        solve_integer(MatZ([[2]]), [4.9])
    # ints and numpy integers still go through
    assert MatFp([[np.int8(4), -1]], 3).entries.tolist() == [[1, 2]]
    assert MatFp([[1, 2]], 3).apply(np.array([1, 1], dtype=np.int32)).tolist() == [0]
    assert MatZ([[np.int64(2), 2**70]]).rows == ((2, 2**70),)
    assert solve_integer(MatZ([[2]]), [np.int64(4)]) == [2]


@settings(max_examples=60)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=4),
    st.sampled_from([3, 5]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rank_bounds_and_kernel_dim(rows, cols, p, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, p, size=(rows, cols))
    m = MatFp(a, p)
    r = rank_fp(m)
    assert 0 <= r <= min(rows, cols)
    assert len(kernel_basis(m)) == cols - r
