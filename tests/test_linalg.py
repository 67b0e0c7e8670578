import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtdesigns.linalg import (
    MatFp,
    MatZ,
    kernel_basis_fp,
    rank_fp,
    rank_fp_prefix,
    solve_affine_fp,
    solve_integer,
)


def brute_solutions(a: np.ndarray, rhs: np.ndarray, p: int) -> set[tuple[int, ...]]:
    """All solutions of a tiny system by exhaustive enumeration."""
    n = a.shape[1]
    out = set()
    for x in itertools.product(range(p), repeat=n):
        if all((a @ np.array(x)) % p == rhs % p):
            out.add(x)
    return out


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
    assert rank_fp(MatFp(np.zeros((3, 4)), 5)) == 0
    # rank drops mod 3: det = 3
    assert rank_fp(MatFp([[1, 2], [2, 1]], 3)) == 1


def test_rank_prefix_matches_two_runs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = int(rng.choice([3, 5]))
        rows, cols = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        a = rng.integers(0, p, size=(rows, cols))
        k = int(rng.integers(0, cols + 1))
        total, prefix = rank_fp_prefix(MatFp(a, p), k)
        assert total == rank_fp(MatFp(a, p))
        assert prefix == rank_fp(MatFp(a[:, :k], p)) if k else prefix == 0
    with pytest.raises(ValueError):
        rank_fp_prefix(MatFp([[1]], 3), 5)


def test_kernel_basis_properties():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p = int(rng.choice([3, 5]))
        rows, cols = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = rng.integers(0, p, size=(rows, cols))
        m = MatFp(a, p)
        basis = kernel_basis_fp(m)
        assert len(basis) == cols - rank_fp(m)
        for v in basis:
            assert not m.apply(v).any()
        if basis:
            assert rank_fp(MatFp(np.array(basis), p)) == len(basis)
        # canonical form: one vector per free column f, 1 at f, 0 at the other frees
        pivots = [c for c in range(cols)
                  if rank_fp_prefix(m, c + 1)[1] > rank_fp_prefix(m, c)[1]]
        free = [f for f in range(cols) if f not in pivots]
        assert [v[free].tolist() for v in basis] == np.eye(len(free), dtype=int).tolist()
        affine = solve_affine_fp(m, np.zeros(rows), want_kernel=True).kernel
        assert [v.tolist() for v in affine] == [v.tolist() for v in basis]


def test_affine_solution_against_enumeration():
    rng = np.random.default_rng(42)
    p = 3
    for _ in range(30):
        rows, cols = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        a = rng.integers(0, p, size=(rows, cols))
        rhs = rng.integers(0, p, size=rows)
        sol = solve_affine_fp(MatFp(a, p), rhs, want_kernel=True)
        want = brute_solutions(a, rhs, p)
        if not want:
            assert sol.particular is None
            assert not sol.consistent
            continue
        assert tuple(sol.particular) in want
        # particular + kernel span reproduces the whole solution set
        got = set()
        for coeffs in itertools.product(range(p), repeat=len(sol.kernel)):
            x = sol.particular.copy()
            for c, v in zip(coeffs, sol.kernel):
                x = (x + c * v) % p
            got.add(tuple(int(t) for t in x))
        assert got == want


def test_affine_free_coordinates_are_zero():
    # one equation, three unknowns: echelon particular keeps frees at zero
    sol = solve_affine_fp(MatFp([[1, 1, 1]], 3), [2])
    assert sol.particular.tolist() == [2, 0, 0]
    assert sol.kernel == ()


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
    assert len(kernel_basis_fp(m)) == cols - r
