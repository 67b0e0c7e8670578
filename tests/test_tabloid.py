import gc
import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linalg_reference import inclusion_matrix
from orbit_reference import generators, orbit_counts, permute
from spechtdesigns import tabloid
from spechtdesigns.linalg import MatFp, MatZ, rank_fp
from spechtdesigns.tabloid import (
    Element,
    Partition2,
    _kept_levels,
    _members,
    _orbit_canon,
    _orbit_level_system,
    _ranks,
    constant_level_system,
    element_from_json,
    element_from_text,
    element_to_json,
    element_to_text,
    f_lambda,
    h0_dim,
    james_check,
    psi,
    psi_int,
    psi_levels,
    specht_dim,
    specht_membership,
    subsets_colex,
)

BIG_PRIME = 10007  # rank over GF(q) certifies rank over Q from below


def test_partition2_validation():
    assert Partition2(3, 3).n == 6
    assert Partition2(5, 1).n == 6
    for a, b in [(2, 3), (3, 0), (0, 0), (-1, 1), (True, True)]:
        with pytest.raises(ValueError):
            Partition2(a, b)


def test_subsets_colex_order_and_content():
    arr = subsets_colex(5, 3)
    assert len(arr) == 10
    # strictly increasing masks, each with exactly 3 bits
    assert all(int(arr[i]) < int(arr[i + 1]) for i in range(9))
    assert all(bin(int(m)).count("1") == 3 for m in arr)
    assert int(arr[0]) == 0b111
    assert int(arr[-1]) == 0b11100
    assert subsets_colex(4, 0).tolist() == [0]
    with pytest.raises(ValueError):
        subsets_colex(5, 6)
    with pytest.raises(ValueError):
        subsets_colex(63, 1)


def gosper_colex(n, k):
    """Reference listing: Gosper's hack steps to the next mask with the same popcount."""
    if k == 0:
        return [0]
    out = []
    x = (1 << k) - 1
    while x < 1 << n:
        out.append(x)
        u = x & -x
        v = x + u
        x = v | (((x ^ v) // u) >> 2)
    return out


def test_subsets_colex_matches_gosper():
    subsets_colex.cache_clear()  # rebuild every listing through the recursion
    for n in range(21):
        for k in range(n + 1):
            assert subsets_colex(n, k).tolist() == gosper_colex(n, k), (n, k)
    for n, k in [(62, 1), (62, 2), (30, 3)]:
        assert subsets_colex(n, k).tolist() == gosper_colex(n, k), (n, k)
    assert not subsets_colex(62, 2).flags.writeable


def test_subsets_colex_keeps_only_requested_listings():
    subsets_colex.cache_clear()
    subsets_colex(21, 10)
    subsets_colex(20, 9)
    assert subsets_colex.cache_info().currsize == 2


def test_decoding_the_zero_element_builds_no_listing():
    subsets_colex.cache_clear()
    u = element_from_text('{"p": 3, "a": 11, "b": 10, "entries": []}')
    assert u == Element.zero(21, 10, 3) and element_to_json(u)["entries"] == []
    assert subsets_colex.cache_info().currsize == 0


def test_mask_round_trip_examples():
    idx = _ranks(6, 3, [[2, 4, 5]])
    assert int(subsets_colex(6, 3)[idx[0]]) == 0b011010
    assert _members(6, 3, idx).tolist() == [[2, 4, 5]]
    assert _ranks(6, 3, []).shape == (0,)
    assert _members(6, 3, np.array([], dtype=np.int64)).shape == (0, 3)
    for bad in (
        [[0, 1, 2]],  # out of range below
        [[1, 2, 7]],  # out of range above
        [[2, 2, 3]],  # repeated member
        [[3, 2, 1]],  # not ascending
        [[1, 2]],  # wrong size
        [[1, 2, 3, 4]],  # wrong size
        [[1, 2], [1, 2, 3]],  # ragged
        [[1, 2, 2**70]],  # beyond int64
        [[1, 2, 3], [2, 3, 4], [1, 2, 3]],  # repeated set
    ):
        with pytest.raises(ValueError):
            _ranks(6, 3, bad)


@given(st.integers(min_value=1, max_value=14).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(min_value=0, max_value=n))))
@example((62, 1))  # the ground's edge: members up to 62, bit 61 of a mask
@example((62, 2))
@example((30, 3))
def test_colex_rank_enumerates_in_order(shape):
    n, k = shape
    arr = subsets_colex(n, k)
    idx = np.arange(len(arr))
    rows = _members(n, k, idx)
    # colex: compare the largest members first
    assert rows.tolist() == [list(c) for c in sorted(combinations(range(1, n + 1), k),
                                                     key=lambda c: c[::-1])]
    assert (_ranks(n, k, rows) == idx).all()
    assert ((1 << (rows - 1)).sum(axis=1) == arr).all()


def test_element_arithmetic():
    u = Element.from_subsets(4, 2, 3, {(1, 2): 1, (3, 4): 2})
    w = Element.from_subsets(4, 2, 3, {(1, 2): 2, (2, 3): 1})
    s = u + w
    assert s.coeff([1, 2]) == 0 and s.coeff([3, 4]) == 2 and s.coeff([2, 3]) == 1
    assert (u - u).is_zero()
    assert (2 * u).coeff([3, 4]) == 1
    assert (-u).coeff([1, 2]) == 2
    assert u == Element.from_subsets(4, 2, 3, {(3, 4): 2, (2, 1): 1})
    assert u != w
    assert list(u.support()) == [((1, 2), 1), ((3, 4), 2)]


def test_element_word_size_prime():
    with pytest.raises(ValueError):
        Element(3, 1, 4294967311, [1, 2, 3])  # the least prime above 2^32
    p = 2**31 - 1
    u = Element(3, 1, p, [p - 1] * 3)
    assert ((p - 2) * u).vec.tolist() == [2] * 3
    assert ((p - 1) * u).vec.tolist() == [1] * 3


def test_element_validation():
    with pytest.raises(ValueError):
        Element(4, 2, 3, [1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        Element(2, 3, 3, [0])  # b > n
    with pytest.raises(ValueError):
        Element.from_subsets(4, 2, 3, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        Element(4, 2, 4, np.zeros(6))  # modulus not prime
    with pytest.raises(ValueError):
        Element.from_subsets(4, 2, 3, {(1, 2): 1, (2, 1): 2})  # one subset twice
    with pytest.raises(ValueError):
        Element.ones(4, 2, 3).coeff([1, 5])
    u = Element.from_subsets(4, 2, 3, {(1, 2): 1})
    w = Element.from_subsets(4, 2, 5, {(1, 2): 1})
    with pytest.raises(ValueError):
        u + w


def test_subsets_and_coefficients_must_be_ints():
    # each was coerced before: 1.5 and True stored as 1, 2.7 read as member 2
    for coeffs in ({(1, 2): 1.5, (2, 3): True}, {(1, 2): 1, (2, 3): np.bool_(True)},
                   {(1, 2.0): 1}, {(True, 2): 1}):
        with pytest.raises(ValueError, match="must be ints"):
            Element.from_subsets(4, 2, 3, coeffs)
    u = Element.ones(3, 1, 3)
    for members in ([2.7], [True], [np.float64(2)]):
        with pytest.raises(ValueError, match="must be ints"):
            u.coeff(members)
    f = f_lambda(3, 2, 3)
    for scalar in (2.5, True, np.float64(2)):  # 2.5 * f gave 2 * f, True * f gave f
        with pytest.raises(ValueError, match="must be ints"):
            scalar * f
    assert (np.int64(2) * f).vec.tolist() == [2] * 10
    v = Element.from_subsets(4, 2, 3, {(np.int64(1), 2): np.int8(5), (2, 3): 2**70})
    assert v.coeff([np.int32(2), 1]) == 2 and v.coeff((2, 3)) == 2**70 % 3


def test_element_refuses_non_int64_vectors():
    # each was coerced or overflowed before: floats truncated, 2**64 raised OverflowError
    too_big = np.array([2**63, 1, 0], dtype=np.uint64)  # wrapped negative if cast
    for vec in ([1.5, 2.9, 0], [2**64, 0, 0], too_big, [True, False, True]):
        with pytest.raises(ValueError, match="int64 integers"):
            Element(3, 2, 3, vec)
    assert Element(3, 2, 3, np.array([4, -1, 2], dtype=np.int8)).vec.tolist() == [1, 2, 2]
    assert Element(3, 2, 3, [-(2**63), 2**63 - 1, 0]).vec.tolist() == [1, 1, 0]


def test_element_size_guard():
    # C(40, 20) entries would be 1 TiB and C(34, 17) 17.4 GiB; both refuse first
    for make in (Element.zero, Element.ones):
        with pytest.raises(ValueError, match="C\\(40, 20\\)"):
            make(40, 20, 3)
    with pytest.raises(ValueError, match="C\\(40, 20\\)"):
        Element.from_subsets(40, 20, 3, {})
    with pytest.raises(ValueError, match="C\\(34, 17\\)"):
        f_lambda(17, 17, 3)
    with pytest.raises(ValueError, match="n <= 62"):
        Element(63, 1, 3, [])


def test_composition_ground_is_allowed():
    # b > n/2 is legal at the element level; partitions are checked elsewhere
    u = Element.ones(4, 3, 3)
    assert u.a == 1
    with pytest.raises(ValueError):
        f_lambda(1, 3, 3)


def test_worked_example_base_block_sums():
    """The (3,3) mod 3 element supported on all 3-subsets of {2..6}."""
    subsets = {}
    for members in _members(6, 3, np.arange(20)).tolist():
        if 1 not in members:
            subsets[tuple(members)] = 1
    u = Element.from_subsets(6, 3, 3, subsets)
    assert sum(1 for _ in u.support()) == 10
    assert not psi(u, 2).any()
    assert not psi(u, 1).any()
    assert psi_int(6, 3, u.vec, 0).tolist() == [10]
    assert psi(u, 0).tolist() == [1]


def test_f_lambda_spectrum_values():
    f = f_lambda(3, 3, 3)
    # level sums are C(6-v, 3-v): 20, 10, 4 -> 2, 1, 1 mod 3
    for v, want in [(0, 2), (1, 1), (2, 1)]:
        img = psi(f, v)
        assert (img == want).all()


def test_psi_int_matches_inclusion_matrix():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        for b in range(1, n + 1):
            vec = rng.integers(-9, 10, size=math.comb(n, b))
            levels = psi_levels(n, b, vec)
            assert len(levels) == b + 1 and levels[b].tolist() == vec.tolist()
            for v in range(b):
                direct = np.array(
                    inclusion_matrix(n, v, b).apply(vec.tolist()), dtype=object
                )
                got = psi_int(n, b, vec, v)
                assert [int(x) for x in got] == [int(x) for x in direct]
                assert levels[v].tolist() == got.tolist()


def test_psi_int_object_dtype_path():
    # huge coefficients force the arbitrary-precision branch at every level
    for n, b in [(6, 3), (8, 5)]:
        size = math.comb(n, b)
        big = [(-1) ** i * (10**20 + i) for i in range(size)]
        # the int64 minimum: its np.abs wraps negative, which would pick int64
        low = np.array([-(2**63)] + [0] * (size - 1), dtype=np.int64)
        for vec in (big, low):
            exact = [int(x) for x in vec]
            for v in range(b):
                got = psi_int(n, b, vec, v)
                assert [int(x) for x in got] == inclusion_matrix(n, v, b).apply(exact)
                assert got.dtype == object
    # the last step's undivided value, 3 * 20 * 2e17, passes 2^63 though psi_0 does not
    assert psi_int(6, 3, [2 * 10**17] * 20, 0).tolist() == [4 * 10**18]


def test_psi_int_refuses_floats_and_bools():
    # numpy reads this list as float64, which would round 2^63 + 5
    assert psi_int(3, 1, [2**63 + 5, 0, 0], 0).tolist() == [2**63 + 5]
    for vec in ([1.5, 2.5, 0.5], [True, False, True], [True, 2, 3], np.array([1.0, 2.0, 3.0])):
        with pytest.raises(ValueError, match="must be ints"):
            psi_int(3, 1, vec, 0)


def reference_drop(n: int, k: int, w: np.ndarray) -> np.ndarray:
    """The delete-one-element step by binary search: each k-subset minus one
    point is looked up in the (k-1)-listing and scattered there."""
    mk = subsets_colex(n, k)
    mk1 = subsets_colex(n, k - 1)
    out = np.zeros(len(mk1), dtype=w.dtype)
    for pos in range(n):
        bit = 1 << pos
        sel = (mk & bit) != 0
        if not sel.any():
            continue
        idx = np.searchsorted(mk1, mk[sel] ^ bit)
        np.add.at(out, idx, w[sel])
    return out


def test_drop_once_matches_reference():
    rng = np.random.default_rng(53)
    for n in range(1, 11):
        for k in range(1, n + 1):
            size = math.comb(n, k)
            small = rng.integers(-10**6, 10**6, size=size)
            big = np.array([(-1) ** i * (2**64 + int(x)) for i, x in enumerate(small)],
                           dtype=object)
            for w in (small, big):
                got = tabloid._drop_once(n, k, w)
                want = reference_drop(n, k, w)
                assert got.dtype == w.dtype
                assert got.tolist() == want.tolist()


@pytest.mark.parametrize("block", [1, 5])
def test_drop_once_splits_down_to_every_leaf(monkeypatch, block):
    # with blocks this small every shape splits down to its leaves: among
    # them the j = m blocks, whose without-m part is empty, and j = 1
    monkeypatch.setattr(tabloid, "_DROP_BLOCK", block)
    leaves = set()
    split = tabloid._drop_into

    def record(out, w, m, j, at, to):
        if math.comb(m, j) <= block:
            leaves.add((m, j))
        split(out, w, m, j, at, to)

    monkeypatch.setattr(tabloid, "_drop_into", record)
    test_drop_once_matches_reference()
    assert {(m, m) for m in range(1, 11)} | {(block, 1)} <= leaves


def test_drop_once_above_the_block_matches_reference():
    rng = np.random.default_rng(59)
    n, k = 15, 7
    assert math.comb(n, k) > tabloid._DROP_BLOCK
    small = rng.integers(-10**6, 10**6, size=math.comb(n, k))
    big = np.array([(-1) ** i * (2**64 + int(x)) for i, x in enumerate(small)], dtype=object)
    for w in (small, big):
        got = tabloid._drop_once(n, k, w)
        assert got.dtype == w.dtype
        assert got.tolist() == reference_drop(n, k, w).tolist()


def test_drop_once_leaves_no_reference_cycles():
    # a cycle would hold each call's output until the collector runs
    n, k = 15, 7
    w = np.random.default_rng(61).integers(0, 3, size=math.comb(n, k))
    gc.collect()
    gc.disable()
    try:
        tabloid._drop_once(n, k, w)
        psi_levels(n, k, w)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_drop_plan_pairs_are_the_inclusion_pairs():
    # the split builds each block's pairs; the reference builds W_{j-1,j}
    # from member ranks, so the two routes share no index code
    shapes = [(m, j) for m in range(1, 15) for j in range(1, m + 1)
              if math.comb(m, j) <= tabloid._DROP_BLOCK]
    assert (14, 1) in shapes and (10, 5) in shapes
    for m, j in shapes:
        dst, src = tabloid._drop_plan(m, j)
        assert not dst.flags.writeable and not src.flags.writeable
        assert len(dst) == len(src) == j * math.comb(m, j)
        rows, cols = np.nonzero(inclusion_matrix(m, j - 1, j, BIG_PRIME).entries)
        want = set(zip(rows.tolist(), cols.tolist()))
        assert set(zip(dst.tolist(), src.tolist())) == want, (m, j)


def test_level_walk_needs_no_rank_or_listing(monkeypatch):
    rng = np.random.default_rng(67)
    cases = []
    for n, b in ((13, 6), (15, 7)):
        small = rng.integers(-50, 50, size=math.comb(n, b))
        for w in (small, small.astype(object) * (2**64 + 1)):
            cases.append((n, b, w, [x.tolist() for x in psi_levels(n, b, w)]))

    def refuse(*args, **kwargs):
        raise AssertionError("the level walk ranked or listed subsets")

    tabloid._drop_plan.cache_clear()  # so every plan is built under the patch
    for name in ("_members", "_rank", "subsets_colex"):
        monkeypatch.setattr(tabloid, name, refuse)
    for n, b, w, want in cases:
        got = psi_levels(n, b, w)
        assert [x.dtype for x in got] == [w.dtype] * (b + 1)
        assert [x.tolist() for x in got] == want


def test_psi_reduces_mod_p():
    u = Element.ones(5, 2, 3)
    # each singleton lies in 4 pairs
    assert (psi(u, 1) == 1).all()
    assert psi(u, 0).tolist() == [10 % 3]
    # True was read as level 1, and 2.0 raised TypeError from math.comb
    for v in (True, 1.0):
        with pytest.raises(ValueError, match="must be ints"):
            psi(u, v)
    u = Element.ones(6, 3, 3)
    with pytest.raises(ValueError, match="must be ints"):
        psi(u, 2.0)
    with pytest.raises(ValueError, match="must be ints"):
        psi_int(6, 3, u.vec, 2.0)
    assert psi(u, np.int64(2)).tolist() == psi(u, 2).tolist()


def test_inclusion_matrix_forms():
    mz = inclusion_matrix(5, 1, 2)
    assert isinstance(mz, MatZ)
    assert mz.shape == (5, 10)
    mf = inclusion_matrix(5, 1, 2, p=3)
    assert isinstance(mf, MatFp)
    # row sums: each 1-subset lies in C(4,1) pairs
    assert all(sum(row) == 4 for row in mz.rows)
    # column sums: each pair contains 2 singletons
    cols = list(zip(*mz.rows))
    assert all(sum(c) == 2 for c in cols)


def reference_inclusion(n, i, b):
    """W_{i,b} built one row (or one column) at a time from the masks."""
    rows = subsets_colex(n, i)
    cols = subsets_colex(n, b)
    a = np.zeros((len(rows), len(cols)), dtype=np.int64)
    if len(rows) <= len(cols):
        for r, y in enumerate(rows):
            a[r] = (cols & int(y)) == int(y)
    else:
        for c, x in enumerate(cols):
            a[:, c] = (rows & int(x)) == rows
    return a


def test_level_system_blocks_match_reference():
    for n in range(11):
        for b in range(n + 1):
            for i in range(b + 1):
                want = reference_inclusion(n, i, b)
                system = constant_level_system(n, b, [i])
                assert system.dtype == np.int64 and system.shape == (len(want), want.shape[1] + 1)
                assert np.array_equal(system[:, :-1], want), (n, i, b)
                assert (system[:, -1] == -1).all()
                assert inclusion_matrix(n, i, b).rows == MatZ.from_numpy(want).rows


def test_level_system_matches_reference_stack():
    for n in range(14):
        for b in range(n + 1):
            blocks = [reference_inclusion(n, v, b) for v in range(b)]
            scalars = [np.zeros((len(blk), b), dtype=np.int64) for blk in blocks]
            for v, sc in enumerate(scalars):
                sc[:, v] = -1
            want = (np.hstack([np.vstack(blocks), np.vstack(scalars)]) if b
                    else np.zeros((0, 1), dtype=np.int64))
            got = constant_level_system(n, b, range(b))
            assert got.dtype == want.dtype and got.shape == want.shape, (n, b)
            assert got.tobytes() == want.tobytes(), (n, b)


def test_level_system_block_rows():
    system = constant_level_system(5, 3, [0, 1, 2])
    assert system.shape == (16, 13)
    # each scalar column is -1 on exactly its level's rows, in level order
    ranges = []
    for k in range(3):
        rows = np.flatnonzero(system[:, 10 + k])
        assert (system[rows, 10 + k] == -1).all()
        assert rows.tolist() == list(range(rows[0], rows[-1] + 1))
        ranges.append((int(rows[0]), int(rows[-1]) + 1))
    assert ranges == [(0, 1), (1, 6), (6, 16)]


def test_kept_levels_are_b_minus_powers_of_p():
    for p in (3, 5, 7, 11, 10**9 + 7):
        for b in range(63):
            powers = [p**l for l in range(b.bit_length()) if p**l <= b]
            assert _kept_levels(b, p) == sorted({b - q for q in powers}), (b, p)


def test_level_system_cell_guard(monkeypatch):
    # (16, 8) at every level: 26333 rows x 12878 columns, refused before allocating
    with pytest.raises(ValueError, match="26333 rows x 12878 columns = 339116374 cells"):
        constant_level_system(16, 8, range(8))
    cells = 16 * 13  # constant_level_system(5, 3, [0, 1, 2])
    monkeypatch.setattr(tabloid, "_MAX_CELLS", cells)
    assert constant_level_system(5, 3, [0, 1, 2]).size == cells
    monkeypatch.setattr(tabloid, "_MAX_CELLS", cells - 1)
    with pytest.raises(ValueError, match="exceeds the limit"):
        constant_level_system(5, 3, [0, 1, 2])


def test_level_system_refuses_levels_outside_0_to_b():
    # a level above b added a block of all-zero element columns, so no
    # element fitted a nonzero target and the zero element a zero one; a
    # negative level raised from math.comb
    assert constant_level_system(5, 2, [0, 2]).shape == (11, 12)
    for call in (lambda: constant_level_system(5, 2, [0, 3]),
                 lambda: constant_level_system(5, 2, [-1]),
                 lambda: tabloid._level_element(5, 2, 3, {3: 1}),
                 lambda: tabloid._level_element(5, 2, 3, {3: 0}),
                 lambda: psi(Element.ones(5, 2, 3), 3),
                 lambda: psi(Element.ones(5, 2, 3), -1)):
        with pytest.raises(ValueError, match=r"need 0 <= v <= b, got v=(3|-1), b=2"):
            call()


def test_orbit_canon_is_fixed_by_every_generator():
    # every k-subset listing of n <= 17 points, through depth-4 trees for
    # p = 3 and depth-2 trees for p = 5
    for p in (3, 5, 7):
        for n in range(1, 18):
            for k in range(n // 2 + 1):
                masks = subsets_colex(n, k)
                canon = _orbit_canon(n, p, masks)
                for sigma in generators(n, p):
                    assert np.array_equal(_orbit_canon(n, p, permute(masks, sigma)), canon), \
                        (n, k, p, sigma)


def test_orbit_canon_counts_the_orbits():
    # forms fixed by every generator take at most one value per orbit, so
    # as many values as orbits separate the orbits too. 8-subsets of 16 points:
    assert [orbit_counts(16, p)[8] for p in (3, 5, 7)] == [35, 8, 16]
    for p in (3, 5, 7):
        for n in range(1, 21):
            counts = orbit_counts(n, p)
            for k in range(n // 2 + 1):
                canon = _orbit_canon(n, p, subsets_colex(n, k))
                assert len(np.unique(canon)) == counts[k], (n, k, p)


@pytest.mark.parametrize("n,b,p", [(11, 3, 3), (12, 4, 3), (13, 5, 3), (13, 4, 5),
                                   (12, 6, 5), (14, 5, 7), (13, 6, 7), (16, 8, 3),
                                   (12, 9, 3)])
def test_orbit_system_entries_are_psi_of_orbit_indicators(n, b, p):
    # all levels take in s = 0, s = b and the levels that are not kept; no
    # level at all and a level list out of order check the layout; (12, 9, 3)
    # has wide blocks, in 9 orbits
    for levels in (_kept_levels(b, p), list(range(b + 1)), [], [b, 0]):
        system, ids = _orbit_level_system(n, b, p, levels)
        ncols = system.shape[1] - len(levels)
        assert ids.shape == (math.comb(n, b),) and ids.max() + 1 == ncols
        reps = [np.unique(_orbit_canon(n, p, subsets_colex(n, s))) for s in levels]
        rows = np.concatenate([np.zeros(0, dtype=np.int64)] +
                              [np.searchsorted(subsets_colex(n, s), r)
                               for s, r in zip(levels, reps)])
        assert system.shape[0] == len(rows)
        level_of = np.repeat(np.arange(len(levels)), [len(r) for r in reps])
        for j in range(ncols):
            walk = psi_levels(n, b, (ids == j).astype(np.int64))
            want = [walk[levels[k]][row] for k, row in zip(level_of, rows)]
            assert system[:, j].tolist() == want, (levels, j)
        scalars = np.zeros((len(rows), len(levels)), dtype=np.int64)
        scalars[np.arange(len(rows)), level_of] = -1
        assert np.array_equal(system[:, ncols:], scalars)


def test_orbit_system_of_the_trivial_group_is_the_level_system(monkeypatch):
    # with every mask its own form, each orbit is one block and the walk
    # must lay out constant_level_system itself, columns in colex order
    monkeypatch.setattr(tabloid, "_orbit_canon", lambda n, p, masks: masks)
    for n in range(1, 12):
        for b in range(1, n + 1):
            for levels in (list(range(b + 1)), _kept_levels(b, 3), [b - 1]):
                system, ids = _orbit_level_system(n, b, 3, levels)
                assert np.array_equal(system, constant_level_system(n, b, levels)), (n, b, levels)
                assert np.array_equal(ids, np.arange(math.comb(n, b)))


def test_orbit_system_lists_only_the_blocks():
    # the rows come from the forms of the b-orbits, walked down: no
    # s-listing is built for the levels 5 and 7
    subsets_colex.cache_clear()
    _orbit_level_system(16, 8, 3, [5, 7])
    assert subsets_colex.cache_info().currsize == 1


def test_psi_int_holds_one_level_of_its_walk():
    # levels 13 down to 5 of 18 points, 2.03 MB of int64 in all; the walk
    # holds the level it reached, the next one before and after its
    # division, and block temporaries, about 3 times the largest level
    n, b, v = 18, 13, 5
    vec = np.ones(math.comb(n, b), dtype=np.int64)
    psi_int(n, b, vec, v)  # warm the drop plans
    tracemalloc.start()
    try:
        psi_int(n, b, vec, v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    largest = 8 * max(math.comb(n, k) for k in range(v, b + 1))
    assert peak < 4 * largest, (peak, largest)


def test_psi_refuses_a_walk_past_the_listing_limit(monkeypatch):
    # from level 33 down to 6 of 39 points the walk lists C(39, 19) entries;
    # it is refused at its first level past the limit, before any step
    u = Element.ones(39, 33, 3)
    monkeypatch.setattr(tabloid, "_drop_once", lambda *args: pytest.fail("walked"))
    with pytest.raises(ValueError, match=r"^C\(39, 7\) = 15380937 subsets exceed the limit"):
        psi(u, 6)
    assert psi(u, 33).shape == (math.comb(39, 33),)


def test_composition_identity_small():
    # dropping to i then to j equals C(b-j, i-j) direct drops
    for n in range(1, 8):
        for b in range(1, n + 1):
            for i in range(b + 1):
                for j in range(i + 1):
                    left = np.array(inclusion_matrix(n, j, i).rows, dtype=object) @ \
                        np.array(inclusion_matrix(n, i, b).rows, dtype=object)
                    right = math.comb(b - j, i - j) * np.array(
                        inclusion_matrix(n, j, b).rows, dtype=object
                    )
                    assert (left == right).all()


def test_inclusion_full_rank_small():
    # rank over one big prime certifies rank over Q from below
    for n in range(1, 8):
        for b in range(n + 1):
            for i in range(b + 1):
                if i == 0 or b == 0:
                    continue
                m = inclusion_matrix(n, i, b, p=BIG_PRIME)
                assert rank_fp(m) == min(math.comb(n, i), math.comb(n, b))


def test_specht_dim_hook_formula():
    for n in range(2, 11):
        for b in range(1, n // 2 + 1):
            a = n - b
            for p in (3, 5):
                assert specht_dim(a, b, p) == math.comb(n, b) - math.comb(n, b - 1)


def test_membership_of_ones_matches_digit_criterion():
    for n in range(2, 13):
        for b in range(1, n // 2 + 1):
            a = n - b
            for p in (3, 5):
                f = f_lambda(a, b, p)
                assert specht_membership(f) == james_check((a, b), p)


def test_james_check_multipart():
    assert james_check((8, 3), 3)
    assert not james_check((3, 3), 3)
    assert james_check((2,), 3)  # no constraints with a single part
    assert not james_check((8, 3, 1), 3)  # the (3, 1) pair fails
    assert james_check((8, 2, 1), 3) == (
        james_check((8, 2), 3) and james_check((2, 1), 3)
    )
    assert h0_dim((8, 3), 3) == 1
    assert h0_dim((3, 3), 3) == 0
    with pytest.raises(ValueError):
        james_check((3, 4), 3)
    with pytest.raises(ValueError):
        james_check((), 3)
    with pytest.raises(ValueError, match="must be ints"):
        h0_dim((5.2, 2), 3)  # not read as (5, 2)


def test_element_json_round_trip():
    u = Element.from_subsets(6, 3, 3, {(2, 3, 6): 2, (1, 2, 3): 1})
    doc = element_to_json(u)
    assert doc["a"] == 3 and doc["b"] == 3 and doc["p"] == 3
    # canonical order is colex: {1,2,3} before {2,3,6}
    assert doc["entries"][0]["set"] == [1, 2, 3]
    v = element_from_json(json.loads(json.dumps(doc)))
    assert v == u
    assert element_to_json(v) == doc


def test_element_json_rejects_bad_schema():
    good = element_to_json(Element.from_subsets(4, 2, 3, {(1, 2): 1}))
    bads = []
    d = json.loads(json.dumps(good))
    d.pop("p")
    bads.append(d)  # missing key
    d = json.loads(json.dumps(good))
    d["entries"][0]["set"] = [2, 1]
    bads.append(d)  # not ascending
    d = json.loads(json.dumps(good))
    d["entries"][0]["coeff"] = 3
    bads.append(d)  # coeff out of range
    d = json.loads(json.dumps(good))
    d["entries"][0]["set"] = [1, 2, 3]
    bads.append(d)  # wrong size
    d = json.loads(json.dumps(good))
    d["entries"].append(dict(d["entries"][0]))
    bads.append(d)  # duplicate set
    d = json.loads(json.dumps(good))
    d["entries"][0]["extra"] = 1
    bads.append(d)  # unknown field
    d = json.loads(json.dumps(good))
    d["p"] = 4
    bads.append(d)  # composite modulus
    d = json.loads(json.dumps(good))
    d["entries"][0]["set"] = [True, 2]
    bads.append(d)  # bool member
    d = json.loads(json.dumps(good))
    d["entries"][0]["coeff"] = True
    bads.append(d)  # bool coeff
    d = json.loads(json.dumps(good))
    d["entries"][0]["set"] = [1, 5]
    bads.append(d)  # member out of range
    d = json.loads(json.dumps(good))
    d["entries"][0]["set"] = {"1": 1, "2": 2}
    bads.append(d)  # set not a list
    d = json.loads(json.dumps(good))
    d["entries"][0] = [[1, 2], 1]
    bads.append(d)  # entry not a dict
    d = json.loads(json.dumps(good))
    d["p"] = 100000000000000000039
    bads.append(d)  # prime too large for int64 residues
    for bad in bads:
        with pytest.raises(ValueError):
            element_from_json(bad)


def test_element_json_names_first_bad_entry():
    good = element_to_json(Element.from_subsets(4, 2, 3, {(1, 2): 1, (1, 3): 2, (2, 4): 1}))
    cases = [
        ({0: ("set", [1])}, {2: 7}, r"entry set \[1\] must list 2 ints"),
        ({0: ("coeff", 5), 1: ("set", ["x", 2])}, {}, r"coeff 5 must be an int in \[0, 3\)"),
        ({1: ("set", [1.0, 3])}, {2: None}, r"entry set \[1.0, 3\] must list 2 ints"),
        ({2: ("coeff", True)}, {}, r"coeff True must be an int in \[0, 3\)"),
        ({1: ("set", [1, 2, 3])}, {}, r"entry set \[1, 2, 3\] must list 2 ints"),
        ({}, {1: [[1, 3], 2]}, r"bad entry \[\[1, 3\], 2\]: need exactly"),
    ]
    for edits, replaced, msg in cases:
        d = json.loads(json.dumps(good))
        for i, (key, val) in edits.items():
            d["entries"][i][key] = val
        for i, val in replaced.items():
            d["entries"][i] = val
        with pytest.raises(ValueError, match=msg):
            element_from_json(d)


def test_element_to_text_matches_json_dumps():
    rng = np.random.default_rng(71)
    empty = [Element.zero(6, 3, 3), Element.zero(1, 1, 3), Element.zero(9, 5, 2147483629)]
    cases = empty + [Element.ones(1, 1, 5), Element.ones(5, 5, 7)]  # no support at every indent
    for _ in range(150):
        n = int(rng.integers(1, 12))
        b = int(rng.integers(1, n + 1))
        p = int(rng.choice([3, 5, 7, 2147483629]))
        size = math.comb(n, b)
        keep = rng.random(size) < rng.random()  # sparse to full support
        cases.append(Element(n, b, p, rng.integers(0, p, size) * keep))
    tables = _table_encoder_cases(rng)
    for u in cases + tables:
        for indent in (None, 0, 2, 4):
            assert element_to_text(u, indent) == json.dumps(element_to_json(u), indent=indent)
    assert '"entries": []' in element_to_text(cases[0], 2)
    for u in tables:
        for indent in (None, 2):
            assert element_from_text(element_to_text(u, indent)) == u


def _table_encoder_cases(rng) -> list:
    """Elements that reach every part of element_to_text's byte tables."""
    big = 2147483629
    widths = [10**k - 1 for k in range(1, 10)] + [10**k for k in range(10)] + [big - 1]
    spread = np.zeros(math.comb(7, 3), dtype=np.int64)  # every coefficient width up to p - 1
    spread[rng.permutation(len(spread))[:len(widths)]] = widths
    cases = [Element(7, 3, big, spread)]
    for n, b in ((40, 2), (62, 1)):  # members 10 up to 62
        size = math.comb(n, b)
        cases.append(Element(n, b, 5, rng.integers(1, 5, size) * (rng.random(size) < 0.1)))
        cases.append(Element.from_subsets(n, b, 5, {tuple(range(n - b + 1, n + 1)): 4}))
    # m = 1, with no middle member and with three
    cases += [Element.from_subsets(1, 1, 3, {(1,): 2}),
              Element.from_subsets(9, 4, 7, {(2, 3, 5, 9): 6})]
    wide = Element(15, 7, 3, rng.integers(1, 3, math.comb(15, 7)))
    assert len(wide.vec) > tabloid._TEXT_BLOCK  # more than one record array
    return cases + [wide]


def test_element_from_text_round_trip():
    rng = np.random.default_rng(83)
    # no support: the text is json.dumps of the element's dict itself
    empty = [Element.zero(6, 3, 3), Element.zero(1, 1, 3), Element.zero(9, 5, 2147483629)]
    cases = empty + [Element.ones(1, 1, 5), Element.ones(5, 5, 7),
                     Element.ones(4, 2, 2147483629)]
    for _ in range(150):
        n = int(rng.integers(1, 12))
        b = int(rng.integers(1, n + 1))
        p = int(rng.choice([3, 5, 7, 2147483629]))
        size = math.comb(n, b)
        keep = rng.random(size) < rng.random()  # sparse to full support
        cases.append(Element(n, b, p, rng.integers(0, p, size) * keep))
    for u in cases:
        for indent in (None, 2):
            text = element_to_text(u, indent)
            assert tabloid._canonical_element(text + "\n") == u  # decoded in one pass
            assert element_from_text(text) == u


def _decoded(decode, text):
    """decode(text), or the type and message of what it raised."""
    try:
        return decode(text)
    except Exception as exc:
        return type(exc), str(exc)


def _damaged_texts():
    u = Element.from_subsets(5, 2, 3, {(1, 2): 1, (1, 3): 2, (2, 5): 1})
    plain, pretty = element_to_text(u), element_to_text(u, 2)
    doc = element_to_json(u)
    zero = element_to_text(Element.zero(6, 1, 3))
    edits = {  # (old, new) in the plain text
        "coeff leading zero": ('"coeff": 2', '"coeff": 02'),
        "member leading zero": ("[1, 3]", "[1, 03]"),
        "negative coeff": ('"coeff": 2', '"coeff": -1'),
        "float coeff": ('"coeff": 2', '"coeff": 1.0'),
        "bool coeff": ('"coeff": 2', '"coeff": true'),
        "19-digit coeff": ('"coeff": 2', '"coeff": 1000000000000000000'),
        # 257 digits would read as 1 in int8
        "257-digit last coeff": ('"coeff": 1}]', '"coeff": ' + "1" * 257 + "}]"),
        "2**63 coeff": ('"coeff": 2', f'"coeff": {2**63}'),
        "2**63 member": ("[1, 3]", f"[1, {2**63}]"),
        "19-digit modulus": ('"p": 3', '"p": 1000000000000000003'),
        "coeff = p": ('"coeff": 2', '"coeff": 3'),
        "zero coeff": ('"coeff": 2', '"coeff": 0'),
        "duplicate set": ("[1, 3]", "[1, 2]"),
        "unsorted entries": ("[1, 2]", "[1, 4]"),
        "unsorted members": ("[1, 3]", "[3, 1]"),
        "member 0": ("[1, 3]", "[0, 3]"),
        "member n+1": ("[1, 3]", "[1, 6]"),
        "members in [1, n] ranked C(n, b)": ("[2, 5]", "[5, 5]"),
        "a > b swapped": ('"a": 3, "b": 2', '"a": 2, "b": 3'),
        "b = 0": ('"b": 2', '"b": 0'),
        "ground too large": ('"a": 3', '"a": 100'),
        "empty slot": ("[1, 3]", "[, 3]"),
        "empty slot, run moved into a key": ('"a": 3', '"a3": '),
        "extra run in a key": ('"coeff": 2', '"coeff7": 2'),
        "renamed key": ('"coeff": 2', '"coeft": 2'),
        "braces for brackets": ("[1, 3]", "{1, 3}"),
        "extra space": ('"b": 2', '"b":  2'),
        "no space": ('"b": 2', '"b":2'),
        "tab": ('"b": 2', '"b":\t2'),
        "composite modulus": ('"p": 3', '"p": 9'),
        "modulus above 2^31": ('"p": 3', '"p": 2147483659'),
        "non-ASCII key": ('"a": 3', '"\u00e4": 3'),
        "escaped key": ('"a": 3', '"\\u0061": 3'),
    }
    texts = {name: plain.replace(old, new, 1) for name, (old, new) in edits.items()}
    texts.update({
        "plain": plain,
        "pretty": pretty,
        "surrounding whitespace": " \n" + pretty + "\r\n\t",
        "indent 4": json.dumps(doc, indent=4),
        "indent 1": json.dumps(doc, indent=1),
        "tab indent": json.dumps(doc, indent="\t"),
        "pretty without breaks": pretty.replace("\n", " "),
        "reordered keys": json.dumps({k: doc[k] for k in ("a", "p", "b", "entries")}),
        "reordered entry keys": plain.replace('"set": [1, 3], "coeff": 2',
                                              '"coeff": 2, "set": [1, 3]'),
        "extra key": json.dumps({**doc, "note": 1}),
        "extra entry key": plain.replace('"coeff": 2', '"coeff": 2, "w": 1'),
        "missing key": json.dumps({k: doc[k] for k in ("p", "a", "entries")}),
        "zero element": zero,
        "run moved into []": zero.replace('"a": 5', '"a": ').replace("[]", "[5]"),
        "run added to []": zero.replace("[]", "[5]"),
        "trailing garbage": plain + "x",
        "trailing comma": plain[:-2] + ",]}",
        "second document": plain + plain,
        "truncated": plain[:-7],
        "truncated pretty": pretty[:len(pretty) // 2],
        "empty": "",
        "byte order mark": "\ufeff" + plain,
        "lone surrogate": plain.replace('"a"', '"\udcff"'),
        "not an object": "[1, 2, 3]",
        "number": "7",
    })
    return texts


@pytest.mark.parametrize("name", sorted(_damaged_texts()))
def test_element_from_text_matches_json_route(name):
    # the element, or the exception type and message, of json.loads + element_from_json
    text = _damaged_texts()[name]
    want = _decoded(lambda t: element_from_json(json.loads(t)), text)
    assert _decoded(element_from_text, text) == want


def test_canonical_element_takes_only_texts_the_encoder_writes_back():
    texts = _damaged_texts()
    got = {name: tabloid._canonical_element(text) for name, text in texts.items()}
    taken = {name for name, u in got.items() if u is not None}
    assert taken == {"plain", "pretty", "surrounding whitespace", "zero element"}
    for name in taken:
        assert got[name] == element_from_json(json.loads(texts[name])), name


def test_element_from_text_hands_longer_texts_to_json(monkeypatch):
    # the decoder holds byte positions in int32; a longer text takes the json route
    u = Element.from_subsets(5, 2, 3, {(1, 2): 1, (2, 5): 1})
    text = element_to_text(u)
    monkeypatch.setattr(tabloid, "_INT32_MAX", len(text) - 1)
    assert tabloid._canonical_element(text) is None
    assert element_from_text(text) == u


def test_element_from_text_refuses_deep_nesting():
    with pytest.raises(ValueError, match="nested too deeply"):
        element_from_text("[" * 100000 + "]" * 100000)


@settings(max_examples=40)
@given(
    st.integers(min_value=1, max_value=7),
    st.data(),
    st.sampled_from([3, 5]),
)
def test_json_round_trip_random(n, data, p):
    b = data.draw(st.integers(min_value=1, max_value=n))
    vec = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=p - 1),
            min_size=math.comb(n, b),
            max_size=math.comb(n, b),
        )
    )
    u = Element(n, b, p, vec)
    assert element_from_json(element_to_json(u)) == u


def test_numpy_shape_parts_are_stored_as_ints():
    # the element kept numpy n, b and p, so json.dumps of its JSON raised TypeError
    vec = np.arange(10)
    u = Element(np.int64(5), np.int64(2), np.int64(3), vec)
    assert all(type(x) is int for x in (u.n, u.b, u.p))
    assert json.dumps(element_to_json(u)) == json.dumps(element_to_json(Element(5, 2, 3, vec)))
    assert f_lambda(3, 2, np.int64(5)) == f_lambda(3, 2, 5)
    with pytest.raises(ValueError, match="too large for int64 residues"):
        Element(5, 2, np.int64(2147483659), vec)


def test_sizes_and_levels_must_be_ints():
    # bools were read as ints, and floats raised TypeError from math.comb
    # or a comparison; the listings of (1, 1) and (5, 2) are cached first
    vec = np.arange(10)
    subsets_colex(1, 1), subsets_colex(5, 2)
    for call in (lambda: subsets_colex(True, 1), lambda: subsets_colex(5.0, 2),
                 lambda: Element.zero(True, 1, 3), lambda: Element(5.0, 2, 3, vec),
                 lambda: psi_levels(5.0, 2, vec), lambda: psi_levels(5, 2.0, vec),
                 lambda: constant_level_system(5, 2, [True]),
                 lambda: constant_level_system(5, 2, [1.0]),
                 lambda: tabloid._level_element(5, 2, 3, {1.5: 1})):
        with pytest.raises(ValueError, match="must be ints"):
            call()
