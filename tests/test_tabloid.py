import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spechtdesigns.linalg import MatFp, MatZ, rank_fp
from spechtdesigns.tabloid import (
    Element,
    Partition2,
    colex_rank,
    element_from_json,
    element_to_json,
    f_lambda,
    h0_dim,
    inclusion_matrix,
    inclusion_stack,
    james_check,
    mask_from_members,
    members_from_mask,
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
    for a, b in [(2, 3), (3, 0), (0, 0), (-1, 1)]:
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


def test_mask_round_trip_examples():
    m = mask_from_members([2, 4, 5], 6)
    assert m == 0b011010
    assert members_from_mask(m) == (2, 4, 5)
    assert colex_rank(m, 6, 3) == int(np.searchsorted(subsets_colex(6, 3), m))
    with pytest.raises(ValueError):
        mask_from_members([0], 6)
    with pytest.raises(ValueError):
        mask_from_members([7], 6)
    with pytest.raises(ValueError):
        mask_from_members([2, 2], 6)
    with pytest.raises(ValueError):
        colex_rank(0b11, 6, 3)  # wrong popcount


@given(st.integers(min_value=1, max_value=14), st.data())
def test_colex_rank_enumerates_in_order(n, data):
    k = data.draw(st.integers(min_value=0, max_value=n))
    arr = subsets_colex(n, k)
    for i in range(len(arr)):
        mask = int(arr[i])
        assert colex_rank(mask, n, k) == i
        assert mask_from_members(members_from_mask(mask), n) == mask


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
    u = Element.from_subsets(4, 2, 3, {(1, 2): 1})
    w = Element.from_subsets(4, 2, 5, {(1, 2): 1})
    with pytest.raises(ValueError):
        u + w


def test_composition_ground_is_allowed():
    # b > n/2 is legal at the element level; partitions are checked elsewhere
    u = Element.ones(4, 3, 3)
    assert u.a == 1
    with pytest.raises(ValueError):
        f_lambda(1, 3, 3)


def test_worked_example_base_block_sums():
    """The (3,3) mod 3 element supported on all 3-subsets of {2..6}."""
    subsets = {}
    for m in range(len(subsets_colex(6, 3))):
        members = members_from_mask(int(subsets_colex(6, 3)[m]))
        if 1 not in members:
            subsets[members] = 1
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


def test_psi_reduces_mod_p():
    u = Element.ones(5, 2, 3)
    # each singleton lies in 4 pairs
    assert (psi(u, 1) == 1).all()
    assert psi(u, 0).tolist() == [10 % 3]


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


def test_inclusion_stack_offsets():
    stack, offsets = inclusion_stack(5, 3, [0, 1, 2])
    assert offsets == [0, 1, 6, 16]
    assert stack.shape == (16, 10)


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
    for bad in bads:
        with pytest.raises(ValueError):
            element_from_json(bad)


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
