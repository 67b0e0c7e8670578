import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spechtdesigns
from spechtdesigns.numtheory import (
    Digits,
    all_binoms_divisible,
    all_binoms_divisible_by_digits,
    binom_mod_p,
    binom_val_p,
    digits_base_p,
    p_adic_length,
    p_adic_val,
    require_odd_prime,
    _is_prime,
)

PRIMES = [3, 5, 7, 11, 13]


def exact_val(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def test_require_odd_prime():
    for p in PRIMES:
        require_odd_prime(p)
    for bad in [-3, 0, 1, 2, 4, 9, 15]:
        with pytest.raises(ValueError):
            require_odd_prime(bad)
    # numpy moduli were refused with "modulus must be an int"
    for p in (np.int64(3), np.int32(5), np.uint16(7)):
        q = require_odd_prime(p)
        assert q == p and type(q) is int
    assert binom_mod_p(5, 2, np.int64(3)) == 1
    for bad in (3.0, True, np.float64(3), "3"):
        with pytest.raises(ValueError, match="must be ints"):
            require_odd_prime(bad)


def _is_prime_by_division(n: int) -> bool:
    """Reference primality by trial division; only for small n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def test_is_prime_matches_trial_division():
    assert [n for n in range(-3, 10**5) if _is_prime(n) != _is_prime_by_division(n)] == []


def test_is_prime_large():
    # strong pseudoprimes to the bases 2..31 and 2..37; base 41 catches them
    for n in (3825123056546413051, 318665857834031151167461):
        assert not _is_prime(n)
    for n in (2147483629, 2**61 - 1, 10**18 + 3):
        assert _is_prime(n)
    assert not _is_prime(1000000000039 * 999999999989)  # no factor below 10^12
    require_odd_prime(10**18 + 3)  # trial division would take minutes


def test_is_prime_above_the_exact_bound():
    # a failed base still proves compositeness past the bound
    assert not _is_prime((2**31 - 1) * (2**61 - 1))
    # passing every base certifies nothing there: the bound itself is a
    # composite strong pseudoprime to all 13 bases, 2^89 - 1 is a prime
    for n in (3317044064679887385961981, 2**89 - 1):
        with pytest.raises(ValueError, match="cannot certify"):
            _is_prime(n)
    with pytest.raises(ValueError, match="cannot certify"):
        require_odd_prime(2**89 - 1)


def test_digits_examples():
    assert digits_base_p(8, 3).digits == (2, 2)
    assert digits_base_p(3, 3).digits == (0, 1)
    assert digits_base_p(0, 5).digits == ()
    d = digits_base_p(8, 3)
    assert d.digit(0) == 2 and d.digit(1) == 2 and d.digit(5) == 0


def test_digits_validation():
    with pytest.raises(ValueError):
        digits_base_p(-1, 3)
    with pytest.raises(ValueError):
        Digits(value=3, base=3, digits=(0, 1, 0))  # trailing zero
    with pytest.raises(ValueError):
        Digits(value=5, base=3, digits=(2, 3))  # digit out of range
    # each was computed on floats before: (0.5, 0.0, 1.0) encodes 9.5
    with pytest.raises(ValueError, match="must be ints"):
        digits_base_p(9.5, 3)
    with pytest.raises(ValueError, match="must be ints"):
        Digits(value=9.5, base=3, digits=(0.5, 0.0, 1.0))


@given(st.integers(min_value=0, max_value=10**9), st.sampled_from(PRIMES))
def test_digits_round_trip(x, p):
    d = digits_base_p(x, p)
    assert sum(c * p**i for i, c in enumerate(d.digits)) == x


def test_p_adic_val_and_length():
    assert p_adic_val(9, 3) == 2
    assert p_adic_val(10, 3) == 0
    assert p_adic_val(45, 3) == 2
    assert p_adic_length(1, 3) == 0
    assert p_adic_length(3, 3) == 1
    assert p_adic_length(10, 3) == 2
    with pytest.raises(ValueError):
        p_adic_val(0, 3)
    for bad in (9.0, True):  # 9.0 had valuation 2
        with pytest.raises(ValueError, match="must be ints"):
            p_adic_val(bad, 3)
        with pytest.raises(ValueError, match="must be ints"):
            p_adic_length(bad, 3)


def test_binom_mod_p_examples():
    assert binom_mod_p(5, 2, 3) == 1  # C(5,2) = 10
    assert binom_mod_p(6, 3, 3) == 2  # C(6,3) = 20
    assert binom_mod_p(4, 2, 3) == 0  # C(4,2) = 6
    assert binom_mod_p(5, 7, 3) == 0  # out of range
    assert binom_mod_p(5, -1, 3) == 0
    assert binom_mod_p(0, 0, 3) == 1
    assert binom_mod_p(np.int64(5), np.int8(2), 3) == 1
    p = 2147483647  # digit binomials from either end: min(kk, mk - kk) multiplications
    for m, k in ((10**5, 99 * 10**3), (10**5, 10**3), (p + 1000, p + 990)):
        assert binom_mod_p(m, k, p) == math.comb(m, k) % p
    assert binom_mod_p(2 * p + 5, p + 3, p) == 2 * 10  # Lucas: C(2, 1) C(5, 3)
    for m, k in ((5.5, 2), (5, 2.0), (True, 1)):  # (5.5, 2) gave 1.5
        with pytest.raises(ValueError, match="must be ints"):
            binom_mod_p(m, k, 3)
        with pytest.raises(ValueError, match="must be ints"):
            binom_val_p(m, k, 3)


# Runs one call in a fresh process and prints its outcome and the seconds it
# took after the imports; the caller's timeout stops a call that hangs.
TIMED_CHILD = """
import sys, time
from spechtdesigns.designs import DesignParams, coefficient_transfer, wilson_exists
from spechtdesigns.numtheory import binom_mod_p
t0 = time.perf_counter()
try:
    print("answer", eval(sys.argv[1]))
except ValueError as exc:
    print("refused", exc)
print(time.perf_counter() - t0)
"""


def test_binomial_calls_answer_or_refuse_quickly():
    # all but the first took seconds or more: one multiplication per unit of a
    # digit of k, and the zero answer waited on its low digit's 2*10**7 of them
    word = 2147483647
    cases = [
        (f"binom_mod_p(10**6, 5*10**5, {word})", "answer"),
        (f"binom_mod_p(10**7, 5*10**6, {word})", "refused C(10000000, 5000000) mod 2147483647 "
                                                 "needs 5000000 multiplications"),
        (f"binom_mod_p(10**8, 5*10**7, {word})", "refused"),
        (f"wilson_exists(10**6, 2*10**5, 10**5, {word})", "refused Wilson's criterion"),
        (f"coefficient_transfer(1, DesignParams(10**8, 10**8 - 1, 5*10**7, {word}), 0)",
         "refused"),
        (f"binom_mod_p(5*10**7 + {word}**2, 2*10**7 + {word}, {word})", "answer 0"),
    ]
    for call, outcome in cases:
        r = subprocess.run(
            [sys.executable, "-c", TIMED_CHILD, call], capture_output=True, text=True,
            timeout=20, cwd=Path(spechtdesigns.__file__).parent.parent,
            env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert r.returncode == 0, r.stderr
        first, seconds = r.stdout.splitlines()
        assert first.startswith(outcome), (call, first)
        assert float(seconds) < 1.0, (call, seconds)


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(PRIMES),
)
def test_binom_mod_p_matches_comb(m, k, p):
    want = math.comb(m, k) % p if 0 <= k <= m else 0
    assert binom_mod_p(m, k, p) == want


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=3000),
    st.integers(min_value=0, max_value=3000),
    st.sampled_from(PRIMES),
)
def test_binom_val_p_matches_exact(m, k, p):
    if not 0 <= k <= m:
        with pytest.raises(ValueError):
            binom_val_p(m, k, p)
        return
    c = math.comb(m, k)
    assert binom_val_p(m, k, p) == exact_val(c, p)


def test_binom_val_vs_mod_consistency():
    # valuation zero exactly when the residue is nonzero
    for m in range(60):
        for k in range(m + 1):
            for p in (3, 5):
                assert (binom_val_p(m, k, p) == 0) == (binom_mod_p(m, k, p) != 0)


def test_all_binoms_divisible_examples():
    # a = 2, b = 1, p = 3: C(3,1) = 3
    assert all_binoms_divisible(2, 1, 3)
    # a = 8, b = 3, p = 3: C(9,1), C(10,2), C(11,3) = 9, 45, 165
    assert all_binoms_divisible(8, 3, 3)
    # a = 5, b = 3, p = 3: C(8,3) = 56 is not divisible
    assert not all_binoms_divisible(5, 3, 3)
    assert not all_binoms_divisible(3, 3, 3)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=400),
    st.sampled_from([3, 5, 7]),
)
def test_digit_shortcut_matches_loop(a, b, p):
    if b > a:
        a, b = b, a
    assert all_binoms_divisible(a, b, p) == all_binoms_divisible_by_digits(a, b, p)


def test_divisibility_edge_cases():
    # empty family is vacuously divisible; the digit form needs b >= 1
    assert all_binoms_divisible(5, 0, 3)
    with pytest.raises(ValueError):
        all_binoms_divisible_by_digits(5, 0, 3)
    with pytest.raises(ValueError):
        all_binoms_divisible(-1, 2, 3)
    with pytest.raises(ValueError, match="must be ints"):
        all_binoms_divisible(8, 2.0, 3)
    with pytest.raises(ValueError, match="must be ints"):
        all_binoms_divisible_by_digits(8.0, 1, 3)

