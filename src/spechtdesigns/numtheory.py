"""Base-p digit arithmetic: valuations, Lucas residues, Kummer carry counts.

Everything in this module is plain exact integer arithmetic. The binomial
residue and valuation functions work digit by digit, so they stay cheap even
when the binomial itself would have thousands of digits. Every argument must
be an int or a numpy integer: floats and bools are refused by _require_ints,
the one int check of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Digits",
    "require_odd_prime",
    "digits_base_p",
    "p_adic_val",
    "p_adic_length",
    "binom_mod_p",
    "binom_val_p",
    "all_binoms_divisible",
    "all_binoms_divisible_by_digits",
]


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT = 3317044064679887385961981

# Most multiplications binom_mod_p makes in one call: about a second with a
# prime just under 2^31, at about 0.5 us each (CPython 3.11, 2-core x86 host).
_MAX_BINOM_STEPS = 1 << 21


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin.

    At or above _MR_EXACT a failed base still proves n composite, but
    passing every base proves nothing, so that case raises ValueError.
    """
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT:
        raise ValueError(f"cannot certify primality above 3.317*10^24: {n} passes "
                         f"every Miller-Rabin base")
    return True


def _require_ints(xs, what: str) -> None:
    """Refuse, naming the first, any item that is not an int or a numpy
    integer; bools, ints to Python, are refused too."""
    for x in xs:  # the exact-int test first, which passes most items fastest
        if type(x) is not int and (not isinstance(x, (int, np.integer)) or isinstance(x, bool)):
            raise ValueError(f"{what} must be ints, got {x!r}")


def _int_vector(x, what: str) -> np.ndarray:
    """x as is if an int or uint ndarray, else as an object array checked by
    _require_ints, since numpy reads True as 1 and ints past int64 as floats."""
    arr = np.asarray(x)
    if arr.dtype.kind not in "iu" or not isinstance(x, np.ndarray):
        arr = np.asarray(x, dtype=object)
        _require_ints(arr.flat, what)
    return arr


def require_odd_prime(p: int) -> int:
    """Validate an odd prime modulus p >= 3 and return it as an int."""
    _require_ints((p,), "moduli")
    p = int(p)
    if p < 3 or not _is_prime(p):
        raise ValueError(f"modulus must be a prime >= 3, got {p}")
    return p


@dataclass(frozen=True, slots=True)
class Digits:
    """Little-endian base-p digits of a nonnegative integer.

    The digit list carries no trailing zeros, so it is empty exactly when
    value == 0 and its last entry is nonzero otherwise.
    """

    value: int
    base: int
    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        _require_ints((self.value, self.base, *self.digits), "digit fields")
        if self.digits and self.digits[-1] == 0:
            raise ValueError("digit tuple has a trailing zero")
        if any(not 0 <= d < self.base for d in self.digits):
            raise ValueError(f"digits out of range for base {self.base}")
        if sum(d * self.base**i for i, d in enumerate(self.digits)) != self.value:
            raise ValueError("digits do not encode the stated value")

    def digit(self, i: int) -> int:
        """Digit at position i, zero beyond the stored length."""
        return self.digits[i] if 0 <= i < len(self.digits) else 0

    def __len__(self) -> int:
        return len(self.digits)


def digits_base_p(a: int, p: int) -> Digits:
    """Base-p expansion of a >= 0, least significant digit first."""
    p = require_odd_prime(p)
    _require_ints((a,), "digit expansion input")
    if a < 0:
        raise ValueError(f"expected a nonnegative integer, got {a}")
    ds = []
    x = a
    while x:
        x, r = divmod(x, p)
        ds.append(r)
    return Digits(value=a, base=p, digits=tuple(ds))


def p_adic_val(a: int, p: int) -> int:
    """Largest e with p^e dividing a, for a >= 1."""
    p = require_odd_prime(p)
    _require_ints((a,), "valuation input")
    if a < 1:
        raise ValueError(f"valuation needs a positive integer, got {a}")
    e = 0
    while a % p == 0:
        a //= p
        e += 1
    return e


def p_adic_length(a: int, p: int) -> int:
    """Position of the leading base-p digit of a >= 1 (so p^l <= a < p^(l+1))."""
    p = require_odd_prime(p)
    if a < 1:
        raise ValueError(f"digit length needs a positive integer, got {a}")
    return len(digits_base_p(a, p)) - 1


def binom_mod_p(m: int, k: int, p: int) -> int:
    """C(m, k) mod p by Lucas: the product of digitwise binomials.

    Returns 0 for k outside [0, m], matching the usual convention, and
    when some base-p digit of k exceeds that of m, before any digit is
    multiplied out. A digit binomial C(mk, kk) takes min(kk, mk - kk)
    multiplications; a call needing more than _MAX_BINOM_STEPS in all is
    refused before the first.
    """
    p = require_odd_prime(p)
    _require_ints((m, k), "binomial arguments")
    if m < 0:
        raise ValueError(f"expected a nonnegative top argument, got {m}")
    if k < 0 or k > m:
        return 0
    pairs = []  # (mk, the shorter of kk and mk - kk) per digit of k
    top, low = m, k
    while low:
        top, mk = divmod(top, p)
        low, kk = divmod(low, p)
        if kk > mk:
            return 0
        pairs.append((mk, min(kk, mk - kk)))
    steps = sum(kk for _, kk in pairs)
    if steps > _MAX_BINOM_STEPS:
        raise ValueError(f"C({m}, {k}) mod {p} needs {steps} multiplications, "
                         f"over the limit of {_MAX_BINOM_STEPS}")
    out = 1
    for mk, kk in pairs:
        # digit binomial stays below p^2, fine for machine ints
        num, den = 1, 1
        for i in range(kk):
            num = num * (mk - i) % p
            den = den * (i + 1) % p
        out = out * num * pow(den, p - 2, p) % p
    return out


def binom_val_p(m: int, k: int, p: int) -> int:
    """p-adic valuation of C(m, k) by Kummer: carries when adding k + (m-k)."""
    p = require_odd_prime(p)
    _require_ints((m, k), "binomial arguments")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m, got k={k}, m={m}")
    return _carries(k, m - k, p)


def _carries(x: int, y: int, p: int) -> int:
    """Carries when adding x + y in base p, unchecked: x, y >= 0 and p prime
    are the caller's to ensure. By Kummer this is the valuation of C(x+y, x)."""
    carries = 0
    carry = 0
    while x or y or carry:
        s = x % p + y % p + carry
        carry = 1 if s >= p else 0
        carries += carry
        x //= p
        y //= p
    return carries


def all_binoms_divisible(a: int, b: int, p: int) -> bool:
    """Whether p divides C(a+j, j) for every 1 <= j <= b.

    Ground truth by direct loop, O(b) calls to binom_mod_p. Callers should
    use the O(log b) digit form below; the tests cross-check the two.
    """
    p = require_odd_prime(p)
    _require_ints((a, b), "shape arguments")
    if a < 0 or b < 0:
        raise ValueError(f"need nonnegative a, b; got a={a}, b={b}")
    return all(binom_mod_p(a + j, j, p) == 0 for j in range(1, b + 1))


def all_binoms_divisible_by_digits(a: int, b: int, p: int) -> bool:
    """Digit criterion for the same family: a = -1 mod p^(l_p(b)+1), b >= 1."""
    p = require_odd_prime(p)
    _require_ints((a, b), "shape arguments")
    if a < 0 or b < 1:
        raise ValueError(f"need a >= 0 and b >= 1; got a={a}, b={b}")
    return (a + 1) % p ** (p_adic_length(b, p) + 1) == 0
