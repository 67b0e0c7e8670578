"""Classification of two-row partitions mod p and brute-force H^1 dimension.

classify() sorts (a, b) into three kinds by digit arithmetic alone. The
brute-force route computes the same answer from nothing but ranks of
inclusion matrices: the space of elements with every level constant,
modulo the kernel of all levels and the span of the all-ones element.
It eliminates only the levels that the composition identity
W_{s,t} W_{t,b} = C(b-s, t-s) W_{s,b} does not imply, testing the
binomials with exact integers and never with the digit criteria.
check_main_theorem() sweeps a range and reports any disagreement between
the two. A system whose byte estimate passes tabloid._MAX_BYTES (256 MiB,
every n <= 16 for p <= 127) is refused before it is allocated.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from .linalg import _require_word_prime
from .numtheory import (
    _require_ints,
    all_binoms_divisible_by_digits,
    p_adic_length,
    p_adic_val,
    require_odd_prime,
)
from .tabloid import (
    Partition2,
    _kept_echelon,
    _kept_levels,
    _require_system,
    f_lambda,
    james_check,
    specht_membership,
)

__all__ = [
    "Classification",
    "H1Report",
    "classify",
    "predicted_h1",
    "brute_force_h1",
    "check_main_theorem",
    "survey",
    "survey_csv",
]


def _fields_json(report) -> dict:
    """A report dataclass's fields by name, in field order."""
    return {f.name: getattr(report, f.name) for f in fields(report)}


@dataclass(frozen=True, slots=True)
class Classification:
    """Kind of (a, b) mod p: "james", "pointed", or "neither".

    For the pointed kind, beta is the leading digit position of b and
    bhat = b - p^beta is the index of the isolated level.
    """

    a: int
    b: int
    p: int
    kind: str
    beta: int | None = None
    bhat: int | None = None

    def to_json(self) -> dict:
        """The fields, without beta and bhat unless set (bhat may be 0)."""
        return {k: v for k, v in _fields_json(self).items() if v is not None}


def classify(a: int, b: int, p: int) -> Classification:
    """Classify the partition (a, b) mod p.

    james: every C(a+j, j) for 1 <= j <= b vanishes mod p, tested by the
    digit criterion a = -1 mod p^(beta+1) in O(log b).
    pointed: not james, and with beta the leading digit position of b,
    bhat = b - p^beta and nu = nu_p(a+1): the leading digit of b is 1,
    bhat < p^nu, and nu < beta.
    neither: everything else.
    """
    Partition2(a, b)
    a, b, p = int(a), int(b), require_odd_prime(p)
    if all_binoms_divisible_by_digits(a, b, p):
        return Classification(a, b, p, "james")
    beta = p_adic_length(b, p)
    bhat = b - p**beta
    nu = p_adic_val(a + 1, p)
    if bhat < p**beta and bhat < p**nu and nu < beta:
        return Classification(a, b, p, "pointed", beta=beta, bhat=bhat)
    return Classification(a, b, p, "neither")


def predicted_h1(a: int, b: int, p: int) -> int:
    """Predicted dimension of the quotient: 1 for james and pointed, else 0."""
    return 0 if classify(a, b, p).kind == "neither" else 1


@dataclass(frozen=True, slots=True)
class H1Report:
    """Brute-force result next to the digit-arithmetic prediction."""

    a: int
    b: int
    p: int
    kind: str
    dim_S: int
    dim_D: int
    f_in_S: bool
    quotient: int
    predicted: int

    @property
    def match(self) -> bool:
        return self.quotient == self.predicted

    def to_json(self) -> dict:
        return {**_fields_json(self), "match": self.match}


def brute_force_h1(a: int, b: int, p: int) -> H1Report:
    """Compute the quotient dimension by rank alone.

    D = {u : psi_v(u) constant for v = 0..b-1} contains both the kernel
    of all levels (dim_S) and the all-ones element f. The quotient is
    dim D - dim_S minus one more when f itself is outside the kernel.
    Both ranks come from the one in-place elimination of _kept_echelon:
    its pivots among the first C(n, b) columns give the kernel rank. The
    system holds only the levels in _kept_levels(b, p):
    constancy (or vanishing) there forces it at every level, so both
    dimensions equal the full system's.
    """
    Partition2(a, b)
    a, b, p = int(a), int(b), _require_word_prime(p)
    n = a + b
    system, pivots, e = _kept_echelon(n, b, p)
    dim_D = system.shape[1] - len(pivots)
    dim_S = math.comb(n, b) - e
    f_in_S = specht_membership(f_lambda(a, b, p))
    if f_in_S != james_check((a, b), p):
        raise AssertionError(f"membership of the all-ones element disagrees with "
                             f"the digit criterion on (a={a}, b={b}, p={p})")
    quotient = dim_D - dim_S - (0 if f_in_S else 1)
    cls = classify(a, b, p)
    return H1Report(
        a, b, p, cls.kind, dim_S, dim_D, f_in_S, quotient, predicted_h1(a, b, p)
    )


def survey(n_max: int, primes) -> list[H1Report]:
    """Brute-force reports for every (a, b) with a + b <= n_max, each prime.

    The primes, then every system in sweep order, are checked before the
    first solve, so a refusal comes at once, not after every shape before
    it is solved, and names the system the sweep would have stopped at.
    """
    _require_ints((n_max,), "shape sizes")
    primes = [_require_word_prime(p) for p in primes]
    for p in primes:
        for a, b in _shapes(n_max):
            _require_system(a + b, b, _kept_levels(b, p), p)
    return [brute_force_h1(a, b, p) for p in primes for a, b in _shapes(n_max)]


def _shapes(n_max: int):
    """Every (a, b) with a >= b >= 1 and a + b <= n_max, in sweep order."""
    for n in range(2, n_max + 1):
        for b in range(1, n // 2 + 1):
            yield n - b, b


def check_main_theorem(n_max: int, primes) -> list[H1Report]:
    """Reports where brute force contradicts the classification.

    A report is a discrepancy when the quotient misses the prediction or
    when dim_D - dim_S is not 2 for pointed and 1 otherwise. Empty list
    means full agreement over the range.
    """
    bad = []
    for r in survey(n_max, primes):
        gap = 2 if r.kind == "pointed" else 1
        if not r.match or r.dim_D - r.dim_S != gap:
            bad.append(r)
    return bad


def survey_csv(reports) -> str:
    """Render reports as CSV with the columns of Classification, then H1Report's
    others and match; beta and bhat blank unless pointed."""
    buf = io.StringIO()
    names = [f.name for f in fields(Classification)]
    names += [f.name for f in fields(H1Report) if f.name not in names] + ["match"]
    w = csv.DictWriter(buf, names, lineterminator="\n")
    w.writeheader()
    for r in reports:
        c = classify(r.a, r.b, r.p)
        w.writerow({**r.to_json(), "beta": c.beta, "bhat": c.bhat})
    return buf.getvalue()
