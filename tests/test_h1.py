import csv
import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from linalg_reference import constant_space_dim
from spechtdesigns import h1, linalg, tabloid
from spechtdesigns.h1 import (
    H1Report,
    brute_force_h1,
    check_main_theorem,
    classify,
    predicted_h1,
    survey,
    survey_csv,
)
from spechtdesigns.linalg import MatFp, rank_fp
from spechtdesigns.tabloid import constant_level_system, psi_levels, specht_dim


def test_classify_frozen_examples():
    assert classify(3, 3, 3).kind == "pointed"
    assert classify(3, 3, 3).beta == 1 and classify(3, 3, 3).bhat == 0
    assert classify(4, 3, 3).kind == "pointed"
    assert classify(8, 3, 3).kind == "james"
    assert classify(2, 1, 3).kind == "james"
    assert classify(5, 3, 3).kind == "neither"
    assert classify(1, 1, 3).kind == "neither"
    c = classify(11, 10, 3)
    assert c.kind == "pointed" and c.beta == 2 and c.bhat == 1
    assert classify(23, 9, 3).kind == "pointed"
    assert classify(4, 4, 5).kind == "james"
    assert classify(5, 5, 5).kind == "pointed"


def test_classify_boundary_shapes_are_neither():
    """Shapes where p^nu_p(a+1) lies between bhat and b but nu = beta."""
    assert classify(5, 4, 3).kind == "neither"
    assert classify(5, 5, 3).kind == "neither"
    assert classify(14, 4, 3).kind == "neither"


def test_classify_validation():
    with pytest.raises(ValueError):
        classify(2, 3, 3)
    with pytest.raises(ValueError):
        classify(3, 3, 4)
    with pytest.raises(ValueError, match="must be ints"):
        classify(True, True, 3)


def test_classify_json():
    # as text, so the key order is pinned too
    assert json.dumps(classify(3, 3, 3).to_json()) == (
        '{"a": 3, "b": 3, "p": 3, "kind": "pointed", "beta": 1, "bhat": 0}')
    assert json.dumps(classify(8, 3, 3).to_json()) == '{"a": 8, "b": 3, "p": 3, "kind": "james"}'
    assert json.dumps(classify(5, 3, 3).to_json()) == (
        '{"a": 5, "b": 3, "p": 3, "kind": "neither"}')


def test_predicted_h1():
    assert predicted_h1(3, 3, 3) == 1
    assert predicted_h1(8, 3, 3) == 1
    assert predicted_h1(5, 3, 3) == 0


def test_brute_force_pointed_example():
    r = brute_force_h1(3, 3, 3)
    assert r.dim_S == 5
    assert r.dim_D == 7
    assert r.f_in_S is False
    assert r.quotient == 1
    assert r.predicted == 1 and r.match
    assert r.kind == "pointed"


def test_brute_force_james_example():
    r = brute_force_h1(8, 3, 3)
    assert r.dim_S == 110
    assert r.dim_D == 111
    assert r.f_in_S is True
    assert r.quotient == 1 and r.match


def test_brute_force_neither_example():
    r = brute_force_h1(5, 3, 3)
    assert r.dim_D - r.dim_S == 1
    assert r.f_in_S is False
    assert r.quotient == 0 and r.match


def test_boundary_shapes_oracle():
    """Digit arithmetic alone cannot settle these; rank computation does.

    Both shapes have b = p^beta + bhat with bhat below p^nu_p(a+1) but
    nu_p(a+1) equal to beta, and the quotient is zero.
    """
    r = brute_force_h1(5, 4, 3)
    assert (r.dim_S, r.dim_D, r.quotient) == (42, 43, 0)
    assert r.match
    r = brute_force_h1(14, 4, 3)
    assert (r.dim_S, r.dim_D, r.quotient) == (2244, 2245, 0)
    assert r.match


def test_brute_force_budget():
    with pytest.raises(ValueError):
        brute_force_h1(14, 4, 3, budget=1000)


def test_check_main_theorem_small_range():
    assert check_main_theorem(9, (3, 5)) == []


def test_dim_gap_tracks_kind_small():
    for r in survey(9, (3,)):
        gap = 2 if r.kind == "pointed" else 1
        assert r.dim_D - r.dim_S == gap


def test_report_json():
    assert json.dumps(brute_force_h1(3, 3, 3).to_json()) == (
        '{"a": 3, "b": 3, "p": 3, "kind": "pointed", "dim_S": 5, "dim_D": 7, '
        '"f_in_S": false, "quotient": 1, "predicted": 1, "match": true}')


def test_survey_refuses_before_it_solves(monkeypatch):
    # each refusal came only after every shape before it was solved
    solved = []
    real = h1.brute_force_h1
    monkeypatch.setattr(h1, "brute_force_h1", lambda *args, **kw: solved.append(args) or real(*args, **kw))
    with pytest.raises(ValueError, match=r"^C\(15, 6\) = 5005 exceeds the budget of 4000 columns$"):
        survey(15, [3])
    with pytest.raises(ValueError, match="prime >= 3, got 4"):
        survey(14, [3, 4])
    with pytest.raises(ValueError, match="too large"):
        check_main_theorem(6, [3, 2147483659])
    assert solved == []
    assert len(survey(4, [3])) == len(solved) == 4


def test_survey_csv_format():
    reports = survey(7, (3,))
    text = survey_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == [
        "a", "b", "p", "kind", "beta", "bhat", "dim_S", "dim_D",
        "f_in_S", "quotient", "predicted", "match",
    ]
    assert len(rows) == 1 + len(reports)
    assert all(row[11] == "True" for row in rows[1:])
    pointed_rows = [row for row in rows[1:] if row[3] == "pointed"]
    assert pointed_rows and all(row[4] != "" for row in pointed_rows)
    neither_rows = [row for row in rows[1:] if row[3] == "neither"]
    assert all(row[4] == "" and row[5] == "" for row in neither_rows)


def test_pruned_dims_match_full_system():
    # brute_force_h1 and specht_dim eliminate only the kept levels, in place;
    # the system on every level is the reference, and copying ranks of the
    # kept-level system and of its element columns must give the same counts
    for p in (3, 5, 7):
        for n in range(2, 14):
            for b in range(1, n // 2 + 1):
                ncols = math.comb(n, b)
                full_S = ncols - rank_fp(MatFp(constant_level_system(n, b, range(b))[:, :ncols], p))
                kept = MatFp(constant_level_system(n, b, tabloid._kept_levels(b, p)), p)
                total = rank_fp(kept)
                prefix = rank_fp(MatFp(kept.entries[:, :ncols], p))
                r = brute_force_h1(n - b, b, p)
                assert (r.dim_D, r.dim_S) == (constant_space_dim(n, b, p, range(b)), full_S), (n, b, p)
                assert (r.dim_D, r.dim_S) == (kept.shape[1] - total, ncols - prefix), (n, b, p)
                assert specht_dim(n - b, b, p) == full_S, (n, b, p)


def test_orbit_gap_matches_brute_force():
    # |K| minus the scalar pivots of the orbit system on the kept levels K,
    # against brute_force_h1's dim_D - dim_S, read as it reads them off the
    # elimination of the whole kept-level system; neither side calls
    # classify or a digit criterion
    gaps = []
    for p in (3, 5, 7):
        for n in range(2, 14):
            for b in range(1, n // 2 + 1):
                kept = tabloid._kept_levels(b, p)
                system, pivots, e = tabloid._kept_echelon(n, b, p)
                dim_D, dim_S = system.shape[1] - len(pivots), math.comb(n, b) - e
                _, orbit_pivots, orbit_e, _ = tabloid._orbit_echelon(n, b, p, kept)
                assert len(kept) - (len(orbit_pivots) - orbit_e) == dim_D - dim_S, (n, b, p)
                gaps.append(dim_D - dim_S)
    assert len(gaps) == 126 and set(gaps) == {1, 2}


def test_brute_force_holds_one_copy_of_its_system():
    # the peak is the system's one array plus the elimination's own
    # temporaries, measured first on an array built before tracing began, in
    # the oracle's type; a second copy of the system would add a whole
    # system's bytes. The temporaries are 2.53 MB against the 2.70 MB int8
    # system: one column slab of a trailing product, _SLAB_BYTES counted in
    # float32 and int16, and a panel of at most 445 kept rows. Their bound
    # leaves 0.84 MB; a work array over all 1,573 rows below the panel with
    # float64 slabs and an int64 accumulator take 6.36 MB.
    n, b, p = 13, 6, 3
    system = tabloid._level_system(n, b, tabloid._kept_levels(b, p), linalg._narrowest_int(p - 1))
    system %= p
    brute_force_h1(n - b, b, p)  # warm the subset listings
    tracemalloc.start()
    try:
        linalg._eliminate(system, p)
        work = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        brute_force_h1(n - b, b, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert work < 1.25 * system.nbytes, (work, system.nbytes)
    assert peak < 1.25 * system.nbytes + work, (peak, system.nbytes, work)


def test_brute_force_requests_kept_levels(monkeypatch):
    # the oracle lays out its system through the layout code of
    # constant_level_system, in the narrowest type that holds p - 1
    requested = []
    layout = tabloid._level_system

    def record(n, b, levels, dtype):
        requested.append((list(levels), dtype))
        return layout(n, b, levels, dtype)

    monkeypatch.setattr(tabloid, "_level_system", record)
    brute_force_h1(7, 6, 3)
    specht_dim(7, 6, 3)
    assert requested == [([3, 5], np.int8), ([3, 5], np.int8)]


def test_oracle_checks_the_kernel_intersection_count(monkeypatch):
    # dropping kept level 3 of (7, 6, 3) leaves W_{5,6} alone, of 3-rank
    # 1078 (Wilson) where James' theorem needs C(13, 5) = 1287 element pivots
    assert tabloid._kept_echelon(13, 6, 3)[2] == math.comb(13, 5)
    monkeypatch.setattr(tabloid, "_kept_levels", lambda b, p: [5])
    for call in (lambda: brute_force_h1(7, 6, 3), lambda: specht_dim(7, 6, 3)):
        with pytest.raises(AssertionError, match=r"^1078 element pivots .* = 1287 \(a=7, b=6, p=3\)"):
            call()


def test_self_check_errors_name_the_shape(monkeypatch):
    monkeypatch.setattr(h1, "james_check", lambda parts, p: True)
    with pytest.raises(AssertionError, match=r"\(a=5, b=3, p=3\)"):
        brute_force_h1(5, 3, 3)
    # an odd level at every step makes the first division by 2 inexact
    monkeypatch.setattr(tabloid, "_drop_once",
                        lambda n, k, w: np.ones(math.comb(n, k - 1), dtype=w.dtype))
    with pytest.raises(AssertionError, match=r"from level 3 to 2 \(n=6, b=4\)"):
        psi_levels(6, 4, np.ones(math.comb(6, 4), dtype=np.int64))


def test_numpy_arguments_give_the_same_json():
    # numpy parts were stored as given, so json.dumps raised TypeError,
    # and a numpy modulus was refused
    for a, b, p in ((5, 2, 3), (3, 3, 3), (8, 3, 3), (4, 1, 5)):
        args = tuple(map(np.int64, (a, b, p)))
        assert json.dumps(classify(*args).to_json()) == json.dumps(classify(a, b, p).to_json())
        assert (json.dumps(brute_force_h1(*args).to_json())
                == json.dumps(brute_force_h1(a, b, p).to_json()))
    assert classify(5, 2, np.int64(3)) == classify(5, 2, 3)


def test_sizes_and_budgets_must_be_ints():
    # survey(True, [3]) returned [], budget=4000.5 ran, budget=True was read
    # as one column, and 12.5 or None raised TypeError
    for call in (lambda: survey(True, [3]), lambda: survey(12.5, [3]),
                 lambda: survey(5, [3], budget=None),
                 lambda: brute_force_h1(4, 2, 3, budget=4000.5),
                 lambda: brute_force_h1(4, 2, 3, budget=True)):
        with pytest.raises(ValueError, match="must be ints"):
            call()
    assert brute_force_h1(4, 2, 3, budget=np.int64(15)) == brute_force_h1(4, 2, 3)
