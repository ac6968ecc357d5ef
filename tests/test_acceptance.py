"""Acceptance checklist: one test per criterion, each printing its
pass/fail line.  Run with `pytest -s tests/test_acceptance.py` to see
the lines as they complete, or `mink1 verify --suite all` for the same
checks from the command line."""

import pytest

from mink1 import verify

SEED = 42


def _run(fn):
    result = fn(SEED)
    print(verify.format_line(result))
    assert result.passed, f"{result.check_id} failed: {result.detail}"
    return result


def test_criterion_1_catalog_integrity():
    # 16 families construct; every basis bracket-closed below 1e-9; orbit
    # dimension reaches exactly 2 among seeded points and never exceeds 3
    r = _run(verify.check_catalog_integrity)
    assert r.residual < 1e-9


def test_criterion_2_properness_dichotomy():
    # 4 proper / 12 nonproper; witnesses validate across the parameter
    # sweep (fixed-point residual < 1e-8, growth norm >= 100 by n = 20);
    # no proper entry shows a noncompact stabilizer at 200 seeded points
    r = _run(verify.check_properness_dichotomy)
    assert r.residual < 1e-8


def test_criterion_3_recovery_formulas():
    # 100 seeded trials per parameter value recover (t, u) to 1e-6
    r = _run(verify.check_recovery)
    assert r.residual < 1e-6


def test_criterion_4_shape_operator():
    # double eigenvalue 0 (|lambda| < 1e-12) with one-dimensional
    # eigenspace at 20 sampled points per parameter value; on the
    # degenerate stratum the normal is the null direction to 1e-8
    _run(verify.check_shape_operator)


def test_criterion_5_orbit_inventories():
    # expected (dimension, causal character, class) tables at 100 seeded
    # generic points plus targeted stratum points; invariants conserved
    # to 1e-8 (1e-12 for the spacelike-plane family); stabilizers of the
    # degenerate-plane foliation conjugate to the null rotation to 1e-8
    r = _run(verify.check_orbit_inventories)
    assert r.residual < 1e-8


def test_criterion_6_eq1_dichotomy():
    # positive / negative discriminant at 100 spacelike / timelike seeded
    # points; closed form matches the finite-difference norm to 1e-7
    r = _run(verify.check_eq1_dichotomy)
    assert r.residual < 1e-7


def test_criterion_7_classifier_round_trip():
    # all 16 ids x 50 seeded conjugators; parameters recovered to 1e-6
    # after the documented normalization; both probes rejected with the
    # correct reason codes
    r = _run(verify.check_classifier_round_trip)
    assert r.residual < 1e-6


def test_criterion_8_numerics_cross_validation():
    # closed vs series exponentials to 1e-10 on all catalog generators
    # for |t| <= 5; rotation period 2*pi to 1e-9; Jacobi residual below
    # 1e-10 on 200 seeded triples
    r = _run(verify.check_exponential_cross_validation)
    assert r.residual < 1e-9
