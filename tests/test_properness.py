import dataclasses

import numpy as np
import pytest

from mink1.algebra import AlgebraElement
from mink1.catalog import NONPROPER_IDS, PROPER_IDS, build
from mink1.minkowski import BOOST, E1, ROTATION, apply, compose, exp_element
from mink1.properness import (
    WitnessError,
    linear_growth_norm,
    make_witness,
    recovery_test,
    stabilizer_compactness,
    verdict,
)
from mink1.sampling import rng_from_seed

Z3 = np.zeros(3)


def test_verdicts():
    for id_ in PROPER_IDS:
        assert verdict(build(id_)) == "proper"
    for id_ in NONPROPER_IDS:
        assert verdict(build(id_)) == "nonproper"
    assert verdict(build("P-d", beta=1.0)) == "proper"
    assert verdict(build("N-vii", beta=-1.0)) == "nonproper"


def test_witness_for_every_nonproper_family():
    for id_ in NONPROPER_IDS:
        w = make_witness(build(id_))
        norms = [n for _, n in w.certificate]
        assert len(norms) == 20
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert norms[-1] >= 100.0


def test_witness_parameter_sweeps():
    for val in (-2.0, -1.0, 0.5, 1.0, 3.0):
        make_witness(build("N-vii", beta=val))
        make_witness(build("N-x", alpha=1.0, beta=val))
        make_witness(build("N-x", alpha=val, beta=1.0))
    make_witness(build("N-vii", beta=0.0))
    make_witness(build("N-x", beta=0.0))


def test_witness_fixed_points_are_exact_enough():
    for id_ in NONPROPER_IDS:
        entry = build(id_)
        w = make_witness(entry)
        for n in range(1, 21):
            m = exp_element(w.generator, float(n))
            assert np.max(np.abs(apply(m, w.point) - w.point)) < 1e-8


def test_boost_witness_norm_value():
    # entrywise norm of the boost at time 5 is cosh(5)
    w = make_witness(build("N-ix"))
    assert w.certificate[4] == (5, pytest.approx(np.cosh(5.0)))
    assert w.certificate[4][1] == pytest.approx(74.20994852478785)


def test_parabolic_witness_grows_quadratically():
    w = make_witness(build("N-viii"))
    n20 = w.certificate[-1][1]
    assert n20 == pytest.approx(1.0 + 20.0 ** 2 / 2.0)
    assert n20 > 100.0


def test_nvii_witness_point_off_origin():
    entry = build("N-vii", beta=2.0)
    w = make_witness(entry)
    # stabilized points sit on the shifted line x2 = x1 + beta
    assert w.point[1] - w.point[0] == pytest.approx(2.0)
    assert np.allclose(w.generator.X, build("N-vii", beta=2.0).basis.basis[0].X)


def test_witness_rejects_elliptic_generator():
    """An elliptic generator is refused, and so is one whose flow does not
    grow: a translation, growth below the roundoff in the norms, or growth
    too slow to reach the norm floor by n = 20."""
    entry = build("N-i")
    fake = type(entry)(**{**entry.__dict__,
                          "witness_generator": AlgebraElement(ROTATION, Z3)})
    with pytest.raises(WitnessError):
        make_witness(fake)
    for g, message in (
            (AlgebraElement(0 * BOOST, E1), "witness generator has no linear growth"),
            (AlgebraElement(3e-9 * BOOST, Z3), "witness norms are not strictly increasing"),
            (AlgebraElement(0.01 * BOOST, Z3), "witness norm at n=20 is only 1.020")):
        with pytest.raises(WitnessError, match=f"^N-i: {message}$"):
            make_witness(dataclasses.replace(entry, witness_generator=g))


def test_witness_refuses_proper_entry():
    with pytest.raises(WitnessError):
        make_witness(build("P-b"))


def test_stabilizer_compactness_examples():
    assert stabilizer_compactness(build("N-ii").basis, Z3) == "noncompact"
    assert stabilizer_compactness(build("P-b").basis, [5.0, 0.0, 0.0]) == "compact"
    assert stabilizer_compactness(build("P-d", beta=1.0).basis, [1.0, 0.2, 0.3]) == "trivial"
    # full linear group: compact only on the pseudo-hyperbolic sheets
    nxii = build("N-xii").basis
    assert stabilizer_compactness(nxii, [2.0, 0.0, 0.0]) == "compact"
    assert stabilizer_compactness(nxii, [0.0, 0.0, 2.0]) == "noncompact"
    assert stabilizer_compactness(nxii, [1.0, 1.0, 0.0]) == "noncompact"


def test_proper_entries_never_noncompact():
    rng = rng_from_seed(21)
    from mink1.verify import _generic_points, _stratum_points

    for id_ in PROPER_IDS:
        entry = build(id_)
        pts = _generic_points(entry, rng, 150) + _stratum_points(entry, rng, 7)
        for p in pts[:200]:
            assert stabilizer_compactness(entry.basis, p) != "noncompact"


def test_nv_origin_is_fixed_by_the_boost():
    # the half-plane family fixes the spacelike axis pointwise modulo scaling:
    # exp(t * boost) alone fixes (0, 0, 1) with no translation correction
    entry = build("N-v")
    m = exp_element(AlgebraElement(BOOST, Z3), 2.0)
    assert np.allclose(apply(m, [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0])
    w = make_witness(entry)
    assert np.allclose(w.point, 0.0)
    assert np.allclose(w.generator.X, BOOST)


def test_recovery_frozen_example():
    # direct evaluation: t = 2, u = 3 from the zero base point
    entry = build("P-d", sign=1.0, beta=1.0)
    gen_boost, gen_null = entry.basis.basis
    m = compose(exp_element(gen_null, 3.0), exp_element(gen_boost, 2.0))
    Y = apply(m, Z3)
    assert np.allclose(Y, [3.0, 3.0, 2.0])
    t_rec = (Y[2] - 0.0) / 1.0
    u_rec = Y[0] - 0.0 * np.cosh(t_rec) - 0.0 * np.sinh(t_rec)
    assert t_rec == pytest.approx(2.0) and u_rec == pytest.approx(3.0)


def test_recovery_property_runs():
    for sign in (1.0, -1.0):
        for beta in (0.5, 1.0, 2.0):
            rep = recovery_test(build("P-d", sign=sign, beta=beta), seed=9)
            assert rep["passed"], rep
            assert rep["max_error"] < 1e-6
    with pytest.raises(ValueError, match="recovery_test is defined for the P-d family"):
        recovery_test(build("N-i"))


def test_recovery_identity_element():
    entry = build("P-d", beta=1.0)
    gen_boost, gen_null = entry.basis.basis
    X = np.array([0.7, -0.3, 1.1])
    Y = apply(compose(exp_element(gen_null, 0.0), exp_element(gen_boost, 0.0)), X)
    assert np.allclose(Y, X)


def test_growth_norm_is_entrywise_sup():
    A = np.array([[1.0, -7.0, 2.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
    assert linear_growth_norm(A) == 7.0


def test_witness_residual_is_the_flow_residual():
    """`residual` is max |exp(n g) p - p| over n = 1..20, as a second flow gives it."""
    for id_ in NONPROPER_IDS:
        w = make_witness(build(id_))
        flow = exp_element(w.generator, np.arange(1.0, 21.0))
        assert w.residual == float(np.max(np.abs(apply(flow, w.point) - w.point)))


def test_a_witness_point_is_read_only():
    """A witness holds its shared entry's own point, so writing to it raises
    and no later build sees a change."""
    w = make_witness(build("N-i"))
    with pytest.raises(ValueError, match="read-only"):
        w.point[0] = 1.0
    assert np.array_equal(build("N-i").witness_point, Z3)
