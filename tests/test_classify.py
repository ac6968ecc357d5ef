import numpy as np
import pytest

from mink1.algebra import AlgebraElement, SubalgebraSpec, adjoint_spec
from mink1.catalog import CATALOG_IDS, build
from mink1.classify import (
    Classification,
    REASON_NOT_COHOMOGENEITY_ONE,
    REASON_NOT_SUBALGEBRA,
    REASON_UNMATCHED,
    Rejection,
    classify,
    signature,
    standardize_linear,
)
from mink1.minkowski import (
    BOOST,
    E1,
    E2,
    E3,
    ETA,
    NULL_MINUS,
    NULL_PLUS,
    NULL_ROTATION,
    ROTATION,
    Motion,
)
from mink1.sampling import random_motion, rng_from_seed
from mink1.verify import _ROUND_TRIP_VARIANTS, normalized_params

Z3 = np.zeros(3)
Z33 = np.zeros((3, 3))


def el(X, v):
    return AlgebraElement(np.asarray(X, float), np.asarray(v, float))


def test_signature_examples():
    sig = signature(build("P-b").basis)
    assert (sig.dim_g, sig.dim_l, sig.linear_type, sig.dim_ker_l, sig.ker_causal) == (
        2, 1, "elliptic", 1, "timelike")
    sig = signature(build("N-viii").basis)
    assert (sig.dim_g, sig.dim_l, sig.linear_type, sig.dim_ker_l, sig.ker_causal) == (
        3, 1, "parabolic", 2, "degenerate")
    sig = signature(build("N-ix").basis)
    assert (sig.dim_g, sig.dim_l, sig.linear_type, sig.dim_ker_l) == (
        2, 2, "two-dim-solvable", 0)
    sig = signature(build("N-iii").basis)
    assert sig.eigen_sign == 1.0
    sig = signature(build("N-iv").basis)
    assert sig.eigen_sign == -1.0


def test_signature_rejects_non_subalgebra():
    bad = SubalgebraSpec((el(BOOST, Z3), el(ROTATION, Z3)))
    with pytest.raises(ValueError):
        signature(bad)


def test_signature_distinguishes_all_entries():
    seen = {}
    for id_ in CATALOG_IDS:
        entry = build(id_)
        sig = signature(entry.basis)
        beta = entry.params.get("beta", 0.0)
        key = (sig.dim_l, sig.linear_type, sig.dim_ker_l, sig.ker_causal,
               sig.eigen_sign, bool(abs(beta) > 0) and id_ in ("P-d",))
        # the P-a planes share an id; everything else is separated
        assert key not in seen or seen[key] == id_, (key, seen.get(key), id_)
        seen[key] = id_


def test_signature_conjugation_invariance():
    rng = rng_from_seed(0)
    for id_ in CATALOG_IDS:
        entry = build(id_)
        base = signature(entry.basis)
        for _ in range(50):
            g = random_motion(rng)
            sig = signature(adjoint_spec(g, entry.basis))
            assert sig.dim_g == base.dim_g
            assert sig.dim_l == base.dim_l
            assert sig.linear_type == base.linear_type
            assert sig.dim_ker_l == base.dim_ker_l
            assert sig.ker_causal == base.ker_causal
            assert sig.eigen_sign == base.eigen_sign


def test_standardize_linear_fixed_points():
    C, lam = standardize_linear(BOOST)
    assert lam == pytest.approx(1.0)
    assert np.allclose(C, np.eye(3), atol=1e-12)
    C, lam = standardize_linear(2.0 * ROTATION)
    assert lam == pytest.approx(2.0)
    assert np.allclose(C, np.eye(3), atol=1e-12)
    C, lam = standardize_linear(NULL_ROTATION)
    assert lam == pytest.approx(1.0)


def test_standardize_linear_round_trips():
    rng = rng_from_seed(1)
    refs = {"elliptic": ROTATION, "hyperbolic": BOOST, "parabolic": NULL_ROTATION}
    for kind, ref in refs.items():
        for _ in range(20):
            A = random_motion(rng).A
            X = A @ ref @ np.linalg.inv(A)
            C, lam = standardize_linear(X)
            Ci = ETA @ C.T @ ETA
            assert np.max(np.abs(Ci @ X @ C - lam * ref)) < 1e-8
            # the conjugator is itself a motion of the identity component
            Motion(C, Z3)
    with pytest.raises(ValueError):
        standardize_linear(Z33)


def test_standardize_hyperbolic_positive_factor():
    rng = rng_from_seed(2)
    for _ in range(20):
        A = random_motion(rng).A
        for Y in (A @ BOOST @ np.linalg.inv(A), -A @ BOOST @ np.linalg.inv(A)):
            _, lam = standardize_linear(Y)
            assert lam > 0


def test_classify_removes_rotation_offsets():
    # a rotation generator decorated with removable e2/e3 components:
    # completing the square recenters the axis
    spec = SubalgebraSpec((el(ROTATION, 0.4 * E1 + 0.7 * E2 - 1.3 * E3),
                           el(Z33, E1)))
    res = classify(spec)
    assert isinstance(res, Classification) and res.id == "P-b"
    assert np.allclose(res.conjugator.A, np.eye(3))
    moved = adjoint_spec(res.conjugator, spec)
    gen = next(e for e in moved.basis if np.max(np.abs(e.X)) > 1e-9)
    # what remains lies along the kernel direction e1
    assert abs(gen.v[1]) < 1e-12 and abs(gen.v[2]) < 1e-12


def test_classify_keeps_genuine_parameters():
    # a catalog-form spec is a fixed point and the screw parameter survives
    entry = build("P-d", beta=1.5)
    res = classify(entry.basis)
    assert isinstance(res, Classification) and res.id == "P-d"
    assert np.max(np.abs(res.conjugator.a)) < 1e-12
    moved = adjoint_spec(res.conjugator, entry.basis)
    gen = next(e for e in moved.basis if np.max(np.abs(e.X)) > 1e-9)
    assert gen.v[2] == pytest.approx(1.5)
    assert res.params["beta"] == pytest.approx(1.5)


def test_classify_catalog_bases_directly():
    for id_ in CATALOG_IDS:
        entry = build(id_)
        res = classify(entry.basis)
        assert isinstance(res, Classification), (id_, res)
        assert res.id == id_
        assert res.residual < 1e-9
    # a huge parameter beside unit entries: membership is decided on
    # rows scaled to unit max-abs, so the size cannot break closure
    for id_, params in (("P-d", {"beta": 1e300}), ("P-d", {"sign": -1, "beta": -1e300}),
                        ("N-x", {"alpha": 1e300})):
        res = classify(build(id_, **params).basis)
        assert isinstance(res, Classification), (id_, params, res)
        assert res.id == id_


def test_classify_round_trip_subset():
    rng = rng_from_seed(3)
    for id_ in CATALOG_IDS:
        for params in _ROUND_TRIP_VARIANTS.get(id_, ({},)):
            entry = build(id_, **params)
            expect = normalized_params(id_, entry.params)
            for _ in range(6):
                g = random_motion(rng)
                res = classify(adjoint_spec(g, entry.basis))
                assert isinstance(res, Classification), (id_, params, res)
                assert res.id == id_
                assert res.residual < 1e-6
                for key, val in expect.items():
                    if isinstance(val, str):
                        assert res.params[key] == val
                    else:
                        assert res.params[key] == pytest.approx(val, abs=1e-6)


def test_classify_conjugator_certificate():
    # the returned motion really carries the input onto the catalog span
    from mink1.algebra import span_residual

    rng = rng_from_seed(4)
    entry = build("N-x", alpha=1.0, beta=2.0)
    g = random_motion(rng)
    moved = adjoint_spec(g, entry.basis)
    res = classify(moved)
    assert isinstance(res, Classification)
    target = build(res.id, **res.params)
    back = adjoint_spec(res.conjugator, moved)
    for e in target.basis.basis:
        assert span_residual(back, e) < 1e-6


def test_classify_separates_the_twins():
    rng = rng_from_seed(5)
    for id_plus, id_minus in (("N-iii", "N-iv"), ("N-v", "N-vi")):
        for _ in range(5):
            g = random_motion(rng)
            assert classify(adjoint_spec(g, build(id_plus).basis)).id == id_plus
            assert classify(adjoint_spec(g, build(id_minus).basis)).id == id_minus
    # the twins are conjugate to each other (the half-turn swaps the spans),
    # so no basis-free invariant separates them; the id tracks the
    # orientation of the supplied boost generator.  Conjugation transports
    # that orientation, keeping the id stable:
    half_turn = Motion(np.diag([1.0, -1.0, -1.0]), Z3)
    moved = adjoint_spec(half_turn, build("N-iii").basis)
    assert classify(moved).id == "N-iii"
    # while flipping the generator inside the *same* span flips the twin:
    flipped = SubalgebraSpec((el(-BOOST, Z3), el(Z33, NULL_PLUS), el(Z33, E3)))
    assert classify(flipped).id == "N-iv"


def test_classify_pd_sign_and_beta():
    rng = rng_from_seed(6)
    for sign in (1.0, -1.0):
        entry = build("P-d", sign=sign, beta=-1.25)
        for _ in range(5):
            g = random_motion(rng)
            res = classify(adjoint_spec(g, entry.basis))
            assert res.id == "P-d"
            assert res.params["sign"] == sign
            assert res.params["beta"] == pytest.approx(-1.25, abs=1e-8)


def test_classify_normalizes_nvii_beta_away():
    # the translation parameter is removable by conjugation
    rng = rng_from_seed(7)
    entry = build("N-vii", beta=3.5)
    res = classify(adjoint_spec(random_motion(rng), entry.basis))
    assert res.id == "N-vii"
    assert res.params["beta"] == 0.0


def test_classify_rejections():
    bad = SubalgebraSpec((el(BOOST, Z3), el(ROTATION, Z3)))
    res = classify(bad)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_NOT_SUBALGEBRA

    lonely = SubalgebraSpec((el(ROTATION, E3),))
    res = classify(lonely)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_NOT_COHOMOGENEITY_ONE

    transitive = SubalgebraSpec(
        (el(BOOST, Z3), el(ROTATION, Z3), el(NULL_ROTATION, Z3),
         el(Z33, E1), el(Z33, E2), el(Z33, E3)))
    res = classify(transitive)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_NOT_COHOMOGENEITY_ONE

    one_line = SubalgebraSpec((el(Z33, E3),))
    res = classify(one_line)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_NOT_COHOMOGENEITY_ONE

    # the solvable linear group over all translations is transitive
    solvable_affine = SubalgebraSpec(
        (el(BOOST, Z3), el(NULL_ROTATION, Z3), el(Z33, E1), el(Z33, E2), el(Z33, E3)))
    res = classify(solvable_affine)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_NOT_COHOMOGENEITY_ONE


def test_classify_unmatched_keeps_signature():
    # a skew parabolic decoration that is bracket-closed and acts with
    # 2-dimensional orbits everywhere, but belongs to no catalog family
    skew = SubalgebraSpec((el(NULL_ROTATION, NULL_MINUS), el(Z33, NULL_PLUS)))
    from mink1.algebra import is_subalgebra

    assert is_subalgebra(skew)
    res = classify(skew)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_UNMATCHED
    assert res.signature is not None
    assert res.signature.linear_type == "parabolic"


def test_classify_handles_recombined_bases():
    # arbitrary invertible recombinations preserve the span; the id may at
    # most move inside a twin pair (the recombination can flip the
    # orientation of the leading generator)
    from mink1.algebra import element_from_coords

    twins = {"N-iii": {"N-iii", "N-iv"}, "N-iv": {"N-iii", "N-iv"},
             "N-v": {"N-v", "N-vi"}, "N-vi": {"N-v", "N-vi"}}
    rng = rng_from_seed(8)
    for id_ in CATALOG_IDS:
        entry = build(id_)
        spec = adjoint_spec(random_motion(rng), entry.basis)
        for _ in range(6):
            k = spec.dim
            M = rng.uniform(-1.5, 1.5, (k, k))
            if abs(np.linalg.det(M)) < 0.3:
                continue
            mixed = SubalgebraSpec(
                tuple(element_from_coords(c) for c in M @ spec.coords_matrix))
            res = classify(mixed)
            assert isinstance(res, Classification), (id_, res)
            assert res.id in twins.get(id_, {id_})
            assert res.residual < 1e-6


def test_classify_never_crashes_on_random_spans():
    from mink1.sampling import random_algebra_element

    rng = rng_from_seed(9)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        try:
            spec = SubalgebraSpec(tuple(random_algebra_element(rng, 1.5)
                                        for _ in range(k)))
        except ValueError:
            continue
        res = classify(spec)
        assert isinstance(res, (Classification, Rejection))
    # conjugated catalog bases far from unit size: the fixed tolerances may
    # reject them, but classify answers instead of raising
    for id_ in CATALOG_IDS:
        spec = adjoint_spec(random_motion(rng), build(id_).basis)
        for k in (-10, -6, -3, 3, 6):
            scaled = SubalgebraSpec(tuple(AlgebraElement(10.0 ** k * e.X, 10.0 ** k * e.v)
                                          for e in spec.basis))
            res = classify(scaled)
            assert isinstance(res, (Classification, Rejection)), (id_, k)


def test_classify_unmatched_open_orbit_extension():
    # timelike-plane motions decorated with a transverse screw translation:
    # closed under the bracket but transitive, hence not in the catalog
    decorated = SubalgebraSpec((el(BOOST, E3), el(Z33, E1), el(Z33, E2)))
    res = classify(decorated)
    assert isinstance(res, Rejection)
    assert res.reason == REASON_UNMATCHED
