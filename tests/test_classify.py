import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mink1.algebra import (AlgebraElement, SubalgebraSpec, _row_space, adjoint_spec,
                           closure_residual)
from mink1.catalog import CATALOG_IDS, build
from mink1.classify import (
    Classification,
    REASON_NOT_COHOMOGENEITY_ONE,
    REASON_NOT_SUBALGEBRA,
    REASON_UNMATCHED,
    Rejection,
    classify,
    classify_stack,
    _targets,
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


def test_classify_normalizes_a_rescaled_basis_with_a_misread_generator():
    # a conjugated N-viii basis scaled by 1e3 whose parabolic generator
    # read as elliptic at that size, so that the frame's second vector came
    # out timelike (seed 17) or null (seed 44): rows normalized by powers
    # of two read it as parabolic, and the basis classifies; the pytest
    # configuration turns a RuntimeWarning from a square root into a failure
    for seed, draw in ((17, 12), (44, 18)):
        rng = rng_from_seed(seed)
        for _ in range(draw):
            g = random_motion(rng)
        moved = adjoint_spec(g, build("N-viii").basis)
        spec = SubalgebraSpec(tuple(el(1e3 * e.X, 1e3 * e.v) for e in moved.basis))
        res = classify(spec)
        assert isinstance(res, Classification) and res.id == "N-viii", (seed, res)


def test_a_span_at_the_membership_cut_answers_without_raising():
    """{(s BOOST + diag(d, 0, 0), 0), (s NULL_ROTATION + diag(0, d, 0), 0)},
    d = 0.99e-9 s: each generator passes so(1,2) membership, their bracket
    does not.  `classify` answers at both scales (at s = 1.5 through its
    bracket-membership rejection), while `closure_residual` raises.  The
    verdict itself still depends on s, so it is left unpinned."""
    for s in (1.0, 1.5):
        d = 0.99e-9 * s
        spec = SubalgebraSpec((el(s * BOOST + np.diag([d, 0.0, 0.0]), Z3),
                               el(s * NULL_ROTATION + np.diag([0.0, d, 0.0]), Z3)))
        assert isinstance(classify(spec), (Classification, Rejection)), s
        with pytest.raises(ValueError, match="isometry-algebra membership"):
            closure_residual(spec)


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


# ---------------------------------------------------------------------------
# the stacked entry and power-of-two normalization

def _row(X, v):
    return np.concatenate([np.ravel(X), v])


def _near_parabolic(delta):
    """A hyperbolic generator within delta of NULL_ROTATION, beside its
    spacelike axis: bracket-closed, but hard to standardize."""
    X = NULL_ROTATION + delta * BOOST
    return [_row(X, Z3), _row(Z33, [X[1, 2], X[0, 2], -X[0, 1]])]


# rows of one dimension that fail each way, beside conjugated catalog
# bases; the last is rejected as unmatched when its standardizing frame
# turns out not to be an isometry
_FAILING = {
    2: {"not-a-subalgebra": [_row(BOOST, Z3), _row(ROTATION, Z3)],
        "unmatched": [_row(NULL_ROTATION, NULL_MINUS), _row(Z33, NULL_PLUS)],
        "linear part is not an isometry": _near_parabolic(1e-4)},
    3: {"not-a-subalgebra": [_row(BOOST, Z3), _row(ROTATION, Z3), _row(Z33, E1)],
        "not-cohomogeneity-one": [_row(Z33, E1), _row(Z33, E2), _row(Z33, E3)],
        "unmatched": [_row(BOOST, E3), _row(Z33, E1), _row(Z33, E2)]},
}


def _same(stacked, alone):
    assert type(stacked) is type(alone), (stacked, alone)
    assert stacked.signature == alone.signature
    if isinstance(alone, Rejection):
        assert (stacked.reason, stacked.detail) == (alone.reason, alone.detail)
        return
    assert stacked.id == alone.id and stacked.params.keys() == alone.params.keys()
    for key, val in alone.params.items():
        if isinstance(val, str):
            assert stacked.params[key] == val
        else:
            assert abs(stacked.params[key] - val) <= 1e-12 * max(1.0, abs(val))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from((2, 3)), st.integers(0, 2**32 - 1), st.lists(st.integers(0, 99), min_size=1,
                                                                    max_size=12))
def test_classify_stack_matches_one_basis_at_a_time(dim, seed, picks):
    rng = rng_from_seed(seed)
    catalog_bases = [build(id_, **params).basis for id_ in CATALOG_IDS
                     for params in _ROUND_TRIP_VARIANTS.get(id_, ({},))
                     if build(id_, **params).basis.dim == dim]
    choices = catalog_bases + list(_FAILING[dim].values())
    rows = []
    for pick in picks:
        choice = choices[pick % len(choices)]
        if isinstance(choice, SubalgebraSpec):
            rows.append(adjoint_spec(random_motion(rng), choice).coords_matrix)
        else:
            rows.append(np.array(choice))
    stacked = classify_stack(np.array(rows))
    assert len(stacked) == len(rows)
    for r, res in zip(rows, stacked):
        _same(res, classify(SubalgebraSpec(r)))


def test_classify_stack_rejects_each_way_and_validates_once():
    for dim, failing in _FAILING.items():
        out = classify_stack(np.array(list(failing.values())))
        for want, res in zip(failing, out):
            assert isinstance(res, Rejection), (want, res)
            assert res.reason == want or (res.reason == REASON_UNMATCHED
                                          and res.detail.startswith(want)), (want, res)
    # the rows form's rules, raised once for the whole stack
    good = build("P-b").basis.coords_matrix
    infinite = np.hstack([good[:, :9], np.full((2, 3), np.inf)])
    for bad, why in ((np.array([good, infinite]), "finite"),
                     (np.array([good, np.vstack([good[0], good[0]])]), "independent"),
                     (np.array([good, good + np.eye(12)[0]]), "membership")):
        with pytest.raises(ValueError, match=why):
            classify_stack(bad)
    with pytest.raises(ValueError):
        classify_stack(good)
    assert classify_stack(np.zeros((0, 2, 12))) == []
    # an empty basis is a stack of one with no rows
    res = classify(SubalgebraSpec(np.zeros((0, 12))))
    assert isinstance(res, Rejection) and res.reason == REASON_NOT_COHOMOGENEITY_ONE


def _conjugated_variants(seed):
    rng = rng_from_seed(seed)
    for id_ in CATALOG_IDS:
        for params in _ROUND_TRIP_VARIANTS.get(id_, ({},)):
            entry = build(id_, **params)
            yield id_, normalized_params(id_, entry.params), adjoint_spec(random_motion(rng),
                                                                          entry.basis)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-40, 20), st.integers(-8, 6))
def test_classification_is_unchanged_under_basis_scaling(seed, k2, k10):
    for id_, expect, spec in _conjugated_variants(seed):
        res = classify(spec)
        assert isinstance(res, Classification) and res.id == id_, (id_, res)
        # powers of two are exact: the same answer, bit for bit
        same = classify(SubalgebraSpec(np.ldexp(spec.coords_matrix, k2)))
        assert (same.id, same.params, same.residual) == (res.id, res.params, res.residual)
        assert np.array_equal(same.conjugator.A, res.conjugator.A)
        assert np.array_equal(same.conjugator.a, res.conjugator.a)
        near = classify(SubalgebraSpec(spec.coords_matrix * 10.0 ** k10))
        assert isinstance(near, Classification) and near.id == id_, (id_, k10, near)
        for key, val in expect.items():
            assert near.params[key] == pytest.approx(val, rel=1e-6, abs=1e-6)


@pytest.mark.parametrize("k", (-40, -20, 0, 12, 20, 24, 30, 40))
@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_scaled_conjugate_of_each_family_constructs_and_classifies(k, seed):
    # so12_check's cut follows max|X|: the roundoff of a conjugate grows
    # with its size, and scaling a basis does not change its span
    rng = rng_from_seed(seed)
    for id_ in CATALOG_IDS:
        rows = adjoint_spec(random_motion(rng), build(id_).basis).coords_matrix
        res = classify(SubalgebraSpec(np.ldexp(rows, k)))
        assert isinstance(res, Classification) and res.id == id_, (id_, k, res)


def _dilated(spec, k):
    rows = spec.coords_matrix
    return SubalgebraSpec(np.hstack([rows[:, :9], np.ldexp(rows[:, 9:], k)]))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(-40, 20))
def test_dilation_keeps_the_family_and_scales_beta_exactly(seed, k):
    cases = list(_conjugated_variants(seed))
    # a kernel row's own scale carries no length: alpha = 1e300 leaves beta be
    cases.append(("N-x", {"alpha": 1.0, "beta": 2.0}, build("N-x", alpha=1e300, beta=2.0).basis))
    for id_, expect, spec in cases:
        res = classify(spec)
        dil = classify(_dilated(spec, k))
        assert isinstance(dil, Classification) and dil.id == id_, (id_, k, dil)
        assert res.params.get("beta") == pytest.approx(expect.get("beta"), rel=1e-6, abs=1e-6)
        if "beta" in res.params:
            assert dil.params["beta"] == np.ldexp(res.params["beta"], k)
        assert dil.residual == res.residual


def test_conjugator_certificate_holds_on_a_dilated_basis():
    from mink1.algebra import span_residual

    for k in (-40, -20, 20):
        for id_, _, spec in _conjugated_variants(11):
            moved = _dilated(spec, k)
            res = classify(moved)
            target = build(res.id, **res.params).basis
            back = adjoint_spec(res.conjugator, moved)
            scale = np.abs(back.coords_matrix).max()
            for e in target.basis:
                assert span_residual(back, e) <= 1e-6 * max(1.0, np.abs(e.coords).max()), (
                    id_, k, span_residual(back, e), scale)


def test_large_nvii_parameter_classifies():
    res = classify(build("N-vii", beta=1e12).basis)
    assert isinstance(res, Classification), res
    assert res.id == "N-vii" and res.params == {"beta": 0.0}


def test_classify_stack_factors_its_stack_once(svd_inputs):
    """One SVD of the stack's rows scaled to unit max-abs decides both their
    independence and their row spaces."""
    from mink1.algebra import _adjoint_rows
    from mink1.sampling import random_motions

    rng = rng_from_seed(5)
    for id_ in ("P-b", "N-ix", "N-xii"):
        g = random_motions(rng, 7)
        R = _adjoint_rows(g.A, g.a, *build(id_).basis.parts)
        unit = R / abs(R).max(axis=-1, keepdims=True)
        svd_inputs.clear()
        assert all(isinstance(r, Classification) and r.id == id_ for r in classify_stack(R))
        assert sum(np.array_equal(a, unit) for a in svd_inputs) == 1, id_


def test_beta_that_overflows_at_the_input_scale_is_rejected():
    # undilation divides the translations by 2^1064; the P-d beta it reads
    # does not fit back into a float
    spec = SubalgebraSpec(np.array([[0, 1e-320, 0, 1e-320, 0, 0, 0, 0, 0, 0, 0, 1],
                                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0]], dtype=float))
    res = classify(spec)
    assert isinstance(res, Rejection) and res.reason == REASON_UNMATCHED, res
    assert "beta" in res.detail


def test_beta_targets_equal_the_built_catalog_bases():
    """A beta != 0 target is the cached unit-beta basis with row 0's
    translation times beta: bit for bit `build`'s rows.  One `_row_space`
    call over the targets stacked with other rows, as the certificate
    stacks them with the conjugated bases, gives each target `build`'s row
    space bit for bit."""
    sweep = (-1e6, -3.0, -0.75, -2.0 ** -30, 1e-300, 0.5, 1.0, 1.5, 7.25, 1e8)
    groups = (  # a signature group's targets share one dimension
        [("P-d", {"sign": s, "beta": b}) for s in (1.0, -1.0) for b in sweep]
        + [("N-vii", {"beta": 0.0}), ("P-a", {"plane": "timelike"}), ("N-v", {})],
        [("N-x", {"alpha": 1.0, "beta": b}) for b in sweep + (0.0,)] + [("N-ii", {})])
    rng = rng_from_seed(0)
    for hits in groups:
        T = _targets(hits)
        bases = [build(id_, **params).basis for id_, params in hits]
        moved = np.array([adjoint_spec(random_motion(rng), b).coords_matrix for b in bases])
        space = _row_space(np.concatenate([T, moved]))[1]
        for (id_, params), rows, rs, basis in zip(hits, T, space, bases):
            assert rows.tobytes() == basis.coords_matrix.tobytes(), (id_, params)
            assert rs.tobytes() == basis.row_space.tobytes(), (id_, params)


def test_a_stacked_nviii_conjugator_equals_its_own():
    """N-viii's removable translations are the kernel plane, so the solve has
    nothing to reach (Q T = 0) and its conjugator must not depend on which
    other bases share the stack: each one, alone or stacked with a second
    conjugate, gets the same conjugator and residual."""
    basis = build("N-viii").basis
    for seed in range(20):
        rng = rng_from_seed(seed)
        rows = np.array([adjoint_spec(random_motion(rng), basis).coords_matrix
                         for _ in range(2)])
        for r, stacked in zip(rows, classify_stack(rows)):
            alone = classify(SubalgebraSpec(r))
            assert isinstance(stacked, Classification) and stacked.id == "N-viii", stacked
            assert abs(stacked.conjugator.A - alone.conjugator.A).max() <= 1e-12, seed
            assert abs(stacked.conjugator.a - alone.conjugator.a).max() <= 1e-12, seed
            assert abs(stacked.residual - alone.residual) <= 1e-12, seed
