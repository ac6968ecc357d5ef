import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mink1.algebra import (
    AlgebraElement,
    SubalgebraSpec,
    adjoint,
    adjoint_spec,
    bracket,
    closure_residual,
    is_ideal,
    is_subalgebra,
    kernel_of_l,
    linear_part,
    span_contains,
    span_residual,
)
from mink1.minkowski import (
    BOOST,
    E1,
    E2,
    E3,
    ELLIPTIC,
    HYPERBOLIC,
    NULL_PLUS,
    NULL_ROTATION,
    PARABOLIC,
    ROTATION,
    ZERO,
    exp_element,
    generator_class,
)
from mink1.sampling import random_algebra_element, random_motion, rng_from_seed

Z3 = np.zeros(3)
Z33 = np.zeros((3, 3))


def el(X, v):
    return AlgebraElement(np.asarray(X, float), np.asarray(v, float))


def test_element_validation():
    with pytest.raises(ValueError):
        AlgebraElement(np.eye(3), Z3)
    with pytest.raises(ValueError):
        AlgebraElement(BOOST, np.zeros(2))


def test_bracket_rotation_translation():
    # direct computation: ROTATION sends e2 to -e3
    a = el(ROTATION, 0.37 * E1)
    b = el(Z33, E2)
    br = bracket(a, b)
    assert np.allclose(br.X, 0.0)
    assert np.allclose(br.v, -E3)


def test_bracket_antisymmetry_and_self():
    rng = rng_from_seed(0)
    for _ in range(30):
        a = random_algebra_element(rng)
        b = random_algebra_element(rng)
        assert np.allclose(bracket(a, a).coords, 0.0)
        assert np.allclose(bracket(a, b).coords, -bracket(b, a).coords)


def test_bracket_is_the_semidirect_formula_bit_for_bit():
    rng = rng_from_seed(6)
    for _ in range(500):
        a, b = (random_algebra_element(rng, 2.0 ** rng.integers(-40, 41)) for _ in range(2))
        br = bracket(a, b)
        assert np.array_equal(br.X, a.X @ b.X - b.X @ a.X)
        assert np.array_equal(br.v, a.X @ b.v - b.X @ a.v)


def test_bracket_boost_null_rotation():
    # oracle: direct 3x3 multiplication
    comm = BOOST @ NULL_ROTATION - NULL_ROTATION @ BOOST
    assert np.allclose(comm, NULL_ROTATION)
    br = bracket(el(BOOST, Z3), el(NULL_ROTATION, Z3))
    assert np.allclose(br.X, NULL_ROTATION)
    assert np.allclose(br.v, 0.0)


def test_jacobi_identity():
    rng = rng_from_seed(1)
    for _ in range(200):
        a, b, c = (random_algebra_element(rng) for _ in range(3))
        jac = bracket(a, bracket(b, c)) + bracket(b, bracket(c, a)) + bracket(c, bracket(a, b))
        assert np.linalg.norm(jac.coords) < 1e-10


def test_generator_class_table():
    assert generator_class(ROTATION) == ELLIPTIC
    assert np.trace(ROTATION @ ROTATION) == -2.0
    assert generator_class(BOOST) == HYPERBOLIC
    assert np.trace(BOOST @ BOOST) == 2.0
    assert generator_class(NULL_ROTATION) == PARABOLIC
    assert generator_class(Z33) == ZERO


def test_generator_class_conjugation_invariant():
    rng = rng_from_seed(2)
    for X in (BOOST, ROTATION, NULL_ROTATION, 0.3 * BOOST - 1.1 * ROTATION):
        kind = generator_class(X)
        for _ in range(100):
            A = random_motion(rng).A
            assert generator_class(A @ X @ np.linalg.inv(A)) == kind


def test_exp_derivative_matches_element():
    rng = rng_from_seed(3)
    h = 1e-5
    for _ in range(40):
        e = random_algebra_element(rng)
        mp = exp_element(e, h)
        mm = exp_element(e, -h)
        dA = (mp.A - mm.A) / (2 * h)
        da = (mp.a - mm.a) / (2 * h)
        assert np.max(np.abs(dA - e.X)) < 1e-7
        assert np.max(np.abs(da - e.v)) < 1e-7


def test_linear_part_examples():
    pure = SubalgebraSpec((el(Z33, E1), el(Z33, E2)))
    assert linear_part(pure)[0] == 0
    screw = SubalgebraSpec((el(BOOST, 0.5 * E3), el(Z33, NULL_PLUS)))
    assert linear_part(screw)[0] == 1
    solvable = SubalgebraSpec((el(BOOST, Z3), el(NULL_ROTATION, Z3)))
    assert linear_part(solvable)[0] == 2


def test_kernel_of_l_examples():
    lorentz_plane = SubalgebraSpec((el(BOOST, Z3), el(Z33, E1), el(Z33, E2)))
    dim, basis = kernel_of_l(lorentz_plane)
    assert dim == 2
    for w in basis:
        # the kernel is the span of e1 and e2
        assert abs(w[2]) < 1e-12
    screw = SubalgebraSpec((el(BOOST, 2.0 * E3), el(Z33, NULL_PLUS)))
    dim, basis = kernel_of_l(screw)
    assert dim == 1
    assert np.allclose(np.abs(basis[0] / np.linalg.norm(basis[0])),
                       np.abs(NULL_PLUS) / np.sqrt(2.0))
    pure = SubalgebraSpec((el(Z33, E2), el(Z33, E3)))
    assert kernel_of_l(pure)[0] == 2


def test_is_subalgebra_examples():
    solvable = SubalgebraSpec((el(BOOST, Z3), el(NULL_ROTATION, Z3)))
    assert is_subalgebra(solvable)
    nilpotent_line = SubalgebraSpec((el(NULL_ROTATION, Z3),))
    assert is_ideal(nilpotent_line, solvable)
    # boost and rotation do not close: their bracket leaves the span
    bad = SubalgebraSpec((el(BOOST, Z3), el(ROTATION, Z3)))
    assert not is_subalgebra(bad)


def test_mixed_kernel_direction_does_not_close():
    # the null rotation maps e3 onto e1+e2, so a solvable linear span with
    # a single translation direction must keep that direction null: putting
    # the screw term on the kernel vector instead of the boost generator
    # breaks closure, which is why the N-x basis carries it on the boost
    mixed = SubalgebraSpec((el(BOOST, Z3), el(NULL_ROTATION, Z3),
                            el(Z33, NULL_PLUS + 2.0 * E3)))
    assert not is_subalgebra(mixed)
    corrected = SubalgebraSpec((el(BOOST, 2.0 * E3), el(NULL_ROTATION, Z3),
                                el(Z33, NULL_PLUS)))
    assert is_subalgebra(corrected)


def test_kernel_is_ideal_in_every_family():
    from mink1.catalog import CATALOG_IDS, build

    for id_ in CATALOG_IDS:
        entry = build(id_)
        dim, basis = kernel_of_l(entry.basis)
        if dim == 0:
            continue
        sub = SubalgebraSpec(tuple(el(Z33, w) for w in basis))
        assert is_ideal(sub, entry.basis), id_


def test_spec_rejects_dependent_basis():
    with pytest.raises(ValueError):
        SubalgebraSpec((el(BOOST, Z3), el(2.0 * BOOST, Z3)))


def test_adjoint_is_algebra_automorphism():
    rng = rng_from_seed(4)
    for _ in range(40):
        g = random_motion(rng)
        a = random_algebra_element(rng)
        b = random_algebra_element(rng)
        lhs = adjoint(g, bracket(a, b))
        rhs = bracket(adjoint(g, a), adjoint(g, b))
        assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-9


def test_adjoint_matches_conjugated_flow():
    # d/dt g exp(t el) g^-1 at t = 0 equals the adjoint image
    from mink1.minkowski import compose, invert

    rng = rng_from_seed(5)
    h = 1e-5
    for _ in range(20):
        g = random_motion(rng)
        e = random_algebra_element(rng)
        ad = adjoint(g, e)
        mp = compose(compose(g, exp_element(e, h)), invert(g))
        mm = compose(compose(g, exp_element(e, -h)), invert(g))
        assert np.max(np.abs((mp.A - mm.A) / (2 * h) - ad.X)) < 1e-6
        assert np.max(np.abs((mp.a - mm.a) / (2 * h) - ad.v)) < 1e-6


def test_stacked_conjugation_equals_one_motion_at_a_time():
    # verify's C7 conjugates a basis by 50 motions as one stack
    from mink1.algebra import _adjoint_rows
    from mink1.catalog import build

    rng = rng_from_seed(6)
    for id_ in ("P-d", "N-x", "N-xii"):
        spec = build(id_).basis
        motions = [random_motion(rng) for _ in range(50)]
        rows = _adjoint_rows(np.array([g.A for g in motions]), np.array([g.a for g in motions]),
                             *spec.parts)
        assert rows.shape == (50, spec.dim, 12)
        for g, moved in zip(motions, rows):
            assert np.array_equal(moved, adjoint_spec(g, spec).coords_matrix)
            for e, row in zip(spec.basis, moved):
                assert np.array_equal(row, adjoint(g, e).coords)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_span_contains_brackets_of_catalog_bases(seed):
    from mink1.catalog import CATALOG_IDS, build

    rng = rng_from_seed(seed)
    id_ = CATALOG_IDS[int(rng.integers(0, 16))]
    entry = build(id_)
    basis = entry.basis.basis
    i = int(rng.integers(0, len(basis)))
    j = int(rng.integers(0, len(basis)))
    assert span_contains(entry.basis, bracket(basis[i], basis[j]))


def _oracle(spec, c):
    """Least squares on the unscaled rows: c's distance from span(basis)
    over max(1, |c|)."""
    M = spec.coords_matrix.T
    x, *_ = np.linalg.lstsq(M, c, rcond=None)
    return float(np.linalg.norm(c - M @ x)) / max(1.0, float(np.linalg.norm(c)))


def _oracle_specs(rng):
    """Random 1-4-element spans and conjugated catalog bases scaled by 10^k."""
    from mink1.catalog import CATALOG_IDS, build

    for _ in range(80):
        k = int(rng.integers(1, 5))
        try:
            yield SubalgebraSpec(tuple(random_algebra_element(rng, 1.5) for _ in range(k)))
        except ValueError:
            pass
    for id_ in CATALOG_IDS:
        spec = adjoint_spec(random_motion(rng), build(id_).basis)
        for k in range(-6, 7):
            try:
                yield SubalgebraSpec(tuple(el(10.0 ** k * e.X, 10.0 ** k * e.v)
                                           for e in spec.basis))
            except ValueError:  # the absolute so(1,2) check, far from unit size
                pass


def _far_from_cut(rel):
    return not 1e-10 <= rel <= 1e-8


def test_membership_matches_least_squares_oracle():
    rng = rng_from_seed(11)
    decided = {"contains": 0, "subalgebra": 0, "ideal": 0}
    for spec in _oracle_specs(rng):
        basis = spec.basis
        size = float(np.abs(spec.coords_matrix).max())
        probes = [random_algebra_element(rng, size),
                  sum((rng.normal() * e for e in basis[1:]), rng.normal() * basis[0])]
        try:
            pairs = {(i, j): bracket(basis[i], basis[j])
                     for i in range(spec.dim) for j in range(spec.dim)}
        except ValueError:  # a bracket outside the absolute so(1,2) check
            pairs = {}
        for e in probes + list(pairs.values()):
            norm = max(1.0, float(np.linalg.norm(e.coords)))
            rel = _oracle(spec, e.coords)
            assert abs(span_residual(spec, e) - rel * norm) <= 1e-12 * norm
            if _far_from_cut(rel):
                assert span_contains(spec, e) == (rel <= 1e-9)
                decided["contains"] += 1
        if not pairs:
            continue
        closure = max((_oracle(spec, br.coords) for (i, j), br in pairs.items() if i < j),
                      default=0.0)
        assert abs(closure_residual(spec) - closure) <= 1e-12
        if _far_from_cut(closure):
            assert is_subalgebra(spec) == (closure <= 1e-9)
            decided["subalgebra"] += 1
        for n in range(1, spec.dim + 1):
            sub = SubalgebraSpec(basis[:n])
            worst = max(_oracle(sub, pairs[i, j].coords)
                        for i in range(spec.dim) for j in range(n))
            if _far_from_cut(worst):
                assert is_ideal(sub, spec) == (worst <= 1e-9)
                decided["ideal"] += 1
    assert min(decided.values()) > 100, decided


def test_membership_of_graded_rows():
    # a generator at 1e300 beside one at 1e-300: one SVD of the unscaled
    # rows flushes the small row to zero, so row_space scales rows first
    from mink1.catalog import CATALOG_IDS, build

    for id_ in CATALOG_IDS:
        basis = build(id_).basis.basis
        if len(basis) < 2:
            continue
        spec = SubalgebraSpec((1e300 * basis[0], 1e-300 * basis[1]) + basis[2:])
        assert all(span_contains(spec, e) for e in basis), id_
        assert is_subalgebra(spec), id_


def test_spec_from_rows_matches_spec_from_elements():
    # the two construction forms hold the same rows and apply the same rules
    from mink1.catalog import CATALOG_IDS, build

    for id_ in CATALOG_IDS:
        from_elements = build(id_).basis
        from_rows = SubalgebraSpec(np.array(from_elements.coords_matrix))
        assert from_rows.coords_matrix.tobytes() == from_elements.coords_matrix.tobytes()
        assert not from_rows.coords_matrix.flags.writeable
        for a, b in zip(from_rows.basis, from_elements.basis):
            assert np.array_equal(a.X, b.X) and np.array_equal(a.v, b.v)
        assert closure_residual(from_rows) == closure_residual(from_elements)
    rows = build("N-xi").basis.coords_matrix
    for bad, message in ((np.eye(12)[:1], "linear part violates"),
                         (np.vstack([rows[:1], 2.0 * rows[:1]]), "not linearly independent"),
                         (np.zeros((1, 12)), "not linearly independent")):
        with pytest.raises(ValueError, match=message):
            SubalgebraSpec(bad)
        with pytest.raises(ValueError, match=message):
            SubalgebraSpec(tuple(AlgebraElement(r[:9].reshape(3, 3), r[9:]) for r in bad))


def test_nonfinite_translation_is_rejected_in_both_forms():
    # each form names the translation, and no SVD sees the value
    good = el(BOOST, Z3).coords
    for bad in (np.inf, -np.inf, np.nan):
        v = np.array([bad, 0.0, 0.0])
        with pytest.raises(ValueError, match="translation must be finite"):
            SubalgebraSpec((AlgebraElement(BOOST, v),))
        for rows in (np.r_[good[:9], v][None], np.vstack([good, np.r_[Z33.ravel(), v]])):
            with pytest.raises(ValueError, match="translation must be finite"):
                SubalgebraSpec(rows)
