import numpy as np
import pytest

from mink1.algebra import AlgebraElement, SubalgebraSpec
from mink1.catalog import CATALOG_IDS, build
from mink1.minkowski import (
    BOOST,
    E1,
    E2,
    HYPERBOLIC,
    NULL_PLUS,
    NULL_ROTATION,
    PARABOLIC,
    apply,
    compose,
    exp_element,
    generator_class,
    inner,
)
from mink1.orbits import (
    _STENCIL,
    STENCIL_RADIUS,
    analyze_points,
    eq1_norm,
    finite_tangent,
    orbit_causal,
    orbit_class,
    orbit_dimension,
    orbit_normal,
    orbit_report,
    sample_orbit,
    shape_operator,
    stabilizer_algebra,
    tangent_basis,
)
from mink1.properness import stabilizer_compactness
from mink1.sampling import random_algebra_element, random_causal_point, rng_from_seed
from mink1.verify import entry_variants

Z3 = np.zeros(3)
Z33 = np.zeros((3, 3))


def test_tangent_basis_examples():
    pd = build("P-d", beta=0.5)
    T = tangent_basis(pd.basis, [1.0, 2.0, 3.0])
    # boost field at (x, y, z) is (y, x, beta); translation field is constant
    assert np.allclose(T[0], [2.0, 1.0, 0.5])
    assert np.allclose(T[1], NULL_PLUS)
    nxii = build("N-xii")
    assert np.allclose(tangent_basis(nxii.basis, Z3), 0.0)


def test_orbit_dimension_and_stabilizer():
    nviii = build("N-viii")
    for p in ([0, 0, 0], [1.0, -2.0, 0.3], [5.0, 5.0, 1.0]):
        assert orbit_dimension(nviii.basis, p) == 2
        stab = stabilizer_algebra(nviii.basis, p)
        assert stab.dim == 1
    nxii = build("N-xii")
    assert orbit_dimension(nxii.basis, Z3) == 0
    assert stabilizer_algebra(nxii.basis, Z3).dim == 3
    niii = build("N-iii")
    assert orbit_dimension(niii.basis, [2.0, 2.0, 1.0]) == 2
    assert stabilizer_algebra(niii.basis, [2.0, 2.0, 1.0]).dim == 1


def test_stabilizer_is_a_subalgebra_and_kills_the_point():
    from mink1.algebra import is_subalgebra

    rng = rng_from_seed(0)
    for id_ in ("P-b", "N-viii", "N-ix", "N-xii"):
        entry = build(id_)
        for _ in range(10):
            p = rng.uniform(-3, 3, 3)
            stab = stabilizer_algebra(entry.basis, p)
            assert is_subalgebra(stab)
            for el in stab.basis:
                assert np.max(np.abs(el.X @ p + el.v)) < 1e-9


def test_dimension_accounting():
    rng = rng_from_seed(1)
    from mink1.catalog import CATALOG_IDS

    for id_ in CATALOG_IDS:
        entry = build(id_)
        for _ in range(15):
            p = rng.uniform(-3, 3, 3)
            od = orbit_dimension(entry.basis, p)
            sd = stabilizer_algebra(entry.basis, p).dim
            assert od + sd == entry.basis.dim


def test_orbit_causal_examples():
    pc = build("P-c")
    assert orbit_causal(pc.basis, [0.4, 1.0, -2.0]) == "riemannian"
    pd = build("P-d", beta=1.0)
    assert orbit_causal(pd.basis, [1.0, 1.0, 0.0]) == "degenerate"
    assert orbit_causal(pd.basis, [1.0, 0.0, 0.0]) == "lorentzian"
    ni = build("N-i")
    assert orbit_causal(ni.basis, [0.0, 0.0, 1.0]) == "spacelike"
    nxii = build("N-xii")
    assert orbit_causal(nxii.basis, Z3) == "zero-vector"


def test_tangent_flow_consistency():
    rng = rng_from_seed(2)
    from mink1.catalog import CATALOG_IDS

    for id_ in CATALOG_IDS:
        entry = build(id_)
        p = rng.uniform(-2, 2, 3)
        T = tangent_basis(entry.basis, p)
        for el, xi in zip(entry.basis.basis, T):
            fd = finite_tangent(el, p)
            assert np.max(np.abs(fd - xi)) < 1e-7


def test_sample_orbit_empty_grid_and_invariants():
    ni = build("N-i")
    p = np.array([2.0, 1.0, 0.0])
    assert np.allclose(sample_orbit(ni, p, []), p.reshape(1, 3))
    grid = [(t, u) for t in np.linspace(-2, 2, 7) for u in np.linspace(-2, 2, 7)]
    qs = sample_orbit(ni, p, grid)
    ref = ni.invariant(p)
    assert ref == pytest.approx(3.0)
    assert max(abs(ni.invariant(q) - ref) for q in qs) < 1e-8

    nxii = build("N-xii")
    p = np.array([2.0, 0.0, 0.0])
    grid3 = [(a, b, c) for a in (-1, 0.5, 1) for b in (-1, 0, 1) for c in (-0.5, 0.7, 1)]
    qs = sample_orbit(nxii, p, grid3)
    assert nxii.invariant(p) == pytest.approx(-4.0)
    assert max(abs(inner(q, q) + 4.0) for q in qs) < 1e-8

    pc = build("P-c")
    p = np.array([1.5, 0.2, -0.3])
    qs = sample_orbit(pc, p, grid3)
    assert max(abs(q[0] - 1.5) for q in qs) < 1e-12


def test_sample_orbit_grid_shape_mismatch():
    ni = build("N-i")
    with pytest.raises(ValueError):
        sample_orbit(ni, Z3, [(1.0, 2.0, 3.0)])


def test_shape_operator_reference_point():
    entry = build("P-d", sign=1.0, beta=1.0)
    S, diag = shape_operator(entry, [1.0, 0.0, 0.0])
    # in the null tangent basis the operator is the elementary nilpotent
    assert diag == "non-diagonalizable"
    assert np.max(np.abs(S - np.array([[0.0, 0.0], [1.0, 0.0]]))) < 1e-12
    lam = np.linalg.eigvals(S)
    assert np.max(np.abs(lam)) < 1e-12
    S2, diag2 = shape_operator(entry, [0.0, 1.0, 0.0])
    assert diag2 == "non-diagonalizable"


def _c4_points(seed):
    """(sign, beta, p): nine points per P-d variant of C4, off the degenerate plane by 0.3."""
    rng = rng_from_seed(seed)
    out = []
    for sign in (1.0, -1.0):
        for beta in (0.5, 1.0, 2.0):
            kept = 0
            while kept < 9:
                p = rng.uniform(-2.0, 2.0, 3)
                if abs(p[0] - sign * p[1]) >= 0.3:
                    out.append((sign, beta, p))
                    kept += 1
    return out


def test_shape_operator_is_exact_and_dilation_covariant():
    # p -> 2^k p, beta -> 2^k beta maps orbits to orbits and scales S by 2^-k
    for sign, beta, p in _c4_points(1):
        S0, diag0 = shape_operator(build("P-d", sign=sign, beta=beta), p)
        assert diag0 == "non-diagonalizable"
        for k in range(-20, 21):
            lam = 2.0 ** k
            S, diag = shape_operator(build("P-d", sign=sign, beta=lam * beta), lam * p)
            assert diag == diag0, (sign, beta, p, k)
            assert np.max(np.abs(lam * S - S0)) <= 1e-12 * np.max(np.abs(S0)), (sign, beta, p, k)


def test_shape_operator_matches_finite_difference_oracle():
    """Central differences of the unit normal along each basis flow give
    dn/dt = X n, so S(X p + v) = -X n; and `shape_operator` writes S in the
    null tangent basis, where w has coordinates (-<w, v2>, -<w, v1>)."""
    h = 1e-3

    def unit_normal(spec, q, ref):
        n = orbit_normal(spec, q)
        n = n / np.sqrt(inner(n, n))
        return -n if ref is not None and inner(n, ref) < 0.0 else n

    worst = 0.0
    for sign, beta, p in _c4_points(1):
        entry = build("P-d", sign=sign, beta=beta)
        spec = entry.basis
        n = unit_normal(spec, p, None)
        xi = tangent_basis(spec, p)
        v2 = xi[1]
        v1 = xi[0] - inner(xi[0], xi[0]) / (2.0 * inner(xi[0], v2)) * v2
        v1 = v1 / -inner(v1, v2)
        S, _ = shape_operator(entry, p)
        for el, w in zip(spec.basis, xi):
            qp, qm = apply(exp_element(el, np.array([h, -h])), p)
            dn = (unit_normal(spec, qp, n) - unit_normal(spec, qm, n)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(dn - el.X @ n))))
            coords = np.array([-inner(w, v2), -inner(w, v1)])
            image = np.array([inner(dn, v2), inner(dn, v1)])  # coordinates of S(w) = -dn
            worst = max(worst, float(np.max(np.abs(S @ coords - image))))
    assert worst < 1e-5


def test_shape_operator_rejects_degenerate_stratum():
    entry = build("P-d", sign=1.0, beta=1.0)
    with pytest.raises(ValueError):
        shape_operator(entry, [1.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        shape_operator(build("P-b"), [1.0, 0.0, 0.0])


def test_degenerate_stratum_normal_is_the_null_direction():
    for sign in (1.0, -1.0):
        entry = build("P-d", sign=sign, beta=0.8)
        nu = (E1 + sign * E2) / np.sqrt(2.0)
        for a, c in ((1.0, 0.0), (-0.4, 2.0)):
            p = np.array([a, sign * a, c])
            n = orbit_normal(entry.basis, p)
            assert np.max(np.abs(n - nu)) < 1e-8


def test_orbit_normal_requires_surface():
    nxii = build("N-xii")
    with pytest.raises(ValueError):
        orbit_normal(nxii.basis, Z3)


def test_orbit_class_examples():
    niii = build("N-iii")
    cls, ev = orbit_class(niii, [1.0, 1.0, 0.0])
    assert cls == "exceptional"
    assert ev["exceptional_evidence"] and not ev["principal_evidence"]
    pb = build("P-b")
    cls, ev = orbit_class(pb, [5.0, 0.0, 0.0])
    assert cls == "singular"
    nix = build("N-ix")
    cls, _ = orbit_class(nix, [1.0, 1.0, 0.0])
    assert cls == "singular"
    assert orbit_dimension(nix.basis, [1.0, 1.0, 0.0]) == 1
    ni = build("N-i")
    cls, ev = orbit_class(ni, [1.0, 1.0, 0.5])
    assert cls == "principal"  # free orbits all share one type
    assert ev["principal_evidence"]


def test_orbit_report_round_trip():
    entry = build("N-i")
    rep = orbit_report(entry, [2.0, 1.0, 0.0])
    assert rep.matched_expectation
    assert rep.orbit_dim == 2
    assert rep.causal == "riemannian"
    assert rep.invariant_value == pytest.approx(3.0)
    rep0 = orbit_report(entry, [0.0, 0.0, 5.0])
    assert rep0.orbit_dim == 1 and rep0.causal == "spacelike"
    assert rep0.stabilizer_class == "noncompact"


def _generic_and_stratum_points(entry, rng):
    """Seeded generic points plus three points from every stratum sampler:
    the measure-zero strata are where rank decisions come closest to
    flipping."""
    pts = [rng.uniform(-3.0, 3.0, 3) for _ in range(4)]
    for stratum in entry.strata:
        for sampler in stratum.samplers:
            pts += [np.asarray(sampler(rng), float) for _ in range(3)]
    return pts


def test_orbit_class_evidence_matches_pointwise_loop():
    rng = rng_from_seed(23)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            spec = entry.basis
            for p in _generic_and_stratum_points(entry, rng):
                od = orbit_dimension(spec, p)
                dims = [orbit_dimension(spec, q) for q in p + STENCIL_RADIUS * _STENCIL]
                same = sum(d == od for d in dims)
                _, ev = orbit_class(entry, p)
                assert ev == {
                    "center_dims": (od, spec.dim - od),
                    "neighbors_same": same,
                    "neighbors_total": 26,
                    "principal_evidence": same == 26,
                    "exceptional_evidence": od == 2 and same < 26,
                }, (entry.id, entry.params, p)
                # plain Python types, as the JSON writer needs them
                assert type(ev["neighbors_same"]) is int
                assert all(type(d) is int for d in ev["center_dims"])


def test_orbit_report_matches_one_point_functions():
    rng = rng_from_seed(29)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            spec = entry.basis
            for p in _generic_and_stratum_points(entry, rng):
                rep = orbit_report(entry, p)
                got = (rep.orbit_dim, rep.causal, rep.stabilizer_dim, rep.stabilizer_class)
                want = (orbit_dimension(spec, p), orbit_causal(spec, p),
                        stabilizer_algebra(spec, p).dim, stabilizer_compactness(spec, p))
                assert got == want, (entry.id, entry.params, p)
                assert rep.evidence == orbit_class(entry, p)[1]


def test_tangent_basis_of_a_point_stack():
    rng = rng_from_seed(31)
    for _ in range(50):
        spec = SubalgebraSpec(tuple(random_algebra_element(rng) for _ in range(3)))
        pts = rng.normal(size=(4, 5, 3)) * 10.0 ** rng.integers(-6, 7)
        T = tangent_basis(spec, pts)
        assert T.shape == (4, 5, 3, 3)
        # bit for bit the per-element products X p + v of each point
        for idx in np.ndindex(4, 5):
            want = np.stack([el.X @ pts[idx] + el.v for el in spec.basis])
            assert np.array_equal(T[idx], want)
            assert np.array_equal(tangent_basis(spec, pts[idx]), want)
    assert tangent_basis(SubalgebraSpec(()), [1.0, 2.0, 3.0]).shape == (0, 3)


def test_eq1_norm_examples():
    assert eq1_norm(1.0, [1.0, 0.0, 0.0]) == pytest.approx(2.0)
    # every term carries a factor of (x1 - x2)
    for alpha in (-3.0, 0.0, 1.7):
        assert eq1_norm(alpha, [2.0, 2.0, -1.0]) == 0.0


def test_eq1_norm_matches_flow_derivative():
    rng = rng_from_seed(3)
    for _ in range(50):
        alpha = rng.uniform(-3, 3)
        p = rng.uniform(-3, 3, 3)
        el = AlgebraElement(alpha * BOOST + NULL_ROTATION, Z3)
        w = finite_tangent(el, p)
        assert abs(inner(w, w) - eq1_norm(alpha, p)) < 1e-7


def test_eq1_discriminant_dichotomy():
    rng = rng_from_seed(4)
    for _ in range(100):
        p = random_causal_point(rng, "spacelike", avoid_boost_stratum=True)
        x, y, z = p
        disc = (2 * z * (x - y)) ** 2 - 4 * (x * x - y * y) * (x - y) ** 2
        assert disc > 0
    for _ in range(100):
        p = random_causal_point(rng, "timelike", avoid_boost_stratum=True)
        x, y, z = p
        disc = (2 * z * (x - y)) ** 2 - 4 * (x * x - y * y) * (x - y) ** 2
        assert disc < 0


def test_timelike_points_give_positive_eq1_everywhere():
    rng = rng_from_seed(5)
    alphas = np.linspace(-10, 10, 81)
    for _ in range(25):
        p = random_causal_point(rng, "timelike", avoid_boost_stratum=True)
        vals = [eq1_norm(a, p) for a in alphas]
        assert min(vals) > 0.0


def _stabilizer_class_oracle(generators):
    """trivial / compact / noncompact from the generators' classes."""
    if not generators:
        return "trivial"
    kinds = {generator_class(g.X) for g in generators}
    return "noncompact" if kinds & {HYPERBOLIC, PARABOLIC} else "compact"


def test_analyze_points_rows_equal_one_point_answers():
    rng = rng_from_seed(37)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            spec = entry.basis
            pts = _generic_and_stratum_points(entry, rng)
            a = analyze_points(spec, pts)
            for k, p in enumerate(pts):
                stab = stabilizer_algebra(spec, p)
                got = (a.orbit_dim[k], a.causal[k], a.stabilizer_dim[k], a.stabilizer_class[k])
                want = (orbit_dimension(spec, p), orbit_causal(spec, p), stab.dim,
                        _stabilizer_class_oracle(stab.basis))
                assert got == want, (entry.id, entry.params, p)
                assert stabilizer_compactness(spec, p) == want[3]
                _assert_stabilizer_is_the_ordered_sum(spec, p, a.orbit_dim[k], stab)
    # random bases whose elements overlap entrywise, so that the order of
    # the sum shows in the bits
    for _ in range(30):
        spec = SubalgebraSpec(tuple(random_algebra_element(rng) for _ in range(4)))
        p = rng.uniform(-3.0, 3.0, 3)
        stab = stabilizer_algebra(spec, p)
        assert stab.dim == 1
        _assert_stabilizer_is_the_ordered_sum(spec, p, analyze_points(spec, [p]).orbit_dim[0], stab)


def _assert_stabilizer_is_the_ordered_sum(spec, p, rank, stab):
    """The stabilizer elements are the AlgebraElement sums of the basis
    over the coefficient columns past the orbit dimension, in basis order."""
    u, _, _ = np.linalg.svd(tangent_basis(spec, p), full_matrices=True)
    for c, g in zip(u[:, rank:].T, stab.basis):
        acc = spec.basis[0] * c[0]
        for ci, el in zip(c[1:], spec.basis[1:]):
            acc = acc + el * ci
        assert np.array_equal(acc.X, g.X) and np.array_equal(acc.v, g.v)


def test_sample_orbit_equals_the_per_tuple_flow_loop():
    rng = rng_from_seed(41)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            p = rng.uniform(-2.0, 2.0, 3)
            grid = [tuple(t) for t in rng.uniform(-1.5, 1.5, (7, entry.basis.dim))]
            want = []
            for tup in grid:
                m = exp_element(entry.basis.basis[0], float(tup[0]))
                for el, t in zip(entry.basis.basis[1:], tup[1:]):
                    m = compose(m, exp_element(el, float(t)))
                want.append(apply(m, p))
            assert np.array_equal(sample_orbit(entry, p, grid), np.stack(want)), entry.id


def test_sample_orbit_of_stacked_points_equals_the_single_point_calls():
    rng = rng_from_seed(43)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            P = rng.uniform(-2.0, 2.0, (5, 3))
            grid = rng.uniform(-1.5, 1.5, (7, entry.basis.dim))
            Q = sample_orbit(entry, P, grid)
            assert Q.shape == (5, 7, 3)
            for p, q in zip(P, Q):
                assert q.tobytes() == sample_orbit(entry, p, grid).tobytes(), entry.id
            assert np.array_equal(sample_orbit(entry, P, []), P[:, None])


def test_shape_operator_and_normal_on_a_stack_equal_each_point_alone():
    """A stack of points gives, row by row, the bits of `orbit_normal` and
    `shape_operator` at each point alone; one bad row raises as it would alone."""
    rng = rng_from_seed(43)
    for sign, beta in ((1.0, 0.5), (-1.0, 2.0), (1.0, -1.5)):
        entry = build("P-d", sign=sign, beta=beta)
        P = rng.uniform(-2.0, 2.0, (40, 3))
        P = P[abs(P[:, 0] - sign * P[:, 1]) >= 0.3]
        S, diags = shape_operator(entry, P)
        alone = [shape_operator(entry, p) for p in P]
        assert S.tobytes() == np.array([s for s, _ in alone]).tobytes()
        assert diags == [d for _, d in alone]
        on_plane = np.array([[a, sign * a, c] for a, c in rng.uniform(-2.0, 2.0, (5, 2))])
        Q = np.concatenate([P, on_plane])
        normals = orbit_normal(entry.basis, Q)
        assert normals.tobytes() == np.array([orbit_normal(entry.basis, q) for q in Q]).tobytes()
        with pytest.raises(ValueError, match="degenerate-plane"):
            shape_operator(entry, Q)
    with pytest.raises(ValueError, match="2-dimensional"):
        orbit_normal(build("N-xii").basis, np.array([[1.0, 2.0, 0.5], Z3]))
