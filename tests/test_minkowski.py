import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from mink1.minkowski import (
    BOOST,
    DEGENERATE,
    E1,
    E2,
    E3,
    ETA,
    LORENTZIAN,
    NULL,
    NULL_ROTATION,
    RIEMANNIAN,
    ROTATION,
    SPACELIKE,
    TIMELIKE,
    STRUCT_TOL,
    ZERO_VECTOR,
    Motion,
    apply,
    causal_character,
    causal_of_span,
    causal_of_svd,
    compose,
    exp_element,
    inner,
    invert,
    motion_distance,
    motion_faults,
    numeric_rank,
    sign_of,
    so12_check,
    _closed_exp_pair,
    _series_exp_pair,
)
from mink1.algebra import AlgebraElement
from mink1.catalog import NONPROPER_IDS, build
from mink1.properness import make_witness
from mink1.sampling import random_algebra_element, random_motion, random_motions, rng_from_seed

finite = st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False)
vec3 = st.tuples(finite, finite, finite).map(np.array)


def test_inner_metric_values():
    assert inner(E1, E1) == -1.0
    assert inner(E2, E3) == 0.0
    assert inner(E1 + E2, E1 + E2) == 0.0
    assert inner(E3, E3) == 1.0


@given(vec3, vec3)
def test_inner_symmetric(u, v):
    assert inner(u, v) == pytest.approx(inner(v, u), abs=1e-12)


@given(vec3, vec3, vec3, finite)
def test_inner_bilinear(u, v, w, c):
    lhs = inner(u + c * v, w)
    rhs = inner(u, w) + c * inner(v, w)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_causal_character_basics():
    assert causal_character(E1) == TIMELIKE
    assert causal_character(E1 + E2) == NULL
    assert causal_character(E3) == SPACELIKE
    assert causal_character(np.zeros(3)) == ZERO_VECTOR
    # only an exact zero (or NaN) vector is the zero vector
    assert causal_character(-0.0 * E1) == ZERO_VECTOR
    assert causal_character(np.array([1.0, np.nan, 0.0])) == ZERO_VECTOR
    for scale in (5e-324, 1e-12, 1e-9, 1e300):
        assert causal_character(scale * E1) == TIMELIKE, scale
        assert causal_character(scale * (E1 + E2)) == NULL, scale
        assert causal_character(scale * E3) == SPACELIKE, scale


def test_causal_character_has_no_absolute_zero_cut():
    v = np.array([0.0, 0.0, 1e-9])
    assert causal_character(v) == causal_character(2.5 * v) == SPACELIKE


def test_causal_of_span():
    # a line is classified as its vector
    assert causal_of_span([E1]) == TIMELIKE
    assert causal_of_span([E3]) == SPACELIKE
    assert causal_of_span([E1 + E2]) == NULL
    assert causal_of_span([np.zeros(3)]) == ZERO_VECTOR
    # a plane by the signature of its induced Gram matrix
    assert causal_of_span([E1, E2]) == LORENTZIAN
    assert causal_of_span([E2, E3]) == RIEMANNIAN
    assert causal_of_span([E1 + E2, E3]) == DEGENERATE
    # a dependent pair spans the line of either vector
    assert causal_of_span([E1, -2.0 * E1]) == TIMELIKE
    assert causal_of_span([E1 + E2, 3.0 * (E1 + E2)]) == NULL
    # the character depends on the span, not on the scale of its basis
    assert causal_of_span([1e6 * E2, 1e6 * E3]) == RIEMANNIAN
    assert causal_of_span([1e-6 * E1, 1e-6 * E2]) == LORENTZIAN


def test_sign_of():
    assert sign_of(2.0, 1.0) == 1 and sign_of(-2.0, 1.0) == -1
    # |x| = cut reads 0, and the next float past it does not
    assert sign_of(1.0, 1.0) == 0 and sign_of(-1.0, 1.0) == 0
    assert sign_of(np.nextafter(1.0, 2.0), 1.0) == 1
    assert sign_of(-np.nextafter(1.0, 2.0), 1.0) == -1
    assert sign_of(float("nan"), 1.0) == 0
    assert sign_of(0.0, 0.0) == 0 and sign_of(5e-324, 0.0) == 1
    # numpy scalars are taken as Python floats
    got = sign_of(np.float64(-3.0), np.float64(1.0))
    assert got == -1 and type(got) is int


@given(vec3)
def test_causal_character_scale_invariant(v):
    assert causal_character(v) == causal_character(2.5 * v)


def test_numeric_rank():
    assert numeric_rank(np.zeros(0)) == 0
    assert numeric_rank(np.linalg.svd(np.zeros((3, 3)), compute_uv=False)) == 0
    rng = rng_from_seed(3)
    U, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    for sv in ([3.0, 0.0, 0.0], [3.0, 0.7, 0.0], [3.0, 0.7, 0.2]):
        M = U @ np.diag(sv) @ V.T
        for k in range(-12, 13):
            s = np.linalg.svd(M * 10.0 ** k, compute_uv=False)
            assert numeric_rank(s) == np.count_nonzero(sv), (sv, k)
    # a value exactly at the cutoff STRUCT_TOL * s[0] does not count
    assert numeric_rank(np.array([4.0, 4.0 * 1e-9])) == 1
    assert type(numeric_rank([3.0, 0.7])) is int


def test_numeric_rank_of_stacked_rows():
    rows = np.array([[0.0, 0.0, 0.0],       # all zero
                     [3.0, 0.7, 0.0],       # rank deficient
                     [3.0, 0.7, 0.2],
                     [4.0, 4.0 * 1e-9, 0.0]])  # at the cutoff
    ranks = numeric_rank(rows)
    assert ranks.tolist() == [0, 2, 3, 1]
    assert ranks.tolist() == [numeric_rank(r) for r in rows]
    rng = rng_from_seed(5)
    M = rng.normal(size=(6, 7, 3, 3))
    M[:, :3, 2] = M[:, :3, 0]  # rank 2
    M[:, 3, 1:] = 0.0          # rank 1
    M[:, 4] = 0.0              # rank 0
    M *= 10.0 ** rng.integers(-9, 10, size=(6, 1, 1, 1))
    s = np.linalg.svd(M, compute_uv=False)
    ranks = numeric_rank(s)
    assert ranks.shape == (6, 7)
    for idx in np.ndindex(6, 7):
        assert ranks[idx] == numeric_rank(s[idx]), idx
    assert ranks[:, :3].max() == 2 and ranks[:, 3].max() == 1 and ranks[:, 4].max() == 0
    assert numeric_rank(np.zeros((4, 0))).tolist() == [0, 0, 0, 0]
    assert numeric_rank(np.array([4.0, np.nextafter(4.0 * 1e-9, 1.0)])) == 2


def test_so12_membership():
    assert so12_check(BOOST)
    assert so12_check(ROTATION)
    assert so12_check(NULL_ROTATION)
    # a lone upper-triangular entry breaks the symmetry X12 = X21
    E12 = np.zeros((3, 3))
    E12[0, 1] = 1.0
    assert not so12_check(E12)
    assert not so12_check(np.eye(3))


def test_so12_check_on_stacks_matches_each_matrix():
    over = np.nextafter(STRUCT_TOL, 1.0)
    mats = [BOOST, ROTATION, NULL_ROTATION, 2.5 * BOOST - ROTATION, np.eye(3)]
    expected = [True, True, True, True, False]
    entries = [(i, j) for i in range(3) for j in range(3)]
    # a lone entry at the cut, on the diagonal or on one side of a mirrored
    # pair, is within it; the next float above is not
    for i, j in entries:
        for d, ok in ((STRUCT_TOL, True), (-STRUCT_TOL, True), (over, False), (-over, False)):
            X = np.zeros((3, 3))
            X[i, j] = d
            mats.append(X)
            expected.append(ok)
    # the rule compares differences, not entries: X12 = 1 against an
    # X21 of 1 + 2^-30 (about 0.93e-9) or 1 + 2^-29 (about 1.86e-9)
    for i, j in ((0, 1), (1, 0), (0, 2), (2, 0)):
        for d, ok in ((2.0 ** -30, True), (2.0 ** -29, False)):
            X = BOOST + NULL_ROTATION
            X[i, j] += d
            mats.append(X)
            expected.append(ok)
    for bad in (np.nan, np.inf, -np.inf):
        for i, j in entries:
            X = ROTATION.copy()
            X[i, j] = bad
            mats.append(X)
            expected.append(False)
        # non-finite on both sides of a pair: inf - inf and inf + -inf
        for (i, j), sign in (((0, 1), 1.0), ((0, 2), 1.0), ((1, 2), -1.0)):
            X = np.zeros((3, 3))
            X[i, j], X[j, i] = bad, sign * bad
            mats.append(X)
            expected.append(False)
    stack = np.array(mats)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = so12_check(stack)
        alone = [so12_check(X) for X in stack]
        assert so12_check(stack[None]).tolist() == [verdicts.tolist()]
        empty = so12_check(np.zeros((0, 3, 3)))
    assert verdicts.dtype == bool and verdicts.shape == (len(mats),)
    assert all(type(v) is bool for v in alone)
    assert verdicts.tolist() == alone == expected
    assert empty.shape == (0,) and empty.dtype == bool
    for shape in ((), (3,), (9,), (2, 2), (3, 4), (4, 3), (5, 3, 2)):
        assert so12_check(np.zeros(shape)) is False, shape


def test_motion_validation():
    Motion(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        Motion(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        Motion(np.diag([-1.0, -1.0, 1.0]), np.zeros(3))  # time reversing
    with pytest.raises(ValueError):
        Motion(np.diag([1.0, -1.0, 1.0]), np.zeros(3))  # orientation reversing
    shape = re.escape("Motion needs parts A[..., 3, 3] and a[..., 3]")
    with pytest.raises(ValueError, match=shape):
        Motion(np.eye(3), np.zeros(2))


def test_motion_repr_lists_its_parts():
    assert repr(Motion.identity()) == (
        "Motion(A=[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], a=[0.0, 0.0, 0.0])")


def test_apply_examples():
    assert np.allclose(apply(Motion.identity(), [1, 2, 3]), [1, 2, 3])
    # boost at rapidity ln 2: cosh = 1.25, sinh = 0.75
    m = exp_element(AlgebraElement(BOOST, np.zeros(3)), np.log(2.0))
    assert np.allclose(apply(m, [1.0, 0.0, 0.0]), [1.25, 0.75, 0.0], atol=1e-15)
    m = Motion(np.eye(3), E3)
    assert np.allclose(apply(m, np.zeros(3)), [0.0, 0.0, 1.0])


def test_compose_invert_group_laws():
    a = Motion(np.eye(3), np.array([1.0, 2.0, 3.0]))
    b = Motion(np.eye(3), np.array([-1.0, 0.5, 0.25]))
    assert np.allclose(compose(a, b).a, a.a + b.a)
    assert np.allclose(invert(Motion(np.eye(3), E1)).a, -E1)
    rng = rng_from_seed(0)
    for _ in range(25):
        m = random_motion(rng)
        assert motion_distance(compose(m, invert(m)), Motion.identity()) < 1e-12


def test_a_motion_stack_holds_each_rows_motion_and_inverts_row_by_row():
    """A stack `Motion(A, a)` of any leading shape holds, bit for bit, the
    `Motion` of each row, in read-only copies of its parts; `invert` of it
    holds each row's inverse.  A flow over an array of times is read-only
    too."""
    rng = rng_from_seed(10)
    A = np.array([random_motion(rng).A for _ in range(6)]).reshape(2, 3, 3, 3)
    a = rng.uniform(-2.0, 2.0, (2, 3, 3))
    stack, before = Motion(A, a), (A.copy(), a.copy())
    inv = invert(stack)
    assert stack.A.shape == inv.A.shape == (2, 3, 3, 3)
    assert stack.a.shape == inv.a.shape == (2, 3, 3)
    for i, j in np.ndindex(2, 3):
        one = Motion(A[i, j], a[i, j])
        assert np.array_equal(stack.A[i, j], one.A) and np.array_equal(stack.a[i, j], one.a)
        one_inv = invert(one)
        assert np.array_equal(inv.A[i, j], one_inv.A) and np.array_equal(inv.a[i, j], one_inv.a)
    A[0, 0], a[0, 0] = 2.0 * np.eye(3), np.nan  # the stack holds copies
    assert np.array_equal(stack.A, before[0]) and np.array_equal(stack.a, before[1])
    flow = exp_element(AlgebraElement(BOOST, E3), np.linspace(-1.0, 1.0, 5))
    for part in (stack.A, stack.a, inv.A, inv.a, flow.A, flow.a):
        with pytest.raises(ValueError, match="read-only"):
            part[...] = 0.0


def test_isometry_of_differences():
    rng = rng_from_seed(1)
    for _ in range(1000):
        m = random_motion(rng)
        p = rng.uniform(-3, 3, 3)
        q = rng.uniform(-3, 3, 3)
        d0 = inner(p - q, p - q)
        d1 = inner(apply(m, p) - apply(m, q), apply(m, p) - apply(m, q))
        assert abs(d0 - d1) < 1e-9


def test_exp_nilpotent_polynomial():
    # cube-zero generator: the series truncates exactly
    assert np.allclose(NULL_ROTATION @ NULL_ROTATION @ NULL_ROTATION, 0.0)
    oracle = np.eye(3) + NULL_ROTATION + 0.5 * NULL_ROTATION @ NULL_ROTATION
    m = exp_element(AlgebraElement(NULL_ROTATION, np.zeros(3)), 1.0)
    assert np.allclose(m.A, oracle, atol=1e-15)
    assert np.allclose(apply(m, E3), [1.0, 1.0, 1.0], atol=1e-15)


def test_exp_boost_translation_coupling():
    # the generator (BOOST, beta*e3) integrates to (A_t, beta*t*e3)
    beta = 0.7
    el = AlgebraElement(BOOST, beta * E3)
    for t in (-2.0, 0.5, 3.0):
        m = exp_element(el, t)
        assert np.allclose(m.a, beta * t * E3, atol=1e-12)
        assert m.A[0, 0] == pytest.approx(np.cosh(t))


def test_exp_zero_element():
    m = exp_element(AlgebraElement(np.zeros((3, 3)), np.zeros(3)), 5.0)
    assert motion_distance(m, Motion.identity()) == 0.0


def test_exp_rejects_bad_linear_part():
    el = AlgebraElement.__new__(AlgebraElement)
    object.__setattr__(el, "X", np.eye(3))
    object.__setattr__(el, "v", np.zeros(3))
    with pytest.raises(ValueError):
        exp_element(el, 1.0)


def test_exp_rotation_periodicity():
    m = exp_element(AlgebraElement(ROTATION, np.zeros(3)), 2.0 * np.pi)
    assert motion_distance(m, Motion.identity()) < 1e-9


def _series_exp(el, t):
    """The flow of el at the time or times t by `_series_exp_pair`, checked
    by `Motion` and shaped as `exp_element` shapes the closed form's."""
    t = np.asarray(t, dtype=float)
    A, a = _series_exp_pair(t.reshape(-1, 1, 1) * el.X, t.reshape(-1, 1) * el.v)
    return Motion(A.reshape(t.shape + (3, 3)), a.reshape(t.shape + (3,)))


def test_exp_closed_vs_series_vs_scipy():
    rng = rng_from_seed(2)
    for _ in range(50):
        el = random_algebra_element(rng)
        t = rng.uniform(-5, 5)
        closed = exp_element(el, t)
        series = _series_exp(el, t)
        assert motion_distance(closed, series) < 1e-10
        H = np.zeros((4, 4))
        H[:3, :3] = t * el.X
        H[:3, 3] = t * el.v
        T = scipy.linalg.expm(H)
        assert np.max(np.abs(T[:3, :3] - closed.A)) < 1e-9
        assert np.max(np.abs(T[:3, 3] - closed.a)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.floats(-5, 5), st.floats(-5, 5), st.integers(0, 10_000))
def test_exp_one_parameter_homomorphism(s, t, seed):
    el = random_algebra_element(rng_from_seed(seed))
    lhs = exp_element(el, s + t)
    rhs = compose(exp_element(el, s), exp_element(el, t))
    assert motion_distance(lhs, rhs) < 1e-9


def test_linear_part_stays_in_group():
    rng = rng_from_seed(3)
    for _ in range(100):
        m = random_motion(rng)
        assert np.max(np.abs(m.A.T @ ETA @ m.A - ETA)) < 1e-9
        assert m.A[0, 0] >= 1.0 - 1e-12


def test_stacked_flow_rows_equal_single_flows():
    from mink1.catalog import CATALOG_IDS
    from mink1.verify import entry_variants

    ts = np.concatenate([np.linspace(-5.0, 5.0, 21), [1e-9, -3e-5, 7.25]])
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            for el in entry.basis.basis:
                for flow in (exp_element, _series_exp):
                    m = flow(el, ts)
                    A, a = m.A, m.a
                    assert A.shape == (len(ts), 3, 3) and a.shape == (len(ts), 3)
                    for k, t in enumerate(ts):
                        m = flow(el, t)
                        assert np.array_equal(A[k], m.A) and np.array_equal(a[k], m.a)


def _series_reference(M, w):
    """Scaling and squaring one matrix at a time: H is halved while its
    inf-norm exceeds 0.5 (at most 64 times), summed to 20 Taylor terms and
    squared back."""
    H = np.zeros((4, 4))
    H[:3, :3] = M
    H[:3, 3] = w
    s = 0
    while np.linalg.norm(H, np.inf) > 0.5 and s < 64:
        H = H / 2.0
        s += 1
    T = np.eye(4)
    term = np.eye(4)
    for k in range(1, 21):
        term = term @ H / k
        T = T + term
    for _ in range(s):
        T = T @ T
    return T[:3, :3], T[:3, 3]


def test_stacked_series_equals_the_per_matrix_loop():
    # inf-norms of H = [[tX, tv], [0, 0]] exactly at 0, 0.5, 0.75, 1, 2 and
    # 2^20, where the halving count's rule could be off by one, and rows
    # of one stack needing different counts
    norms = np.array([0.0, 0.5, 0.75, 1.0, 2.0, 2.0**20])
    cases = [
        (AlgebraElement(BOOST, np.zeros(3)), np.concatenate([norms[:5], -norms[1:5], [3e-3]])),
        (AlgebraElement(ROTATION, E3), np.concatenate([norms, -norms])),
        (AlgebraElement(NULL_ROTATION, E2), np.concatenate([norms[:5], -norms[:5]]) / 2.0),
        (AlgebraElement(np.zeros((3, 3)), E1), norms),
        # a subnormal translation rounds at each of the three halvings
        (AlgebraElement(4.0 * BOOST, 5.0 * 2.0**-1074 * E3), np.array([1.0, 0.25, 0.0])),
    ]
    hit = set()
    for el, ts in cases:
        m = _series_exp(el, ts)
        A, a = m.A, m.a
        for k, t in enumerate(ts):
            M, w = t * el.X, t * el.v
            hit.add(float(np.linalg.norm(np.hstack([M, w[:, None]]), np.inf)))
            RA, Ra = _series_reference(M, w)
            assert np.array_equal(A[k], RA) and np.array_equal(a[k], Ra), (el, t)
            m = _series_exp(el, t)
            assert np.array_equal(m.A, RA) and np.array_equal(m.a, Ra), (el, t)
    assert set(norms.tolist()) <= hit


def test_series_of_a_non_finite_generator_raises():
    el = AlgebraElement(ROTATION, np.zeros(3))
    for t in (np.inf, np.nan, np.array([1.0, np.inf]), 1e308):
        with pytest.raises(ValueError, match="finite"), warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _series_exp(el, t)


def test_motion_stack_raises_what_its_failing_motion_raises():
    rng = rng_from_seed(8)
    good = [random_motion(rng) for _ in range(5)]
    broken = {
        "non-finite": (np.eye(3), np.array([0.0, np.nan, 0.0])),
        "not an isometry": (1.1 * np.eye(3), np.zeros(3)),
        "det -1": (np.diag([1.0, 1.0, -1.0]), np.zeros(3)),
        "time-reversing": (np.diag([-1.0, -1.0, 1.0]), np.zeros(3)),
    }
    for name, (Ak, ak) in broken.items():
        with pytest.raises(ValueError) as alone:
            Motion(Ak, ak)
        for k in range(len(good)):
            A = np.stack([m.A for m in good])
            a = np.stack([m.a for m in good])
            A[k], a[k] = Ak, ak
            with pytest.raises(ValueError) as stacked:
                Motion(A, a)
            assert str(stacked.value) == str(alone.value), (name, k)
    Motion(np.stack([m.A for m in good]), np.stack([m.a for m in good]))


FLIP = np.diag([1.0, 1.0, -1.0])  # orientation reversing, time preserving


def _flow(X, t):
    return exp_element(AlgebraElement(X, np.zeros(3)), t).A


def test_orientation_reversal_is_rejected_at_every_size():
    for phi in (15.0, 20.0):  # entries 1.6e6 and 2.4e8
        A = _flow(BOOST, phi) @ FLIP
        with pytest.raises(ValueError, match="determinant 1"):
            Motion(A, np.zeros(3))
        with pytest.raises(ValueError, match="determinant 1"):
            Motion(np.stack([np.eye(3), A, np.eye(3)]), np.zeros((3, 3)))


def test_composite_flows_keep_their_orientation():
    """exp(t1 BOOST) exp(t2 ROTATION) exp(t3 NULL_ROTATION) exp(t4 BOOST),
    |t| <= 60, is a motion unless roundoff fails its isometry residual, and
    its product with an orientation reversal is not."""
    rng = rng_from_seed(17)
    accepted = 0
    for t in rng.uniform(-60.0, 60.0, (300, 4)):
        A = _flow(BOOST, t[0]) @ _flow(ROTATION, t[1]) @ _flow(NULL_ROTATION, t[2]) \
            @ _flow(BOOST, t[3])
        try:
            Motion(A[None], np.zeros((1, 3)))
        except ValueError as err:
            assert "not an isometry" in str(err)
            continue
        accepted += 1
        with pytest.raises(ValueError, match="determinant 1"):
            Motion((A @ FLIP)[None], np.zeros((1, 3)))
    assert accepted >= 295


def test_stacked_random_motions_equal_the_per_motion_loop():
    def reference(rng):  # one motion at a time: exp by the closed form, then a Motion
        c = rng.uniform(-1.0, 1.0, 3)
        X = c[0] * BOOST + c[1] * ROTATION + c[2] * NULL_ROTATION
        return Motion(_closed_exp_pair(X[None], np.zeros((1, 3)))[0][0],
                      rng.uniform(-2.0, 2.0, 3))

    for seed in (0, 42, 2024):
        ref_rng, rng = rng_from_seed(seed), rng_from_seed(seed)
        ref = [reference(ref_rng) for _ in range(50)]
        stack = random_motions(rng, 50)
        A, a = stack.A, stack.a
        assert np.array_equal(A, [m.A for m in ref]) and np.array_equal(a, [m.a for m in ref])
        one, ref_one = random_motion(rng), reference(ref_rng)
        assert np.array_equal(one.A, ref_one.A) and np.array_equal(one.a, ref_one.a)
        assert rng.random() == ref_rng.random()


def test_motion_faults_per_row_equal_the_per_motion_outcomes():
    """One call judges a mixed stack row by row, as `Motion` judges each row
    alone; a stack `Motion` raises the first failing row's message."""
    rng = rng_from_seed(9)
    rows = [(m.A, m.a) for m in (random_motion(rng) for _ in range(4))] + [
        (np.eye(3), np.array([0.0, np.inf, 0.0])),  # non-finite
        (np.diag([np.nan, 1.0, 1.0]), np.zeros(3)),
        (1.1 * np.eye(3), np.zeros(3)),  # not an isometry
        (1e200 * np.eye(3), np.zeros(3)),
        (_flow(BOOST, 15.0) @ FLIP, np.zeros(3)),  # orientation reversed
        (np.diag([-1.0, -1.0, 1.0]), np.zeros(3)),  # time reversed
    ]
    for trial in range(5):
        order = rng.permutation(len(rows))
        A, a = np.array([rows[k][0] for k in order]), np.array([rows[k][1] for k in order])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            faults = motion_faults(A, a)
            for Ak, ak, fault in zip(A, a, faults):
                try:
                    Motion(Ak, ak)
                    want = None
                except ValueError as exc:
                    want = str(exc)
                assert fault == want
            with pytest.raises(ValueError) as first:
                Motion(A, a)
        assert str(first.value) == next(f for f in faults if f)
    assert motion_faults(A[order.argsort()][:4], a[order.argsort()][:4]) == [None] * 4


def test_overflowing_entries_are_not_an_isometry():
    """A^T eta A and its tolerance both overflow at 1e200 I; judged on A over
    the power of two of its peak, the residual is finite and fails."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="linear part is not an isometry"):
            Motion(1e200 * np.eye(3), np.zeros(3))
        with pytest.raises(ValueError, match="linear part is not an isometry"):
            Motion(np.stack([np.eye(3), 1e300 * ETA]), np.zeros((2, 3)))
    # every witness flow, whose boosts reach entries ~ e^20, is still a motion
    for id_ in NONPROPER_IDS:
        w = make_witness(build(id_))
        flow = exp_element(w.generator, np.arange(1.0, 21.0))
        assert motion_faults(flow.A, flow.a) == [None] * 20


def test_causal_of_svd_on_a_mixed_stack_equals_each_row_alone():
    """Ranks 0-3 in one stack, Gram eigenvalues of every sign in one row, an
    exactly zero one (a null and a spacelike row) and a NaN one: each label
    equals the row's label alone and the per-eigenvalue rule (zero ->
    degenerate, else negative -> lorentzian)."""
    rng = rng_from_seed(41)
    vh = [np.linalg.qr(rng.normal(size=(3, 3)))[0].T for _ in range(12)]
    vh += [np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 0.0]]),  # signs {-1, 0, 1}
           np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0], [0.5, -0.5, 0.0]]),  # Gram diag(0, 1)
           np.array([[np.nan, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
    vh = np.array(vh)
    rank = [0, 1, 2, 3] * 3 + [3, 2, 2]
    with np.errstate(invalid="ignore"):
        got = causal_of_svd(rank, vh)
        alone = [causal_of_svd([r], v[None])[0] for r, v in zip(rank, vh)]
        gram = [np.linalg.eigvalsh(v[:r] @ ETA @ v[:r].T) for r, v in zip(rank, vh)]
    assert got == alone
    for r, v, eig, label in zip(rank, vh, gram, got):
        signs = {sign_of(e, STRUCT_TOL) for e in eig}
        if r == 0:
            assert label == ZERO_VECTOR
        elif r == 1:
            assert label == causal_character(v[0])
        else:
            assert label == (DEGENERATE if 0 in signs else LORENTZIAN if -1 in signs
                             else RIEMANNIAN)
    assert got[-3:] == [DEGENERATE, DEGENERATE, DEGENERATE]
    assert np.isnan(gram[-1]).any() and 0.0 in gram[-2]
    assert {LORENTZIAN, RIEMANNIAN} <= set(got)
