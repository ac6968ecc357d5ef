"""Signature-(1,2) linear algebra on R^3 and its rigid motions.

The scalar product is ``<x, y> = -x1*y1 + x2*y2 + x3*y3``.  Points and
vectors are plain numpy arrays of shape ``(3,)``.  A motion is the pair
``(A, a)`` acting by ``x -> A @ x + a``, with ``A`` constrained to the
identity component of the linear isometry group (``A^T eta A = eta``,
``det A = 1``, ``A[0, 0] >= 1``, i.e. orientation and time-orientation
preserving).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# metric and distinguished directions
ETA = np.diag([-1.0, 1.0, 1.0])
E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])
E3 = np.array([0.0, 0.0, 1.0])
NULL_PLUS = E1 + E2
NULL_MINUS = E1 - E2

# Generators of the linear isometry algebra (X^T eta + eta X = 0):
# BOOST mixes e1,e2, ROTATION turns the spacelike e2,e3 plane, and
# NULL_ROTATION is nilpotent (cube zero) and fixes the null line R(e1+e2).
BOOST = np.array([[0.0, 1.0, 0.0],
                  [1.0, 0.0, 0.0],
                  [0.0, 0.0, 0.0]])
ROTATION = np.array([[0.0, 0.0, 0.0],
                     [0.0, 0.0, 1.0],
                     [0.0, -1.0, 0.0]])
NULL_ROTATION = np.array([[0.0, 0.0, 1.0],
                          [0.0, 0.0, 1.0],
                          [1.0, -1.0, 0.0]])

# causal characters of vectors
TIMELIKE = "timelike"
NULL = "null"
SPACELIKE = "spacelike"
ZERO_VECTOR = "zero-vector"

# causal characters of the induced metric on a subspace
LORENTZIAN = "lorentzian"
DEGENERATE = "degenerate"
RIEMANNIAN = "riemannian"

# one-parameter subgroup types
ZERO = "zero"
ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"
PARABOLIC = "parabolic"

# The decision tolerances, each beside the scale it multiplies; README's
# "Numerical decisions" tabulates their sites and the three forms of a cut.
STRUCT_TOL = 1e-9  # s[0] in ranks, max(1, max|X|) in so12_check; m^2, max|X0| and
#                    max(1, |p|^2) at the sites README names; else 1
MOTION_TOL = 1e-9  # max(1, |A|^2) in a motion's isometry residual; 1 in A00 >= 1
SPAN_MATCH_TOL = 1e-6  # 1: the classifier's two-way span residual, already relative
STANDARDIZE_TOL = 1e-8  # max(1, |lam|): a standardized generator's residual
ZERO_TOL = 1e-12  # 1: a coordinate, or <n, n>, of a vector of unit size
NILPOTENT_TOL = 1e-6  # max|S|: the shape operator's eigenvalue gap and rank
FIXED_POINT_TOL = 1e-8  # 1: how far exp(n g) may move a witness point


def numeric_rank(s):
    """Numerical rank from singular values sorted in decreasing order.

    Counts the values above ``STRUCT_TOL * s[0]`` (Golub & Van Loan, numerical
    rank by a relative singular-value cutoff); an empty or all-zero
    input has rank 0.  A 1-D input gives an int; a stack of rows
    ``s[..., k]``, as a batched SVD returns them, gives an integer array
    of the rank of each row.
    """
    s = np.asarray(s)
    above = s > STRUCT_TOL * s[..., :1]
    if s.ndim == 1:
        return int(np.count_nonzero(above))
    return above.sum(axis=-1)


def sign_of(x, cut):
    """-1, 0 or +1: the sign of x, reading |x| <= cut (and NaN) as 0.

    Every sign and zero test decides by this rule, `cut` a tolerance of the
    table above times the caller's scale.  A scalar (a numpy one too) is
    taken as a Python float and gives an int; an array x gives the int
    array of signs.
    """
    if not isinstance(x, np.ndarray):
        x, cut = float(x), float(cut)
        return (x > cut) * 1 - (x < -cut)
    return np.subtract(x > cut, x < -cut, dtype=int)


def inner(u, v):
    """Scalar product of signature (1,2): -u1*v1 + u2*v2 + u3*v3, a float;
    stacks u[..., 3], v[..., 3] of one shape give the array of their rows'
    products.  Two vectors unpack into numpy scalars, whose arithmetic is
    cheaper than that of 0-d arrays and gives the same bits."""
    (a, b, c), (x, y, z) = np.asarray(u, dtype=float).T, np.asarray(v, dtype=float).T
    q = (-a * x + b * y + c * z).T
    return q if q.ndim else float(q)


_VECTOR_BY_SIGN = {-1: TIMELIKE, 0: NULL, 1: SPACELIKE}
# generator classes at index sign(tr X^2) + 1, and ZERO last
_GENERATOR_CLASSES = np.array([ELLIPTIC, PARABOLIC, HYPERBOLIC, ZERO], dtype=object)
_ETA_DIAG = np.diag(ETA)[:, None]  # eta U = _ETA_DIAG * U, exactly
# what `motion_faults` reports for each of its rules, in order
_MOTION_FAULTS = ("Motion components must be finite",
                  "linear part is not an isometry (residual {:.3e})",
                  "linear part must have determinant 1",
                  "linear part must preserve time orientation (A[0,0] >= 1)")


def causal_character(v) -> str:
    """Classify a vector as timelike / null / spacelike / zero-vector.

    Only an exact zero (or NaN) vector is the zero vector.  <v, v> is cut at
    STRUCT_TOL * m^2 on v divided by the power of two that puts its sup-norm
    m in [0.5, 1), so the trichotomy is the same at every scale.
    """
    x, y, z = np.asarray(v, dtype=float).tolist()
    m, e = math.frexp(max(abs(x), abs(y), abs(z)))
    if not m or math.isnan(x + y + z):
        return ZERO_VECTOR
    x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    return _VECTOR_BY_SIGN[sign_of(-x * x + y * y + z * z, STRUCT_TOL * m * m)]


def so12_check(X):
    """True iff X is an infinitesimal isometry: X^T eta + eta X = 0.

    Componentwise, within STRUCT_TOL * max(1, max|X|), so that a multiple
    of X reads alike: zero diagonal, X12 = X21, X13 = X31, X23 = -X32.  A
    non-finite entry fails, without a warning.  A stack X[..., 3, 3] gives
    the bool array of its matrices' verdicts; any other shape reads False.
    """
    X = np.asarray(X, dtype=float)
    if X.shape[-2:] != (3, 3):
        return False
    # an inf entry makes the cut inf, and then fails; a NaN one fails its deviation
    if X.ndim == 2:  # Python floats, which never warn
        x = X.ravel().tolist()
        x11, x12, x13, x21, x22, x23, x31, x32, x33 = x
        cut = STRUCT_TOL * max(1.0, max(x), -min(x))
        return (cut < math.inf and abs(x11) <= cut and abs(x22) <= cut and abs(x33) <= cut
                and abs(x12 - x21) <= cut and abs(x13 - x31) <= cut and abs(x23 + x32) <= cut)
    # the same six values for a stack: x11 - 0 x11, ..., x12 - x21, x13 - x31, x23 + x32
    flat = X.reshape(-1, 9)[:, _SO12_AT]  # the six pairs' first entries, then their second
    with np.errstate(over="ignore", invalid="ignore"):
        dev = abs(flat[:, :6] - flat[:, 6:] * _SO12_SIGN)
    ok = (dev <= STRUCT_TOL).all(axis=1)  # within the least cut: finite, and within its own
    if not ok.all():
        cut = STRUCT_TOL * abs(flat).max(axis=1, keepdims=True, initial=1.0)
        ok = (dev <= cut).all(axis=1) & (cut[:, 0] < np.inf)
    return ok.reshape(X.shape[:-2])


_SO12_AT = np.array([0, 4, 8, 1, 2, 5, 0, 4, 8, 3, 6, 7])
_SO12_SIGN = np.array([0.0, 0.0, 0.0, 1.0, 1.0, -1.0])


def generator_class(X) -> str:
    """One-parameter subgroup type of X, decided by the sign of tr(X^2).

    tr(X^2) < 0 means a rotation conjugate (elliptic), > 0 a boost
    conjugate (hyperbolic); trace zero with X nonzero is the nilpotent
    class (parabolic).  tr(X^2) is conjugation invariant, so this is a
    well-defined classification of the generated subgroup.  A stack
    X[..., 3, 3] gives the object array of its matrices' classes.
    """
    X = np.asarray(X, dtype=float)
    zero = sign_of(np.abs(X).max(axis=(-2, -1), initial=0.0), STRUCT_TOL) == 0
    trace = (X @ X).trace(axis1=-2, axis2=-1)
    return _GENERATOR_CLASSES[np.where(zero, 3, sign_of(trace, STRUCT_TOL) + 1)]


def motion_faults(A, a) -> list:
    """The rule every motion is validated by, applied once to a stack
    (A[N, 3, 3], a[N, 3]): per motion, None or the message of the first
    rule it breaks."""
    peak = abs(A).max(axis=(1, 2))  # NaN or inf with any entry
    finite = np.isfinite(peak) & np.isfinite(a).all(axis=1)
    if not finite.all():
        A = np.where(finite[:, None, None], A, 0.0)
    # the isometry residual and its tolerance MOTION_TOL max(1, ||A||^2) (roundoff grows
    # so; witness boosts reach e^20) are taken on U = 2^-e A, exact, ||U|| < 1: no overflow
    s = np.ldexp(1.0, -np.maximum(np.frexp(peak)[1], 0))
    U, unit = A * s[:, None, None], s * s
    res = abs(U.transpose(0, 2, 1) @ (_ETA_DIAG * U) - unit[:, None, None] * ETA).max(axis=(1, 2))
    # the residual pins |det A| to 1, and A^-1 = eta A^T eta makes the (0, 0)
    # cofactor det A[1:, 1:] = A00 det A: a 2x2 sign that holds at every size
    minor = U[:, 1, 1] * U[:, 2, 2] - U[:, 1, 2] * U[:, 2, 1]
    rules = (finite, res <= MOTION_TOL * np.maximum(unit, np.square(peak * s)),
             U[:, 0, 0] * np.sign(minor) > 0.0, A[:, 0, 0] >= 1.0 - MOTION_TOL)
    ok = rules[0] & rules[1] & rules[2] & rules[3]
    faults = [None] * len(A)
    for k in () if ok.all() else np.flatnonzero(~ok).tolist():
        why = _MOTION_FAULTS[[r[k] for r in rules].index(False)]
        faults[k] = why.format(float(res[k]) / float(s[k]) / float(s[k]))  # A's residual
    return faults


def _checked_motion(A, a) -> "Motion":
    """The `Motion` of fresh float arrays A[..., 3, 3], a[..., 3] that
    `motion_faults` has passed, or that a caller compares unchecked: made
    read-only and wrapped, neither copied nor checked again."""
    m = object.__new__(Motion)
    for name, x in (("A", A), ("a", a)):
        x.setflags(write=False)
        object.__setattr__(m, name, x)
    return m


def _validated(A, a) -> "Motion":
    """`_checked_motion` of fresh arrays once `motion_faults` passes every
    row; else the first failing row's ValueError."""
    for fault in filter(None, motion_faults(A.reshape(-1, 3, 3), a.reshape(-1, 3))):
        raise ValueError(fault)
    return _checked_motion(A, a)


@dataclass(frozen=True, eq=False)
class Motion:
    """An isometry x -> A x + a in the identity component, or a stack of
    them with parts A[..., 3, 3] and a[..., 3]: the parts are copied and
    every row is decided by `motion_faults`, the first failing row's
    message raised."""

    A: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        A, a = np.array(self.A, dtype=float), np.array(self.a, dtype=float)
        if A.shape[-2:] != (3, 3) or a.shape != A.shape[:-1]:
            raise ValueError("Motion needs parts A[..., 3, 3] and a[..., 3]")
        m = _validated(A, a)
        object.__setattr__(self, "A", m.A)
        object.__setattr__(self, "a", m.a)

    @classmethod
    def identity(cls) -> "Motion":
        return cls(np.eye(3), np.zeros(3))

    def __repr__(self):
        return f"Motion(A={self.A.tolist()}, a={self.a.tolist()})"


def apply(m, p) -> np.ndarray:
    """Act on a point: A p + a.  A stack of motions acts on one point, or
    on a stack of points row by row; each row has the bits of its own."""
    return (m.A @ np.asarray(p, dtype=float)[..., None])[..., 0] + m.a


def compose(m1, m2):
    """Group law: (A1, a1)(A2, a2) = (A1 A2, A1 a2 + a1); for two stacks,
    row by row, each row bit for bit the composition of its motions."""
    return _validated(m1.A @ m2.A, (m1.A @ m2.a[..., None])[..., 0] + m1.a)


def invert(m):
    """Group inverse (A^-1, -A^-1 a); A^-1 = eta A^T eta for isometries.
    For a stack, row by row, each row bit for bit the inverse of its motion."""
    Ai = ETA @ m.A.swapaxes(-2, -1) @ ETA
    return _validated(Ai, (-Ai @ m.a[..., None])[..., 0])


def motion_distance(m1, m2):
    """Sup-norm distance between two motions' components (per row of stacks)."""
    return np.maximum(np.abs(m1.A - m2.A).max(axis=(-2, -1)), np.abs(m1.a - m2.a).max(axis=-1))


def _exp_coeffs(kappa: float):
    """The analytic coefficients c_j(kappa) = sum_k kappa^k / (2k+j)!.

    With kappa = tr(M^2)/2 every M in the isometry algebra satisfies
    M^3 = kappa M, so exp(M) = I + c1 M + c2 M^2 and the translation
    factor V(M) = sum M^k/(k+1)! equals I + c2 M + c3 M^2.
    """
    if abs(kappa) < 1e-8:
        k = kappa
        c1 = 1.0 + k / 6.0 + k * k / 120.0 + k ** 3 / 5040.0
        c2 = 0.5 + k / 24.0 + k * k / 720.0 + k ** 3 / 40320.0
        c3 = 1.0 / 6.0 + k / 120.0 + k * k / 5040.0 + k ** 3 / 362880.0
        return c1, c2, c3
    if kappa < 0.0:
        w = math.sqrt(-kappa)
        return (
            math.sin(w) / w,
            (1.0 - math.cos(w)) / (w * w),
            (w - math.sin(w)) / (w ** 3),
        )
    w = math.sqrt(kappa)
    return (
        math.sinh(w) / w,
        (math.cosh(w) - 1.0) / (w * w),
        (math.sinh(w) - w) / (w ** 3),
    )


def _closed_exp_pair(M: np.ndarray, w: np.ndarray):
    """(exp(M), V(M) w) per row of stacks M[N, 3, 3], w[N, 3], by the
    cubic-recursion closed form M^3 = kappa M.

    The coefficients are taken one kappa at a time with `math`: numpy's
    vectorized sin and cosh can differ in the last bit."""
    M2 = M @ M
    kappa = 0.5 * np.trace(M2, axis1=-2, axis2=-1)
    c1, c2, c3 = np.array([_exp_coeffs(k) for k in kappa.tolist()]).T[..., None, None]
    eye = np.eye(3)
    return eye + c1 * M + c2 * M2, ((eye + c2 * M + c3 * M2) @ w[..., None])[..., 0]


def _series_exp_pair(M: np.ndarray, w: np.ndarray):
    """Scaling-and-squaring Taylor exponential of [[M, w], [0, 0]] per row
    of stacks M[N, 3, 3], w[N, 3].

    The corner of the 4x4 exponential is V(M) w, so this returns the
    same (linear part, translation) pair as the closed form and serves
    as its independent cross-check: each H is halved s times, s the least
    s >= 0 (at most 64) with inf-norm * 2^-s <= 0.5, the 20 Taylor terms
    are summed for the whole stack, and each row is squared back s times."""
    H = np.concatenate([np.concatenate([M, w[..., None]], -1), np.zeros((len(M), 1, 4))], -2)
    mant, e = np.frexp(abs(H).sum(axis=-1).max(axis=-1))  # inf-norm = mant * 2^e
    s = np.clip(e + (mant > 0.5) + 64 * np.isinf(mant), 0, 64)
    # one halving at a time: a subnormal entry rounds at each step
    for k in range(s.max(initial=0)):
        H[s > k] *= 0.5
    T = term = np.eye(4)
    for k in range(1, 21):
        term = term @ H / k
        T = T + term
    for k in range(s.max(initial=0)):
        T[s > k] = T[s > k] @ T[s > k]
    return T[:, :3, :3].copy(), T[:, :3, 3].copy()


def exp_element(el, t: float = 1.0):
    """Time-t flow of the infinitesimal isometry (X, v).

    Returns the Motion (exp(tX), V(tX) (t v)) by the cubic closed form
    (trig / hyperbolic / polynomial depending on the class of X);
    `_series_exp_pair`, scaling-and-squaring on the 4x4 homogeneous
    embedding, is its independent cross-check.  An array of times t[N]
    gives a `Motion` stack (A[N, 3, 3], a[N, 3]), validated once; a single
    t is a stack of one, and each row equals its t alone, bit for bit.
    """
    X, v, t = (np.asarray(x, dtype=float) for x in (el.X, el.v, t))
    if not so12_check(X):
        raise ValueError("linear part is not an infinitesimal isometry")
    A, a = _closed_exp_pair(t.reshape(-1, 1, 1) * X, t.reshape(-1, 1) * v)
    return _validated(A.reshape(t.shape + (3, 3)), a.reshape(t.shape + (3,)))


def causal_of_span(vectors) -> str:
    """Causal character of the subspace spanned by the given vectors.

    One-dimensional spans are classified as vectors; higher-dimensional
    spans by the signature of the induced Gram matrix on a Euclidean-
    orthonormalized basis (one negative eigenvalue -> lorentzian, a
    kernel -> degenerate, otherwise riemannian).
    """
    V = np.atleast_2d(np.asarray(vectors, dtype=float))
    _, s, vh = np.linalg.svd(V)
    return causal_of_svd([numeric_rank(s)], vh[None])[0]


def _rows(at, n):  # increasing row numbers of a stack of n: a slice, a view, if all
    return slice(None) if len(at) == n else at


def causal_of_svd(rank, vh) -> list:
    """`causal_of_span` of the rows of each matrix of a stack, from their
    numerical ranks and the right singular vectors vh[N, 3, 3] of a
    batched SVD: per rank, one batched eigvalsh and one `sign_of`."""
    out = [ZERO_VECTOR] * len(rank)
    for r in set(rank) - {0}:
        at = [k for k, rk in enumerate(rank) if rk == r]
        Q = vh[_rows(at, len(rank)), :r]
        if r == 1:
            chars = [causal_character(q) for q in Q[:, 0]]
        else:
            signs = sign_of(np.linalg.eigvalsh(Q @ ETA @ Q.transpose(0, 2, 1)), STRUCT_TOL)
            chars = [DEGENERATE if 0 in sg else LORENTZIAN if -1 in sg else RIEMANNIAN
                     for sg in signs.tolist()]
        for k, c in zip(at, chars):
            out[k] = c
    return out
