"""Classification of subalgebras into the sixteen-family catalog.

The classifier runs on a stack R[B, n, 12] of bases of one dimension
(`classify_stack`); `classify` is the same code on a stack of one, and a
stack gives each basis the answer it gets alone, to roundoff.  Each step
runs once per stack: power-of-two normalization -> the conjugation
invariants (one stacked bracket product, one batched SVD of the linear
parts) -> per signature group, stacked frames standardizing the linear
part onto the reference generators -> one stacked solve removing every
removable translation -> an exact match on the signature tuple,
certified by the two-way span residual between the conjugated basis and
the catalog basis.

Normalization divides each basis's translation block by the power of two
of max|v| / max|X| (undoing a dilation of space), then each row by the
power of two of its max-abs entry.  Powers of two are exact, so a basis
scaled or dilated by 2^k gives bit-identical rows and the same answer;
beta (P-d, N-vii, N-x) and the conjugator's translation are scaled back,
so the certificate holds in the input's frame.

Every outcome is a Classification or a Rejection, one per basis, in
order.  A basis whose numbers defeat a step (a bracket or conjugate
outside the membership tolerances, a failed standardization, a
conjugator that is not an isometry) is rejected as unmatched with that
step's message while the other bases go on; valid bases never raise.

Two normalization conventions are part of the contract:

* The boost-family twins (null direction e1+e2 versus e1-e2) are
  separated by the sign of the boost eigenvalue on the kernel's null
  line, measured on the *first supplied generator with a linear part*.
  The two members of each twin pair are conjugate to each other by the
  half-turn rotation, so no basis-free invariant separates them; the
  orientation of the supplied generator is what the returned id tracks.
* The null-rotation family's translation parameter is removable by a
  translation conjugation, so classify always reports it as 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import catalog
from .algebra import (
    _NOT_SO12,
    _TINY,
    SubalgebraSpec,
    _closure,
    _independent_row_space,
    _linear_split,
    _require_rows,
    _row_space,
    _span_residuals,
)
from .minkowski import (BOOST, DEGENERATE, ELLIPTIC, ETA, HYPERBOLIC, LORENTZIAN, NULL,
                        NULL_ROTATION, PARABOLIC, RIEMANNIAN, ROTATION, SPACELIKE, SPAN_MATCH_TOL,
                        STANDARDIZE_TOL, STRUCT_TOL, TIMELIKE, ZERO, ZERO_TOL, Motion,
                        _checked_motion, _rows, causal_of_svd, generator_class,
                        motion_faults, sign_of, so12_check)

REASON_NOT_SUBALGEBRA = "not-a-subalgebra"
REASON_NOT_COHOMOGENEITY_ONE = "not-cohomogeneity-one"
REASON_UNMATCHED = "unmatched"

TWO_DIM_SOLVABLE = "two-dim-solvable"
FULL = "full"


@dataclass(frozen=True)
class InvariantSignature:
    dim_g: int
    dim_l: int
    linear_type: str
    dim_ker_l: int
    ker_causal: Optional[str]
    eigen_sign: Optional[float]


@dataclass(frozen=True)
class Classification:
    id: str
    params: dict
    conjugator: Motion
    residual: float
    signature: InvariantSignature


@dataclass(frozen=True)
class Rejection:
    reason: str
    detail: str
    signature: Optional[InvariantSignature] = None


# generator class -> (reference generator, entry of the standardized
# matrix that holds its coefficient)
_REFERENCE = {
    ELLIPTIC: (ROTATION, (1, 2)),
    HYPERBOLIC: (BOOST, (0, 1)),
    PARABOLIC: (NULL_ROTATION, (0, 2)),
}
# linear type -> the reference generators T[t, 3, 3] spanning its standard
# position (a single generator is its own class's)
_TARGETS = {ZERO: np.zeros((0, 3, 3)), TWO_DIM_SOLVABLE: np.array([BOOST, NULL_ROTATION]),
            FULL: np.array([BOOST, ROTATION, NULL_ROTATION]),
            **{kind: ref[None] for kind, (ref, _) in _REFERENCE.items()}}
_SIGNS = np.array([-1.0, 1.0, 1.0])  # the diagonal of ETA
_NO_GAP, _EYE = np.iinfo(np.int32).min, np.eye(3)
_AXIS_AT, _AXIS_SIGNS = np.array([5, 2, 1, 7, 6, 3]), np.array([1.0, 1.0, -1.0, -1.0, 1.0, -1.0])


def _ip(u, w):  # <u, w> per row of stacks of vectors
    return (u * _SIGNS * w).sum(axis=-1)


def _mv(A, x):  # A x per row of stacks of matrices and vectors
    return (A @ x[..., None])[..., 0]


def _cross(a, b):  # a x b per row of stacks of vectors, from one copy of a, a, b, b
    ab = np.concatenate([a, a, b, b], axis=-1)
    return ab[..., 1:4] * ab[..., 8:11] - ab[..., 2:5] * ab[..., 7:10]


def _note(detail, ok, message) -> None:
    """Give each row outside the mask `ok` not failed yet `message` (or message(k))."""
    for k, good in enumerate(ok.tolist()):
        if not good and detail[k] is None:
            detail[k] = message(k) if callable(message) else message


# ---------------------------------------------------------------------------
# stacked frames: the columns of each C[k] form an eta-orthonormal basis in
# the identity component, moving distinguished lines onto the reference
# positions.  A row's failure goes to the list `detail`; callers run under
# np.errstate, so a failed row's NaNs stay silent until it is dropped.


def _frame(u1, u2, detail):
    """Columns u1 (unit timelike), u2 (unit spacelike, eta-orthogonal to u1)
    and eta (u1 x u2) made unit: eta-orthogonal to both, and giving the
    positive determinant <u1 x u2, u1 x u2>^(1/2)."""
    z = _cross(u1, u2)
    n = _ip(z, z)
    _note(detail, n > 0, "completion direction is not spacelike")
    return np.array([u1, u2, z * _SIGNS / np.sqrt(n)[:, None]]).transpose(1, 2, 0)


def _frame_from_timelike(v, s, detail):
    """First column the future unit vector along the timelike v, second in
    span{v, s}; s None is the coordinate axis least aligned with v."""
    q = _ip(v, v)
    _note(detail, q < 0, "axis is not timelike")
    u1 = v / np.sqrt(-q)[:, None]
    u1 = np.where(u1[:, :1] < 0, -u1, u1)
    if s is None:
        s = _EYE[abs(u1).argmin(axis=1)]
    u2 = s + _ip(s, u1)[:, None] * u1
    n = _ip(u2, u2)
    _note(detail, n > 0,
          lambda k: f"second frame vector u2 is not spacelike (<u2, u2> = {n[k]:.3e})")
    return _frame(u1, u2 / np.sqrt(n)[:, None], detail)


def _frame_from_null(n, detail):
    """e1+e2 onto the future null n / n1, e1-e2 onto m = (n1, -n2, -n3)
    scaled to <n, m> = -2."""
    _note(detail, sign_of(n[:, 0], ZERO_TOL) != 0, "direction is not null")
    n = n / n[:, :1]
    m = -n * _SIGNS
    m = m * (-2.0 / _ip(n, m))[:, None]
    return _frame(0.5 * (n + m), 0.5 * (n - m), detail)


def _frame_from_boost_plane(X, detail):
    """For hyperbolic X with spacelike axis a: w, the timelike projection of
    e1 on the Lorentzian plane eta-orthogonal to a, onto e1 and X w onto
    e2.  X acts there as lam * BOOST, lam = |X w| / |w| > 0, so the positive
    null eigendirection lam w + X w lands on e1+e2."""
    a = _axis(X)
    w = _EYE[0] + a[:, :1] / _ip(a, a)[:, None] * a
    return _frame_from_timelike(w, _mv(X, w), detail)


def _axis(X):
    """The kernel direction (X23, X13, -X12) of each X in so(1,2), from the
    entries averaged with their mirror images (X32, X31, X21), gathered once."""
    F = X.reshape(len(X), 9)[:, _AXIS_AT] * _AXIS_SIGNS
    return 0.5 * (F[:, :3] + F[:, 3:])


_FRAMES = {
    ELLIPTIC: lambda X, detail: _frame_from_timelike(_axis(X), None, detail),
    HYPERBOLIC: _frame_from_boost_plane,
    PARABOLIC: lambda X, detail: _frame_from_null(_axis(X), detail),
}


def _standardize(X, kind):
    """`standardize_linear` per matrix of a stack X[m, 3, 3] of generator
    class `kind`: C[m], lam[m] and each row's failure message or None."""
    if kind == ZERO:
        return (np.tile(_EYE, (len(X), 1, 1)), np.zeros(len(X)),
                ["cannot standardize the zero matrix"] * len(X))
    ref, (i, j) = _REFERENCE[kind]
    detail = [None] * len(X)
    C = _FRAMES[kind](X, detail)
    Y = ETA @ C.swapaxes(1, 2) @ ETA @ X @ C
    lam = Y[:, i, j]
    res = abs(Y - lam[:, None, None] * ref).max(axis=(1, 2))
    _note(detail, res <= STANDARDIZE_TOL * np.maximum(1.0, abs(lam)),
          lambda k: f"standardization failed (residual {res[k]:.3e})")
    return C, lam, detail


def standardize_linear(X):
    """A conjugation C with C^-1 X C = lam * (reference generator).

    The reference is ROTATION for elliptic X (via its timelike axis,
    moved onto R e1), BOOST for hyperbolic X (null eigendirections onto
    e1 +- e2, the positive eigendirection landing on e1+e2, so lam > 0),
    and NULL_ROTATION for parabolic X (kernel null line onto R(e1+e2)).
    For elliptic and parabolic X the sign of lam is itself an invariant
    of the conjugacy class and is reported as computed.  The conjugate
    must match lam * reference to STANDARDIZE_TOL * max(1, |lam|).
    """
    X = np.asarray(X, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        C, lam, detail = _standardize(X[None], generator_class(X))
    if detail[0] is not None:
        raise ValueError(detail[0])
    return C[0], float(lam[0])


def _null_combination(rows):
    """The null direction of each degenerate plane spanned by rows[m, 2, 3],
    along the Gram eigenvector of least |eigenvalue|."""
    w, vecs = np.linalg.eigh(rows @ ETA @ rows.swapaxes(1, 2))
    return np.einsum("ka,kai->ki", vecs[np.arange(len(w)), :, abs(w).argmin(axis=1)], rows)


def _frames(sig, lvh, kvh, X0):
    """Per basis of a signature group: C[m] whose inverse standardizes the
    linear part (the translation plane, at dim_l = 0), and each row's
    failure message; a failed row's C is the identity."""
    m, kb = len(X0), kvh[:, :2]
    if sig.dim_l == 1:
        C, _, detail = _standardize(X0, sig.linear_type)
    elif sig.dim_l == 2:  # through the unique nilpotent direction of the span
        L = lvh[:, :2].reshape(m, 2, 3, 3)
        w, vecs = np.linalg.eigh(np.einsum("kaij,kbji->kab", L, L))
        N0 = np.einsum("ka,kaij->kij", vecs[np.arange(m), :, abs(w).argmin(axis=1)], L)
        lead = N0.reshape(m, 9)[np.arange(m), abs(N0).reshape(m, 9).argmax(axis=1)]
        C, _, detail = _standardize(np.where(lead < 0, -1.0, 1.0)[:, None, None] * N0, PARABOLIC)
    elif sig.dim_l == 3:
        C, detail = np.tile(_EYE, (m, 1, 1)), [None] * m
    else:  # dim_l = 0: the translation plane onto its reference position
        detail = [None] * m
        if sig.ker_causal == RIEMANNIAN:  # the plane normal is timelike
            C = _frame_from_timelike(_cross(kb[:, 0] * _SIGNS, kb[:, 1] * _SIGNS), None, detail)
        elif sig.ker_causal == LORENTZIAN:  # the negative Gram direction is timelike
            vecs = np.linalg.eigh(kb @ ETA @ kb.swapaxes(1, 2))[1]
            C = _frame_from_timelike(*(np.einsum("ka,kai->ki", vecs[:, :, i], kb)
                                       for i in (0, 1)), detail)
        else:
            C = _frame_from_null(_null_combination(kb), detail)
    if any(d is not None for d in detail):
        C[[d is not None for d in detail]] = _EYE
    return C, detail


# ---------------------------------------------------------------------------
# invariants


def _unit_rows(R):
    """Each row of R[..., 12] divided by the power of two of its max-abs."""
    return np.ldexp(R, -np.frexp(abs(R).max(axis=-1, keepdims=True))[1])


def _undilated(R):
    """Unit rows R[B, n, 12] with each basis's translations divided by 2^e,
    made unit rows again (R itself where every e is 0), and e[B]: 2^e is the
    power of two of max|v| / max|X| over the rows with both parts (a pure
    translation has a scale, but no length)."""
    peaks = np.maximum.reduceat(abs(R), (0, 9), axis=-1)  # max|X|, max|v| per row
    exps = np.frexp(peaks)[1]
    gap = np.where((peaks > 0).all(axis=-1), exps[..., 1] - exps[..., 0], _NO_GAP)
    e = gap.max(axis=1, initial=_NO_GAP)
    e = np.where(e == _NO_GAP, 0, e)
    return (_unit_rows(np.concatenate([R[..., :9], np.ldexp(R[..., 9:], -e[:, None, None])], -1))
            if e.any() else R), e


def _invariants(R):
    """The signatures of a normalized, closed stack R[B, n, 12], and what
    normalization reuses: `_linear_split`'s lvh, lifts, kvh, and the first
    linear generators X0[B, 3, 3] (zero when none is above STRUCT_TOL)."""
    B, n = R.shape[:2]
    X = R[..., :9].reshape(B, n, 3, 3)
    dim_l, lvh, lifts, dim_ker, kvh = _linear_split(R)
    ker_causal = causal_of_svd(dim_ker, kvh)
    linear = abs(R[..., :9]).max(axis=-1) > STRUCT_TOL
    X0 = (X[np.arange(B), linear.argmax(axis=1)] * linear.any(axis=1)[:, None, None] if n
          else np.zeros((B, 3, 3)))
    kind = generator_class(X0) if 1 in dim_l else None  # a single generator's class
    linear_type = [kind[k] if d == 1 else {0: ZERO, 2: TWO_DIM_SOLVABLE}.get(d, FULL)
                   for k, d in enumerate(dim_l)]
    # the sign of X0 on the kernel's null line (of its degenerate plane),
    # which separates the boost-family twins
    eigen_sign = np.zeros(B)
    at = [k for k, (t, d, c) in enumerate(zip(linear_type, dim_ker, ker_causal))
          if t == HYPERBOLIC and (d, c) in ((1, NULL), (2, DEGENERATE))]
    if at:
        nvec, plane = kvh[at, 0], np.array(dim_ker)[at] == 2
        if plane.any():
            nvec[plane] = _null_combination(kvh[at][plane, :2])
        mu = np.einsum("ki,kij,kj->k", nvec, X0[at], nvec) / (nvec * nvec).sum(axis=1)
        eigen_sign[at] = sign_of(mu, STRUCT_TOL * abs(X0[at]).max(axis=(1, 2)))
    sigs = [InvariantSignature(n, d, t, k, c if k else None, float(s) if s else None)
            for d, t, k, c, s in zip(dim_l, linear_type, dim_ker, ker_causal, eigen_sign.tolist())]
    return sigs, (lvh, lifts, kvh, X0)


# ---------------------------------------------------------------------------
# normal forms


def _complete_square(C, Ci, T, lvh, lifts, K):
    """Translations c[m] removing removable translations of the targets
    T[t, 3, 3], and the remainders[m, t, 3], per basis standardized by Ci =
    C^-1 with kernel translations K[m, d, 3].  Conjugation by (I, c) replaces
    the lifted translation w of a target T by w - T c; the solve minimizes
    those off the kernel (which absorbs the rest), and what it cannot reach
    is the family parameters."""
    m = len(C)
    if not len(T):
        return np.zeros((m, 3)), np.zeros((m, 0, 3))
    # the lift of T: the input span's element with linear part C T Ci, from
    # its own factorization, moved by Ci
    P = (C[:, None] @ T @ Ci[:, None]).reshape(m, len(T), 9)
    W = _mv(Ci[:, None], P @ lvh.swapaxes(1, 2) @ lifts)
    # Q: the orthogonal projection off the kernel translations
    if K.shape[1] == 2:  # off a plane: onto its normal line
        n = _cross(K[:, 0], K[:, 1])
        Q = n[:, :, None] * n[:, None] / (n * n).sum(axis=1)[:, None, None]
    else:  # off a line, or off nothing
        k = K[:, 0] if K.shape[1] else np.zeros((m, 3))
        norm2 = np.maximum((k * k).sum(axis=1), _TINY)[:, None, None]
        Q = _EYE - k[:, :, None] * k[:, None] / norm2
    Q = Q[:, None]
    # minimum-norm least squares by one SVD: rank-deficient by design, so the
    # values at or below STRUCT_TOL times the a-priori scale 1 (T a unit reference
    # generator, Q a projection) are dropped; Q T = 0 (N-ii, P-c, N-viii) keeps none
    u, s, vh = np.linalg.svd((Q @ T).reshape(m, -1, 3), full_matrices=False)
    y = (u.swapaxes(1, 2) @ _mv(Q, W).reshape(m, -1, 1))[..., 0]
    c = _mv(vh.swapaxes(1, 2), np.divide(y, s, out=np.zeros(y.shape), where=s > STRUCT_TOL))
    return c, _mv(Q, W - _mv(T, c[:, None]))


@lru_cache(maxsize=None)
def _catalog_basis(id_, items) -> SubalgebraSpec:
    """The catalog basis of a family at the parameters `items`, built once
    per process."""
    return catalog.build(id_, **dict(items)).basis


def _targets(hits):
    """Rows T[m, n, 12] of the catalog bases of the matches hits[m] = (id,
    params), each from a cached `_catalog_basis`; at beta != 0 the unit-beta
    one with row 0's translation times beta, as `catalog.build` writes beta E3."""
    beta = [params.get("beta", 0.0) for _, params in hits]
    T = np.array([_catalog_basis(id_, tuple({**params, "beta": 1.0}.items() if b else
                                            params.items())).coords_matrix
                  for (id_, params), b in zip(hits, beta)])
    T[:, 0, 9:] *= np.array([[b or 1.0] for b in beta])
    return T


# (dim_l, linear type, dim_ker, kernel causal type) -> catalog id; a pair
# of twins is split by the eigenvalue sign (+, -), and N-v/N-vi become P-d
# at beta != 0
_MATCH = {
    (0, ZERO, 2, RIEMANNIAN): "P-a", (0, ZERO, 2, LORENTZIAN): "P-a",
    (0, ZERO, 2, DEGENERATE): "P-a",
    (1, ELLIPTIC, 1, TIMELIKE): "P-b", (1, ELLIPTIC, 2, RIEMANNIAN): "P-c",
    (1, HYPERBOLIC, 1, SPACELIKE): "N-i", (1, HYPERBOLIC, 1, NULL): ("N-v", "N-vi"),
    (1, HYPERBOLIC, 2, LORENTZIAN): "N-ii", (1, HYPERBOLIC, 2, DEGENERATE): ("N-iii", "N-iv"),
    (1, PARABOLIC, 1, NULL): "N-vii", (1, PARABOLIC, 2, DEGENERATE): "N-viii",
    (2, TWO_DIM_SOLVABLE, 0, None): "N-ix", (2, TWO_DIM_SOLVABLE, 1, NULL): "N-x",
    (2, TWO_DIM_SOLVABLE, 2, DEGENERATE): "N-xi", (3, FULL, 0, None): "N-xii",
}
_PLANES = {RIEMANNIAN: "spacelike", LORENTZIAN: "timelike", DEGENERATE: "degenerate"}


def _match_table(sig: InvariantSignature, beta: float):
    """Signature tuple -> (catalog id, params); None when unmatched."""
    id_ = _MATCH.get((sig.dim_l, sig.linear_type, sig.dim_ker_l, sig.ker_causal))
    if isinstance(id_, tuple):
        if sig.eigen_sign is None:
            return None
        if id_[0] == "N-v" and beta != 0.0:
            return "P-d", {"sign": sig.eigen_sign, "beta": beta}
        id_ = id_[sig.eigen_sign < 0]
    return None if id_ is None else (id_, {"plane": _PLANES[sig.ker_causal]} if id_ == "P-a"
                                     else {"beta": 0.0} if id_ == "N-vii"
                                     else {"alpha": 1.0, "beta": beta} if id_ == "N-x" else {})


def _normal_forms(sig, R, e, lvh, lifts, kvh, X0):
    """The results for the bases R[m, n, 12] of one signature group, each
    step once for the group; a basis failing a step is rejected.  The targets
    and the conjugated bases are factored as one stack, and both directions
    of the certifying span residual are read from it."""
    m, n = R.shape[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        C, detail = _frames(sig, lvh, kvh, X0)
    Ci = ETA @ C.swapaxes(1, 2) @ ETA
    Y, Av = Ci[:, None] @ R[..., :9].reshape(m, n, 3, 3) @ C[:, None], _mv(Ci[:, None], R[..., 9:])
    # the standardized linear parts, checked once: they are those of
    # every later conjugate
    _note(detail, so12_check(Y).all(axis=1), _NOT_SO12)
    c, remainders = _complete_square(C, Ci, _TARGETS[sig.linear_type], lvh, lifts,
                                     kvh[:, :sig.dim_ker_l] @ Ci.swapaxes(1, 2))
    beta = (remainders[:, 0, 2].tolist() if sig.linear_type in (HYPERBOLIC, TWO_DIM_SOLVABLE)
            else [0.0] * m)
    shift = np.ldexp(c, e[:, None])  # back to the input's length scale
    faults = motion_faults(Ci, shift)  # the conjugators, checked once
    found = []
    for k in [k for k, d in enumerate(detail) if d is None]:
        hit = _match_table(sig, beta[k] if sign_of(beta[k], STRUCT_TOL) else 0.0)
        detail[k] = faults[k] or (None if hit else "signature matches no catalog family")
        if detail[k]:
            continue
        id_, params = hit
        try:
            if "beta" in params:  # back to the input's length scale
                b = catalog._finite_param(id_, "beta", params["beta"])
                params = {**params, "beta": math.ldexp(b, int(e[k]))}
        except ValueError as exc:  # a CatalogError
            detail[k] = str(exc)
            continue
        except OverflowError:
            detail[k] = f"beta = {b:.3e} * 2^{e[k]} overflows at the input's scale"
            continue
        found.append((k, hit, params))
    out = [None] * m
    if found:
        moved = np.concatenate([Y.reshape(m, n, 9), Av - _mv(Y, c[:, None])], axis=2)
        moved = moved[_rows([k for k, *_ in found], m)]
        # both ways from one factorization: moved in span(T), and T in span(moved)
        T = _targets([hit for _, hit, _ in found])
        space = _row_space(np.concatenate([T, moved]))[1]
        dist = _span_residuals(space, np.concatenate([moved, T]))
        residual = np.maximum(*dist.max(axis=1).reshape(2, -1))
        for (k, (id_, _), params), res in zip(found, residual.tolist()):
            if res > SPAN_MATCH_TOL:
                detail[k] = f"normalized basis does not span the {id_} basis (residual {res:.3e})"
            else:
                out[k] = Classification(id_, params, _checked_motion(Ci[k], shift[k]), res, sig)
    return [r or Rejection(REASON_UNMATCHED, d, sig) for r, d in zip(out, detail)]


_NOT_COHOMOGENEITY_ONE = (
    (lambda s: s.dim_g < 2, "the algebra has dimension < 2, so every orbit has codimension >= 2"),
    (lambda s: s.dim_l == 3 and s.dim_ker_l > 0,
     "full linear part with translations acts transitively"),
    (lambda s: s.dim_ker_l == 3, "a full translation space acts transitively"),
    (lambda s: s.dim_l == 0 and s.dim_ker_l != 2,
     "a pure translation group needs a 2-dimensional translation space"),
)


def _classify(R, space) -> list:
    """One Classification or Rejection per basis of a validated stack
    R[B, n, 12] with row spaces space[B, n, 12], in order."""
    out = [None] * len(R)
    R = _unit_rows(R)  # the same span, rows of one size: membership decides alike at any scale
    residual, in_so12 = _closure(R, space)
    for k, (res, ok) in enumerate(zip(residual.tolist(), in_so12.tolist())):
        if not ok:  # a bracket fell outside the membership tolerance
            out[k] = Rejection(REASON_UNMATCHED, _NOT_SO12)
        elif res > STRUCT_TOL:
            out[k] = Rejection(REASON_NOT_SUBALGEBRA,
                               f"basis is not bracket-closed (residual {res:.3e})")
    live = [k for k, r in enumerate(out) if r is None]
    if not live:
        return out
    R, e = _undilated(R[_rows(live, len(R))])
    sigs, split = _invariants(R)
    groups = {}
    for i, sig in enumerate(sigs):
        why = next((why for applies, why in _NOT_COHOMOGENEITY_ONE if applies(sig)), None)
        if why:
            out[live[i]] = Rejection(REASON_NOT_COHOMOGENEITY_ONE, why, sig)
        else:
            groups.setdefault(sig, []).append(i)
    for sig, at in groups.items():  # a group that is the whole stack passes views
        rows = _rows(at, len(live))
        for i, res in zip(at, _normal_forms(sig, *(a[rows] for a in (R, e, *split)))):
            out[live[i]] = res
    return out


def classify_stack(rows) -> list:
    """`classify` for each basis of a stack rows[B, n, 12] of one dimension,
    in order.  The rows pass `SubalgebraSpec`'s rows-form rules once, as a
    stack, raising its ValueErrors; it never raises on valid rows."""
    R = np.array(rows, dtype=float)
    if R.ndim != 3 or R.shape[2] != 12:
        raise ValueError("classify_stack needs coordinate rows of shape (B, n, 12)")
    _require_rows(R)
    return _classify(R, _independent_row_space(R))


def classify(spec: SubalgebraSpec):
    """Identify the catalog family of a subalgebra, with a certificate.

    Returns a Classification carrying the id, normalized parameters and
    a conjugator under whose adjoint action the input basis spans the
    catalog basis (residual reported), or a Rejection with a reason
    code: not-a-subalgebra, not-cohomogeneity-one, or unmatched (the
    computed signature attached when it was reached).  It never raises
    on a valid spec.
    """
    return _classify(spec.coords_matrix[None], spec.row_space[None])[0]


def signature(spec: SubalgebraSpec) -> InvariantSignature:
    """Conjugation invariants of a bracket-closed spec: `classify`'s, raising
    the rejection's detail as a ValueError where it reached none."""
    res = classify(spec)
    if res.signature is None:
        raise ValueError(res.detail)
    return res.signature
