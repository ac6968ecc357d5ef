"""Classification of subalgebras into the sixteen-family catalog.

One pass: the conjugation invariants (dimensions, linear-part type,
kernel causal type, eigenvalue sign data) come from one SVD of the
stacked linear parts, which also yields the bases the later steps reuse
-> a linear conjugation standardizes the linear part onto the reference
generators -> a translation conjugation removes every removable
translation component -> an exact match on the signature tuple,
certified by the span residual between the conjugated basis and the
catalog basis.

Every outcome is a Classification or a Rejection.  A basis whose
numbers defeat a step (a bracket or conjugate outside the absolute
membership tolerances, a failed standardization, a conjugator that is
not an isometry, typically for bases rescaled far from unit size) is
rejected as unmatched with that step's message; classify does not raise.

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

from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import catalog
from .algebra import (
    SubalgebraSpec,
    _linear_split,
    _span_residuals,
    adjoint_spec,
    closure_residual,
    element_from_coords,
    first_linear_generator,
    kernel_of_l,
)
from .minkowski import (
    BOOST,
    DEGENERATE,
    ELLIPTIC,
    ETA,
    HYPERBOLIC,
    LORENTZIAN,
    NULL,
    NULL_ROTATION,
    PARABOLIC,
    RIEMANNIAN,
    ROTATION,
    SPACELIKE,
    STRUCT_TOL,
    TIMELIKE,
    ZERO,
    Motion,
    causal_of_span,
    generator_class,
    inner,
    sign_of,
)

REASON_NOT_SUBALGEBRA = "not-a-subalgebra"
REASON_NOT_COHOMOGENEITY_ONE = "not-cohomogeneity-one"
REASON_UNMATCHED = "unmatched"

SPAN_MATCH_TOL = 1e-6

TWO_DIM_SOLVABLE = "two-dim-solvable"
FULL = "full"


class NotASubalgebraError(ValueError):
    def __init__(self, residual: float):
        super().__init__(f"basis is not bracket-closed (residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class InvariantSignature:
    dim_g: int
    dim_l: int
    linear_type: str
    dim_ker_l: int
    ker_causal: Optional[str]
    eigen_sign: Optional[float]
    params: Optional[dict] = None  # filled once normalization has run

    def as_dict(self):
        return asdict(self)


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
# linear type -> the classes whose reference generators span its standard
# position (a single generator is its own class)
_SPANNED = {ZERO: (), TWO_DIM_SOLVABLE: (HYPERBOLIC, PARABOLIC),
            FULL: (HYPERBOLIC, ELLIPTIC, PARABOLIC)}


# ---------------------------------------------------------------------------
# frames: columns form an eta-orthonormal basis, so the matrix lies in the
# identity component and conjugation by it moves distinguished lines onto
# the reference positions


def _kernel_vector(M):
    """The last right-singular vector of M, its (near-)kernel direction."""
    return np.linalg.svd(M)[2][-1]


def _null_combination(rows):
    """The null direction of a degenerate plane spanned by `rows`: the
    combination along the Gram eigenvector of least |eigenvalue|."""
    rows = np.stack(rows)
    w, vecs = np.linalg.eigh(rows @ ETA @ rows.T)
    return vecs[:, int(np.argmin(np.abs(w)))] @ rows


def _frame(u1, u2):
    """Frame with columns u1 (unit timelike), u2 (unit spacelike, eta-
    orthogonal to u1) and the unit spacelike vector eta-orthogonal to both,
    signed for determinant +1."""
    w = _kernel_vector(np.stack([ETA @ u1, ETA @ u2]))
    n = inner(w, w)
    if n <= 0:
        raise ValueError("completion direction is not spacelike")
    C = np.column_stack([u1, u2, w / np.sqrt(n)])
    if np.linalg.det(C) < 0:
        C[:, 2] = -C[:, 2]
    return C


def _frame_from_timelike(v, s=None):
    """Frame whose first column is the future unit vector along the
    timelike v and whose second lies in span{v, s}; s defaults to the
    coordinate axis least aligned with v."""
    q = inner(v, v)
    if q >= 0:
        raise ValueError("axis is not timelike")
    u1 = v / np.sqrt(-q)
    if u1[0] < 0:
        u1 = -u1
    if s is None:
        s = min(np.eye(3), key=lambda e: abs(inner(e, u1)))
    u2 = s + inner(s, u1) * u1
    return _frame(u1, u2 / np.sqrt(inner(u2, u2)))


def _frame_from_null(n):
    """Frame sending e1+e2 onto the future null vector n / n1 and e1-e2
    onto its partner m = (n1, -n2, -n3), scaled to <n, m> = -2."""
    if abs(n[0]) < 1e-12:
        raise ValueError("direction is not null")
    n = n / n[0]
    m = np.array([n[0], -n[1], -n[2]])
    m = m * (-2.0 / inner(n, m))
    return _frame(0.5 * (n + m), 0.5 * (n - m))


def standardize_linear(X):
    """A conjugation C with C^-1 X C = lam * (reference generator).

    The reference is ROTATION for elliptic X (via its timelike axis,
    moved onto R e1), BOOST for hyperbolic X (null eigendirections onto
    e1 +- e2, the positive eigendirection landing on e1+e2, so lam > 0),
    and NULL_ROTATION for parabolic X (kernel null line onto R(e1+e2)).
    For elliptic and parabolic X the sign of lam is itself an invariant
    of the conjugacy class and is reported as computed.  The conjugate
    must match lam * reference to 1e-8 relative to max(1, |lam|).
    """
    X = np.asarray(X, dtype=float)
    kind = generator_class(X)
    if kind == ZERO:
        raise ValueError("cannot standardize the zero matrix")
    if kind == ELLIPTIC:
        C = _frame_from_timelike(_kernel_vector(X))
    elif kind == HYPERBOLIC:
        w, vecs = np.linalg.eig(X)
        w = np.real(w)
        vecs = np.real(vecs)
        i_plus = int(np.argmax(w))
        i_minus = int(np.argmin(w))
        n_plus = vecs[:, i_plus]
        n_minus = vecs[:, i_minus]
        if n_plus[0] < 0:
            n_plus = -n_plus
        if n_minus[0] < 0:
            n_minus = -n_minus
        # balance the pair, then scale it to <n+, n-> = -2
        s = np.sqrt(n_minus[0] / n_plus[0])
        n_plus = n_plus * s
        n_minus = n_minus / s
        c = -inner(n_plus, n_minus)
        n_plus = n_plus * np.sqrt(2.0 / c)
        n_minus = n_minus * np.sqrt(2.0 / c)
        C = _frame(0.5 * (n_plus + n_minus), 0.5 * (n_plus - n_minus))
    else:
        C = _frame_from_null(_kernel_vector(X))
    ref, pos = _REFERENCE[kind]
    Ci = ETA @ C.T @ ETA
    Y = Ci @ X @ C
    lam = Y[pos]
    res = float(np.max(np.abs(Y - lam * ref)))
    if res > 1e-8 * max(1.0, abs(lam)):
        raise ValueError(f"standardization failed (residual {res:.3e})")
    return C, float(lam)


def _standardize_borel(l_basis):
    """Conjugation taking a 2-dimensional linear span onto span{BOOST,
    NULL_ROTATION}, through its unique nilpotent direction."""
    X1, X2 = l_basis
    G = np.array(
        [
            [np.trace(X1 @ X1), np.trace(X1 @ X2)],
            [np.trace(X1 @ X2), np.trace(X2 @ X2)],
        ]
    )
    w, vecs = np.linalg.eigh(G)
    c = vecs[:, int(np.argmin(np.abs(w)))]
    N0 = c[0] * X1 + c[1] * X2
    flat = N0.ravel()
    lead = flat[np.argmax(np.abs(flat))]
    if lead < 0:
        N0 = -N0
    C, _ = standardize_linear(N0)
    return C


def _frame_for_plane(kb, kind):
    """Conjugation whose inverse carries a translation 2-plane onto its
    reference position (spacelike -> span{e2,e3}, timelike ->
    span{e1,e2}, degenerate -> span{e1+e2, e3})."""
    if kind == RIEMANNIAN:  # the plane normal is timelike
        return _frame_from_timelike(_kernel_vector(np.stack([ETA @ k for k in kb])))
    if kind == LORENTZIAN:  # the negative Gram direction is timelike
        rows = np.stack(kb)
        _, vecs = np.linalg.eigh(rows @ ETA @ rows.T)
        return _frame_from_timelike(vecs[:, 0] @ rows, vecs[:, 1] @ rows)
    return _frame_from_null(_null_combination(kb))


def _invariants(spec: SubalgebraSpec):
    """One pass over a spec: its signature, with what normalization reuses
    (the linear-part basis lb, the kernel basis kb and, for dim_l = 1, the
    leading linear generator X0)."""
    res = closure_residual(spec)
    if res > STRUCT_TOL:
        raise NotASubalgebraError(res)
    dim_l, lb, dim_ker, kb = _linear_split(spec)
    ker_causal = causal_of_span(np.stack(kb)) if dim_ker else None
    X0 = None
    if dim_l == 0:
        linear_type = ZERO
    elif dim_l == 1:
        gen = first_linear_generator(spec)
        # entries under its absolute cutoff read as ZERO, which then fails
        # standardization instead of raising here
        X0 = np.zeros((3, 3)) if gen is None else gen.X
        linear_type = generator_class(X0)
    elif dim_l == 2:
        linear_type = TWO_DIM_SOLVABLE
    else:
        linear_type = FULL
    eigen_sign = None
    n = None
    if linear_type == HYPERBOLIC and dim_ker == 1 and ker_causal == NULL:
        n = kb[0]
    elif linear_type == HYPERBOLIC and dim_ker == 2 and ker_causal == DEGENERATE:
        n = _null_combination(kb)
    if n is not None:
        n = n / np.linalg.norm(n)
        mu = X0 @ n @ n  # Euclidean Rayleigh quotient, |n| = 1
        sign = sign_of(mu, STRUCT_TOL * np.max(np.abs(X0)))
        if sign:
            eigen_sign = float(sign)
    sig = InvariantSignature(spec.dim, dim_l, linear_type, dim_ker, ker_causal, eigen_sign)
    return sig, lb, kb, X0


def signature(spec: SubalgebraSpec) -> InvariantSignature:
    """Conjugation invariants of a bracket-closed spec."""
    return _invariants(spec)[0]


def _lift(spec: SubalgebraSpec, target_linear):
    """The span element whose linear part equals the target matrix."""
    L = np.stack([el.X.ravel() for el in spec.basis]).T  # 9 x k
    c, *_ = np.linalg.lstsq(L, np.asarray(target_linear, float).ravel(), rcond=1e-9)
    combo = np.asarray(c) @ spec.coords_matrix
    return element_from_coords(np.concatenate([np.asarray(target_linear, float).ravel(), combo[9:]]))


def _complete_square(spec_std: SubalgebraSpec, targets):
    """Translation c removing removable generator translations.

    For each target linear generator T with lifted translation w the
    conjugation by (I, c) replaces w by w - T c.  The solve minimizes
    those residuals off the kernel translation subspace (components
    inside it are absorbed by the kernel); directions the system cannot
    reach are the genuine family parameters and survive in the returned
    residual translations.
    """
    dim_ker, kb = kernel_of_l(spec_std)
    Q = np.eye(3)
    for k in kb:
        Q = Q - np.outer(k, k)
    lifts = [_lift(spec_std, T) for T in targets]
    if not lifts:
        return np.zeros(3), []
    A = np.vstack([Q @ el.X for el in lifts])
    b = np.concatenate([Q @ el.v for el in lifts])
    # rank-deficient by design: truncate noise directions or the solve
    # explodes along them
    c, *_ = np.linalg.lstsq(A, b, rcond=1e-9)
    remainders = [Q @ (el.v - el.X @ c) for el in lifts]
    return c, remainders


def _match_table(sig: InvariantSignature, beta: float):
    """Signature tuple -> (catalog id, params); None when unmatched."""
    d, t, k, kc, es = sig.dim_l, sig.linear_type, sig.dim_ker_l, sig.ker_causal, sig.eigen_sign
    if d == 0 and k == 2:
        plane = {RIEMANNIAN: "spacelike", LORENTZIAN: "timelike", DEGENERATE: "degenerate"}[kc]
        return "P-a", {"plane": plane}
    if d == 1 and t == ELLIPTIC:
        if k == 1 and kc == TIMELIKE:
            return "P-b", {}
        if k == 2 and kc == RIEMANNIAN:
            return "P-c", {}
        return None
    if d == 1 and t == HYPERBOLIC:
        if k == 1 and kc == SPACELIKE:
            return "N-i", {}
        if k == 1 and kc == NULL and es is not None:
            if beta != 0.0:
                return "P-d", {"sign": es, "beta": beta}
            return ("N-v", {}) if es > 0 else ("N-vi", {})
        if k == 2 and kc == LORENTZIAN:
            return "N-ii", {}
        if k == 2 and kc == DEGENERATE and es is not None:
            return ("N-iii", {}) if es > 0 else ("N-iv", {})
        return None
    if d == 1 and t == PARABOLIC:
        if k == 1 and kc == NULL:
            return "N-vii", {"beta": 0.0}
        if k == 2 and kc == DEGENERATE:
            return "N-viii", {}
        return None
    if d == 2:
        if k == 0:
            return "N-ix", {}
        if k == 1 and kc == NULL:
            return "N-x", {"alpha": 1.0, "beta": beta}
        if k == 2 and kc == DEGENERATE:
            return "N-xi", {}
        return None
    if d == 3 and k == 0:
        return "N-xii", {}
    return None


def classify(spec: SubalgebraSpec):
    """Identify the catalog family of a subalgebra, with a certificate.

    Returns a Classification carrying the id, normalized parameters and
    a conjugator under whose adjoint action the input basis spans the
    catalog basis (residual reported), or a Rejection with a reason
    code: not-a-subalgebra, not-cohomogeneity-one, or unmatched (the
    computed signature attached when it was reached).  It never raises
    on a valid spec.
    """
    try:
        sig, lb, kb, X0 = _invariants(spec)
    except NotASubalgebraError as exc:
        return Rejection(REASON_NOT_SUBALGEBRA, str(exc))
    except ValueError as exc:  # a bracket fell outside the membership tolerance
        return Rejection(REASON_UNMATCHED, str(exc))

    if sig.dim_g < 2:
        return Rejection(
            REASON_NOT_COHOMOGENEITY_ONE,
            "the algebra has dimension < 2, so every orbit has codimension >= 2",
            sig,
        )
    if sig.dim_l == 3 and sig.dim_ker_l > 0:
        return Rejection(
            REASON_NOT_COHOMOGENEITY_ONE,
            "full linear part with translations acts transitively",
            sig,
        )
    if sig.dim_ker_l == 3:
        return Rejection(
            REASON_NOT_COHOMOGENEITY_ONE,
            "a full translation space acts transitively",
            sig,
        )
    if sig.dim_l == 0 and sig.dim_ker_l != 2:
        return Rejection(
            REASON_NOT_COHOMOGENEITY_ONE,
            "a pure translation group needs a 2-dimensional translation space",
            sig,
        )

    # standardize -> conjugate -> normalize -> match: a numerical failure
    # at any step (catalog.CatalogError included) rejects the basis
    try:
        if sig.dim_l == 0:
            C = _frame_for_plane(kb, sig.ker_causal)
        elif sig.dim_l == 1:
            C, _ = standardize_linear(X0)
        elif sig.dim_l == 2:
            C = _standardize_borel(lb)
        else:
            C = np.eye(3)
        Ci = ETA @ C.T @ ETA
        spec_std = adjoint_spec(Motion(Ci, np.zeros(3)), spec)
        targets = [_REFERENCE[k][0] for k in _SPANNED.get(sig.linear_type, (sig.linear_type,))]
        c, remainders = _complete_square(spec_std, targets)
        conj = Motion(Ci, c)
        beta = 0.0
        if sig.linear_type in (HYPERBOLIC, TWO_DIM_SOLVABLE):
            beta = float(remainders[0][2])
        if not sign_of(beta, STRUCT_TOL):
            beta = 0.0
        hit = _match_table(sig, beta)
        if hit is None:
            return Rejection(REASON_UNMATCHED, "signature matches no catalog family", sig)
        id_, params = hit
        target = catalog.build(id_, **params)
        moved = adjoint_spec(conj, spec)
    except ValueError as exc:
        return Rejection(REASON_UNMATCHED, str(exc), sig)

    residual = float(max(_span_residuals(target.basis, moved.coords_matrix).max(),
                         _span_residuals(moved, target.basis.coords_matrix).max()))
    if residual > SPAN_MATCH_TOL:
        return Rejection(
            REASON_UNMATCHED,
            f"normalized basis does not span the {id_} basis (residual {residual:.3e})",
            sig,
        )
    return Classification(id=id_, params=params, conjugator=conj, residual=residual,
                          signature=replace(sig, params=dict(params)))
