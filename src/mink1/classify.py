"""Classification of subalgebras into the sixteen-family catalog.

The pipeline is: conjugation invariants (dimensions, linear-part type,
kernel causal type, eigenvalue sign data) -> a linear conjugation that
standardizes the linear part onto the reference generators -> a
translation conjugation that removes every removable translation
component -> an exact match on the signature tuple, certified by the
span residual between the conjugated basis and the catalog basis.

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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import catalog
from .algebra import (
    SubalgebraSpec,
    adjoint_spec,
    closure_residual,
    element_from_coords,
    first_linear_generator,
    kernel_of_l,
    linear_part,
    span_residual,
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
    TIMELIKE,
    ZERO,
    Motion,
    causal_of_span,
    generator_class,
    inner,
)

REASON_NOT_SUBALGEBRA = "not-a-subalgebra"
REASON_NOT_COHOMOGENEITY_ONE = "not-cohomogeneity-one"
REASON_UNMATCHED = "unmatched"

SPAN_MATCH_TOL = 1e-6
PARAM_ZERO_TOL = 1e-9

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
        return {
            "dim_g": self.dim_g,
            "dim_l": self.dim_l,
            "linear_type": self.linear_type,
            "dim_ker_l": self.dim_ker_l,
            "ker_causal": self.ker_causal,
            "eigen_sign": self.eigen_sign,
            "params": self.params,
        }


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


# ---------------------------------------------------------------------------
# frames: columns form an eta-orthonormal basis, so the matrix lies in the
# identity component and conjugation by it moves distinguished lines onto
# the reference positions


def _spacelike_completion(u1, u2):
    """Unit spacelike vector eta-orthogonal to both arguments."""
    rows = np.stack([ETA @ u1, ETA @ u2])
    _, _, vh = np.linalg.svd(rows)
    w = vh[2]
    n = inner(w, w)
    if n <= 0:
        raise ValueError("completion direction is not spacelike")
    return w / np.sqrt(n)


def _fix_det(cols):
    C = np.column_stack(cols)
    if np.linalg.det(C) < 0:
        C[:, 2] = -C[:, 2]
    return C


def _frame_from_timelike(u1):
    """Frame with first column the given future unit timelike vector."""
    seeds = sorted((np.eye(3)[i] for i in range(3)), key=lambda e: abs(inner(e, u1)))
    u2 = seeds[0] + inner(seeds[0], u1) * u1
    u2 = u2 / np.sqrt(inner(u2, u2))
    u3 = _spacelike_completion(u1, u2)
    return _fix_det([u1, u2, u3])


def _frame_from_null_pair(n_plus, n_minus):
    """Frame sending e1+e2 -> n_plus and e1-e2 -> n_minus.

    The inputs must be future null vectors with <n+, n-> = -2.
    """
    u1 = 0.5 * (n_plus + n_minus)
    u2 = 0.5 * (n_plus - n_minus)
    u3 = _spacelike_completion(u1, u2)
    return _fix_det([u1, u2, u3])


def _null_counterpart(n):
    """A canonical future null partner of a future null vector, with
    <n, m> = -2."""
    m = np.array([n[0], -n[1], -n[2]])
    return m * (-2.0 / inner(n, m))


def _null_vector_of(X):
    """Kernel direction of a singular generator, future oriented."""
    _, _, vh = np.linalg.svd(X)
    n = vh[2]
    if abs(n[0]) < 1e-12:
        raise ValueError("kernel direction is not null")
    if n[0] < 0:
        n = -n
    return n


def standardize_linear(X, tol: float = 1e-8):
    """A conjugation C with C^-1 X C = lam * (reference generator).

    The reference is ROTATION for elliptic X (via its timelike axis,
    moved onto R e1), BOOST for hyperbolic X (null eigendirections onto
    e1 +- e2, the positive eigendirection landing on e1+e2, so lam > 0),
    and NULL_ROTATION for parabolic X (kernel null line onto R(e1+e2)).
    For elliptic and parabolic X the sign of lam is itself an invariant
    of the conjugacy class and is reported as computed.
    """
    X = np.asarray(X, dtype=float)
    kind = generator_class(X)
    if kind == ZERO:
        raise ValueError("cannot standardize the zero matrix")
    if kind == ELLIPTIC:
        _, _, vh = np.linalg.svd(X)
        v = vh[2]
        q = inner(v, v)
        if q >= 0:
            raise ValueError("elliptic axis is not timelike")
        u1 = v / np.sqrt(-q)
        if u1[0] < 0:
            u1 = -u1
        C = _frame_from_timelike(u1)
        ref = ROTATION
        pos = (1, 2)
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
        C = _frame_from_null_pair(n_plus, n_minus)
        ref = BOOST
        pos = (0, 1)
    else:
        n = _null_vector_of(X)
        n = n / n[0]
        C = _frame_from_null_pair(n, _null_counterpart(n))
        ref = NULL_ROTATION
        pos = (0, 2)
    Ci = ETA @ C.T @ ETA
    Y = Ci @ X @ C
    lam = Y[pos]
    res = float(np.max(np.abs(Y - lam * ref)))
    if res > tol * max(1.0, abs(lam)):
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
    rows = np.stack(kb)
    if kind == RIEMANNIAN:
        # plane normal is timelike
        r = np.stack([ETA @ rows[0], ETA @ rows[1]])
        _, _, vh = np.linalg.svd(r)
        n = vh[2]
        n = n / np.sqrt(-inner(n, n))
        if n[0] < 0:
            n = -n
        return _frame_from_timelike(n)
    if kind == LORENTZIAN:
        G = rows @ ETA @ rows.T
        w, vecs = np.linalg.eigh(G)
        t = vecs[:, 0] @ rows  # negative-eigenvalue direction: timelike
        u1 = t / np.sqrt(-inner(t, t))
        if u1[0] < 0:
            u1 = -u1
        s = vecs[:, 1] @ rows
        u2 = s + inner(s, u1) * u1
        u2 = u2 / np.sqrt(inner(u2, u2))
        u3 = _spacelike_completion(u1, u2)
        return _fix_det([u1, u2, u3])
    if kind == DEGENERATE:
        G = rows @ ETA @ rows.T
        w, vecs = np.linalg.eigh(G)
        n = vecs[:, int(np.argmin(np.abs(w)))] @ rows
        if n[0] < 0:
            n = -n
        n = n / n[0]
        return _frame_from_null_pair(n, _null_counterpart(n))
    raise ValueError(f"no frame construction for plane kind {kind!r}")


def _null_line_in(kb):
    """The null direction inside a degenerate translation subspace."""
    rows = np.stack(kb)
    if rows.shape[0] == 1:
        n = rows[0]
    else:
        G = rows @ ETA @ rows.T
        w, vecs = np.linalg.eigh(G)
        n = vecs[:, int(np.argmin(np.abs(w)))] @ rows
    return n / np.linalg.norm(n)


def signature(spec: SubalgebraSpec) -> InvariantSignature:
    """Conjugation invariants of a bracket-closed spec."""
    res = closure_residual(spec)
    if res > 1e-9:
        raise NotASubalgebraError(res)
    dim_g = spec.dim
    dim_l, _ = linear_part(spec)
    dim_ker, kb = kernel_of_l(spec)
    ker_causal = causal_of_span(np.stack(kb)) if dim_ker else None
    if dim_l == 0:
        linear_type = ZERO
    elif dim_l == 1:
        linear_type = generator_class(first_linear_generator(spec).X)
    elif dim_l == 2:
        linear_type = TWO_DIM_SOLVABLE
    else:
        linear_type = FULL
    eigen_sign = None
    if dim_l == 1 and linear_type == HYPERBOLIC and dim_ker >= 1:
        null_line = None
        if dim_ker == 1 and ker_causal == NULL:
            null_line = kb[0] / np.linalg.norm(kb[0])
        elif dim_ker == 2 and ker_causal == DEGENERATE:
            null_line = _null_line_in(kb)
        if null_line is not None:
            X0 = first_linear_generator(spec).X
            img = X0 @ null_line
            mu = float(img @ null_line)  # Euclidean Rayleigh quotient, |n| = 1
            if abs(mu) > 1e-9 * np.max(np.abs(X0)):
                eigen_sign = float(np.sign(mu))
    return InvariantSignature(dim_g, dim_l, linear_type, dim_ker, ker_causal, eigen_sign)


def _lift(spec: SubalgebraSpec, target_linear):
    """The span element whose linear part equals the target matrix."""
    L = np.stack([el.X.ravel() for el in spec.basis]).T  # 9 x k
    c, *_ = np.linalg.lstsq(L, np.asarray(target_linear, float).ravel(), rcond=1e-9)
    combo = np.asarray(c) @ spec.coords_matrix
    return element_from_coords(np.concatenate([np.asarray(target_linear, float).ravel(), combo[9:]]))


_STANDARD_TARGETS = {0: (), 1: None, 2: (BOOST, NULL_ROTATION),
                     3: (BOOST, ROTATION, NULL_ROTATION)}


def normalize_translations(spec_std: SubalgebraSpec) -> Motion:
    """Pure-translation conjugation completing the square on a spec
    whose linear part is already in reference position.

    Removes every removable translation component of the generators;
    directions the linear system cannot reach (the genuine family
    parameters, like the boost-screw translation along e3) are left
    untouched.  Falls back to the identity when nothing is removable.
    """
    dim_l, _ = linear_part(spec_std)
    if dim_l == 1:
        X0 = first_linear_generator(spec_std).X
        targets = [_REFS[generator_class(X0)]]
    else:
        targets = list(_STANDARD_TARGETS[dim_l])
    c, _ = _normalize_translations(spec_std, targets)
    return Motion(np.eye(3), c)


def _normalize_translations(spec_std: SubalgebraSpec, targets):
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


_REFS = {ELLIPTIC: ROTATION, HYPERBOLIC: BOOST, PARABOLIC: NULL_ROTATION}


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
            if abs(beta) > PARAM_ZERO_TOL:
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
    computed signature attached).
    """
    try:
        sig = signature(spec)
    except NotASubalgebraError as exc:
        return Rejection(REASON_NOT_SUBALGEBRA, str(exc))

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

    # linear standardization
    if sig.dim_l == 0:
        _, kb = kernel_of_l(spec)
        C = _frame_for_plane(kb, sig.ker_causal)
        targets = []
    elif sig.dim_l == 1:
        X0 = first_linear_generator(spec).X
        try:
            C, _ = standardize_linear(X0)
        except ValueError as exc:
            return Rejection(REASON_UNMATCHED, f"standardization failed: {exc}", sig)
        targets = [_REFS[sig.linear_type]]
    elif sig.dim_l == 2:
        _, lb = linear_part(spec)
        try:
            C = _standardize_borel(lb)
        except ValueError as exc:
            return Rejection(REASON_UNMATCHED, f"standardization failed: {exc}", sig)
        targets = [BOOST, NULL_ROTATION]
    else:
        C = np.eye(3)
        targets = [BOOST, ROTATION, NULL_ROTATION]

    Ci = ETA @ C.T @ ETA
    m_lin = Motion(Ci, np.zeros(3))
    spec_std = adjoint_spec(m_lin, spec)
    c, remainders = _normalize_translations(spec_std, targets)
    conj = Motion(Ci, c)

    beta = 0.0
    if sig.dim_l == 1 and sig.linear_type == HYPERBOLIC and remainders:
        beta = float(remainders[0][2])
    if sig.dim_l == 2 and remainders:
        beta = float(remainders[0][2])
    if abs(beta) <= PARAM_ZERO_TOL:
        beta = 0.0

    hit = _match_table(sig, beta)
    if hit is None:
        return Rejection(REASON_UNMATCHED, "signature matches no catalog family", sig)
    id_, params = hit
    try:
        target = catalog.build(id_, **params)
    except catalog.CatalogError as exc:
        return Rejection(REASON_UNMATCHED, str(exc), sig)

    moved = adjoint_spec(conj, spec)
    residual = 0.0
    for el in target.basis.basis:
        scale = max(1.0, float(np.linalg.norm(el.coords)))
        residual = max(residual, span_residual(moved, el) / scale)
    for el in moved.basis:
        scale = max(1.0, float(np.linalg.norm(el.coords)))
        residual = max(residual, span_residual(target.basis, el) / scale)
    if residual > SPAN_MATCH_TOL:
        return Rejection(
            REASON_UNMATCHED,
            f"normalized basis does not span the {id_} basis (residual {residual:.3e})",
            sig,
        )
    from dataclasses import replace

    return Classification(id=id_, params=params, conjugator=conj, residual=residual,
                          signature=replace(sig, params=dict(params)))
