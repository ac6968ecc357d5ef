"""The Lie algebra of infinitesimal isometries: pairs (X, v).

The bracket of the semidirect structure is
``[(X, u), (Y, v)] = ([X, Y], X v - Y u)``.
Subalgebras are handled as explicit bases, and every case split in the
classification is a numerical decision on them: a rank, by singular values
with a relative cutoff, or membership of c in a span, by its distance after
orthogonal projection on `SubalgebraSpec.row_space` over max(1, |c|),
against STRUCT_TOL for closure, ideals and containment.  Linear parts are
validated where they enter, by one `so12_check` per stack, and
translations by one finiteness check per stack; internal steps
pass coordinate rows on without validating them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .minkowski import ETA, STRUCT_TOL, generator_class, numeric_rank, so12_check


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An infinitesimal isometry (X, v): x -> X x + v."""

    X: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        X = np.array(self.X, dtype=float)
        v = np.array(self.v, dtype=float)
        if X.shape != (3, 3) or v.shape != (3,):
            raise ValueError("AlgebraElement needs a 3x3 matrix and a 3-vector")
        _require_so12(X)
        _require_finite(v)
        X.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "v", v)

    @property
    def coords(self) -> np.ndarray:
        """Flat coordinates (row-major X, then v) in R^12."""
        return np.concatenate([self.X.ravel(), self.v])

    def __add__(self, other):
        return AlgebraElement(self.X + other.X, self.v + other.v)

    def __mul__(self, c: float):
        return AlgebraElement(c * self.X, c * self.v)

    __rmul__ = __mul__

    def __repr__(self):
        return f"AlgebraElement(X={self.X.tolist()}, v={self.v.tolist()})"


def _require_so12(X) -> None:
    """`AlgebraElement`'s membership rule, for one linear part or a stack."""
    ok = so12_check(X)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError(_NOT_SO12)


def _require_finite(v) -> None:
    """`AlgebraElement`'s translation rule, for one translation or a stack."""
    if not all(map(math.isfinite, v.ravel().tolist())):
        raise ValueError("translation must be finite")


def _require_independent(rows) -> None:
    """`SubalgebraSpec`'s independence rule, for a basis rows[n, 12] or for
    each basis of a stack rows[B, n, 12]: one values-only SVD of the rows
    scaled to unit max-abs; a zero row is dependent."""
    if not rows.size:
        return
    n, peak = rows.shape[-2], abs(rows).max(axis=-1, keepdims=True)
    rank = numeric_rank(np.linalg.svd(rows / peak, compute_uv=False)) if peak.all() else 0
    if rank < n if rows.ndim == 2 else np.min(rank) < n:
        raise ValueError("basis is not linearly independent")


def _require_rows(rows) -> None:
    """The rows form's rules (linear parts, translations, independence),
    applied once to a basis or to a stack of bases."""
    _require_so12(rows[..., :9].reshape(-1, 3, 3))
    _require_finite(rows[..., 9:])
    _require_independent(rows)


def element_from_coords(c) -> AlgebraElement:
    c = np.asarray(c, dtype=float)
    return AlgebraElement(c[:9].reshape(3, 3), c[9:])


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[(X, u), (Y, v)] = ([X, Y], X v - Y u): `_brackets` on a stack of one."""
    return element_from_coords(_brackets((a.X[None], a.v[None]), (b.X[None], b.v[None]), 0, 0))


def _brackets(parts_a, parts_b, i, j) -> np.ndarray:
    """Coordinate rows of the brackets [a_i[k], b_j[k]] of basis elements
    given by their parts (X[..., n, 3, 3], u[..., n, 3]), as one stacked
    product over any leading stack axes; the membership check on their
    linear parts is left to the caller."""
    (X, u), (Y, v) = parts_a, parts_b
    X, u, Y, v = X[..., i, :, :], u[..., i, :], Y[..., j, :, :], v[..., j, :]
    Z = X @ Y - Y @ X
    return np.concatenate((Z.reshape(Z.shape[:-2] + (9,)),
                           (X @ v[..., None] - Y @ u[..., None])[..., 0]), axis=-1)


class SubalgebraSpec:
    """A subspace of the isometry algebra, held as the read-only (n, 12)
    array `coords_matrix` of a basis's coordinates.

    Built from `AlgebraElement`s, or from coordinate rows whose linear
    parts and translations then pass `AlgebraElement`'s rules as one
    stack.  Construction verifies linear independence once, on rows
    scaled to unit max-abs so that a generator's size (a family parameter
    of 1e300 beside unit entries, say) cannot decide it; a zero row is
    dependent.  The row space is factored on the first membership
    question.  Closure under the bracket is a separate, tolerance-based
    decision (`is_subalgebra`).
    The basis order is meaningful: the classifier resolves orientation
    ambiguities from the first supplied generator with a linear part.
    """

    def __init__(self, basis):
        if isinstance(basis, np.ndarray):
            rows = np.array(basis, dtype=float).reshape(-1, 12)
            _require_rows(rows)
        else:
            self.basis = tuple(basis)
            rows = np.array([el.coords for el in self.basis]).reshape(-1, 12)
            _require_independent(rows)
        rows.setflags(write=False)
        self.coords_matrix = rows

    @property
    def dim(self) -> int:
        return len(self.coords_matrix)

    @cached_property
    def basis(self) -> tuple:
        """The `AlgebraElement`s given, or built from the rows on first use."""
        return tuple(map(AlgebraElement, *self.parts))

    @cached_property
    def parts(self) -> tuple:
        """The rows as read-only stacks (X[n, 3, 3], v[n, 3]), views of them."""
        return self.coords_matrix[:, :9].reshape(-1, 3, 3), self.coords_matrix[:, 9:]

    @cached_property
    def row_space(self) -> np.ndarray:
        """`_row_space` of the rows, taken on the first membership question."""
        return _row_space(self.coords_matrix)


_TINY = np.finfo(float).tiny
_PAIRS = [np.triu_indices(n, 1) for n in range(13)]  # the pairs i < j of n <= 12 rows
_NOT_SO12 = "linear part violates the isometry-algebra membership"


def _row_space(rows) -> np.ndarray:
    """Orthonormal rows spanning independent coordinate rows rows[..., n, 12]
    (one basis or a stack): one SVD of them scaled to unit max-abs
    (read-only)."""
    space = np.linalg.svd(rows / abs(rows).max(axis=-1, keepdims=True), full_matrices=False)[2]
    space.setflags(write=False)
    return space


def _span_residuals(space, rows, relative: bool = True) -> np.ndarray:
    """Each coordinate row's distance |r| from the span of the orthonormal
    rows `space`, or |r| / max(1, |c|) when relative, evaluated as |r/m| m
    or |r/m| / max(1/m, |c/m|) on the row scaled to unit max-abs m, so no
    norm overflows.  Stacks rows[..., k, 12] and space[..., n, 12] pair up
    basis by basis."""
    peak = np.maximum(abs(rows).max(axis=-1), _TINY)
    unit = rows / peak[..., None]
    off = unit - unit @ space.swapaxes(-1, -2) @ space
    dist = np.sqrt((off * off).sum(axis=-1))
    if not relative:
        return dist * peak
    return dist / np.maximum(1.0 / peak, np.sqrt((unit * unit).sum(axis=-1)))


def span_residual(spec: SubalgebraSpec, el: AlgebraElement) -> float:
    """Distance of el from span(basis) after orthogonal projection."""
    return float(_span_residuals(spec.row_space, el.coords[None], relative=False)[0])


def span_contains(spec: SubalgebraSpec, el: AlgebraElement) -> bool:
    return bool(_span_residuals(spec.row_space, el.coords[None])[0] <= STRUCT_TOL)


def _closure(R, space):
    """Per basis of R[B, n, 12] with row spaces space[B, n, 12]: the largest
    scaled distance of a pairwise bracket from the span, and whether every
    bracket's linear part lies in so(1,2)."""
    B, n = R.shape[:2]
    if n < 2:
        return np.zeros(B), np.ones(B, dtype=bool)
    parts = R[..., :9].reshape(B, n, 3, 3), R[..., 9:]
    brackets = _brackets(parts, parts, *_PAIRS[n])
    return (_span_residuals(space, brackets).max(axis=1),
            so12_check(brackets[..., :9].reshape(brackets.shape[:2] + (3, 3))).all(axis=1))


def closure_residual(spec: SubalgebraSpec) -> float:
    """Largest (scaled) distance of a pairwise bracket from the span:
    `_closure` on a stack of one, raising `bracket`'s membership error."""
    residual, in_so12 = _closure(spec.coords_matrix[None], spec.row_space[None])
    if not in_so12[0]:
        raise ValueError(_NOT_SO12)
    return float(residual[0])


def is_subalgebra(spec: SubalgebraSpec) -> bool:
    return closure_residual(spec) <= STRUCT_TOL


def is_ideal(sub: SubalgebraSpec, ambient: SubalgebraSpec) -> bool:
    """True iff [ambient, sub] lies back in span(sub)."""
    pairs = divmod(np.arange(ambient.dim * sub.dim), sub.dim)
    brackets = _brackets(ambient.parts, sub.parts, *pairs)
    _require_so12(brackets[:, :9].reshape(-1, 3, 3))
    return bool((_span_residuals(sub.row_space, brackets) <= STRUCT_TOL).all())


def _linear_split(rows):
    """Both halves of the span of each basis of a stack rows[B, n, 12].

    Returns ``(dim_l, lvh, lifts, dim_ker, kvh)``: integer arrays of the
    dimensions; right singular vectors lvh[B, n, 9] and kvh[B, 3, 3] whose
    leading dim_l and dim_ker rows are orthonormal bases of
    { X : (X, v) in span } and of { v : (0, v) in span }; and lifts[B, k, 3],
    the translations of the span's elements whose linear parts are the
    leading rows of lvh (zero beyond dim_l).  The linear parts take one
    batched SVD, which also gives the lifts; the kernel comes from
    rank-reducing the translation combinations whose coefficients (the
    left null space) kill every linear part, one batched SVD per linear
    dimension.
    """
    B, n = rows.shape[:2]
    u, s, lvh = np.linalg.svd(rows[..., :9], full_matrices=False)
    dim_l, dim_ker = numeric_rank(s), np.zeros(B, dtype=int)
    lifts, kvh = np.zeros((B, n, 3)), np.zeros((B, 3, 3))
    ranks = set(dim_l.tolist())
    for d in ranks:
        at = np.flatnonzero(dim_l == d) if len(ranks) > 1 else slice(None)
        lifts[at, :d] = (u[at, :, :d] / s[at, None, :d]).swapaxes(1, 2) @ rows[at, :, 9:]
        if d < n:
            _, sk, kvh[at] = np.linalg.svd(u[at, :, d:].swapaxes(1, 2) @ rows[at, :, 9:])
            dim_ker[at] = numeric_rank(sk)
    return dim_l, lvh, lifts, dim_ker, kvh


def linear_part(spec: SubalgebraSpec):
    """Dimension and a basis of { X : (X, v) in span(basis) }."""
    dim_l, lvh, *_ = _linear_split(spec.coords_matrix[None])
    return int(dim_l[0]), list(lvh[0, :dim_l[0]].reshape(-1, 3, 3))


def kernel_of_l(spec: SubalgebraSpec):
    """Dimension and a basis of { v : (0, v) in span(basis) }."""
    *_, dim_ker, kvh = _linear_split(spec.coords_matrix[None])
    return int(dim_ker[0]), list(kvh[0, :dim_ker[0]])


def _adjoint_rows(A, a, X, v) -> np.ndarray:
    """Coordinate rows of Ad_(A, a)(X, v) = (A X A^-1, A v - (A X A^-1) a),
    A^-1 = eta A^T eta, for one element or a basis's parts X[n, 3, 3],
    v[n, 3]: rows[..., 12] for one motion, rows[N, ..., 12] for a stack
    (A[N, 3, 3], a[N, 3]) of motions, each conjugating all of them."""
    lead = (1,) * (X.ndim - 2)
    A, a = A.reshape(A.shape[:-2] + lead + (3, 3)), a.reshape(a.shape[:-1] + lead + (3,))
    Y = A @ X @ (ETA @ A.swapaxes(-1, -2) @ ETA)
    return np.concatenate([Y.reshape(Y.shape[:-2] + (9,)),
                           (A @ v[..., None])[..., 0] - (Y @ a[..., None])[..., 0]], axis=-1)


def adjoint(m, el: AlgebraElement) -> AlgebraElement:
    """Push an infinitesimal isometry through conjugation by a motion.

    Ad_{(A,a)}(X, v) = (A X A^-1, A v - (A X A^-1) a).
    """
    return element_from_coords(_adjoint_rows(m.A, m.a, el.X, el.v))


def adjoint_spec(m, spec: SubalgebraSpec) -> SubalgebraSpec:
    """`adjoint` of every basis element, as one stacked product."""
    return SubalgebraSpec(_adjoint_rows(m.A, m.a, *spec.parts))


__all__ = [
    "AlgebraElement",
    "SubalgebraSpec",
    "adjoint",
    "adjoint_spec",
    "bracket",
    "closure_residual",
    "element_from_coords",
    "generator_class",
    "is_ideal",
    "is_subalgebra",
    "kernel_of_l",
    "linear_part",
    "span_contains",
    "span_residual",
]
