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

from .minkowski import ETA, STRUCT_TOL, generator_class, numeric_rank, sign_of, so12_check


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

    def __sub__(self, other):
        return AlgebraElement(self.X - other.X, self.v - other.v)

    def __mul__(self, c: float):
        return AlgebraElement(c * self.X, c * self.v)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def __repr__(self):
        return f"AlgebraElement(X={self.X.tolist()}, v={self.v.tolist()})"


def _require_so12(X) -> None:
    """`AlgebraElement`'s membership rule, for one linear part or a stack."""
    ok = so12_check(X)
    if not (ok.all() if isinstance(ok, np.ndarray) else ok):
        raise ValueError("linear part violates the isometry-algebra membership")


def _require_finite(v) -> None:
    """`AlgebraElement`'s translation rule, for one translation or a stack."""
    if not all(map(math.isfinite, v.ravel().tolist())):
        raise ValueError("translation must be finite")


def element_from_coords(c) -> AlgebraElement:
    c = np.asarray(c, dtype=float)
    return AlgebraElement(c[:9].reshape(3, 3), c[9:])


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[(X, u), (Y, v)] = ([X, Y], X v - Y u)."""
    return AlgebraElement(a.X @ b.X - b.X @ a.X, a.X @ b.v - b.X @ a.v)


def _brackets(spec_a: SubalgebraSpec, spec_b: SubalgebraSpec, i, j) -> np.ndarray:
    """Coordinate rows of the brackets [a_i[k], b_j[k]] of basis elements,
    as one stacked product; each is checked as `bracket` checks it."""
    (X, u), (Y, v) = spec_a.parts, spec_b.parts
    X, u, Y, v = X[i], u[i], Y[j], v[j]
    Z = X @ Y - Y @ X
    _require_so12(Z)
    return np.concatenate((Z.reshape(-1, 9), (X @ v[..., None] - Y @ u[..., None])[..., 0]), axis=1)


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
            _require_so12(rows[:, :9].reshape(-1, 3, 3))
            _require_finite(rows[:, 9:])
        else:
            self.basis = tuple(basis)
            rows = np.array([el.coords for el in self.basis]).reshape(-1, 12)
        peak = abs(rows).max(axis=1, keepdims=True)
        if len(rows) and (not peak.all() or numeric_rank(
                np.linalg.svd(rows / peak, compute_uv=False)) < len(rows)):
            raise ValueError("basis is not linearly independent")
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


def _row_space(rows) -> np.ndarray:
    """Orthonormal rows spanning independent coordinate rows: one SVD of
    them scaled to unit max-abs (read-only)."""
    space = np.linalg.svd(rows / abs(rows).max(axis=1, keepdims=True), full_matrices=False)[2]
    space.setflags(write=False)
    return space


def _span_residuals(space, rows, relative: bool = True) -> np.ndarray:
    """Each coordinate row's distance |r| from the span of the orthonormal
    rows `space`, or |r| / max(1, |c|) when relative, evaluated as |r/m| m
    or |r/m| / max(1/m, |c/m|) on the row scaled to unit max-abs m, so no
    norm overflows."""
    peak = np.maximum(abs(rows).max(axis=1), np.finfo(float).tiny)
    unit = rows / peak[:, None]
    dist = np.linalg.norm(unit - unit @ space.T @ space, axis=1)
    if not relative:
        return dist * peak
    return dist / np.maximum(1.0 / peak, np.linalg.norm(unit, axis=1))


def span_residual(spec: SubalgebraSpec, el: AlgebraElement) -> float:
    """Distance of el from span(basis) after orthogonal projection."""
    return float(_span_residuals(spec.row_space, el.coords[None], relative=False)[0])


def span_contains(spec: SubalgebraSpec, el: AlgebraElement) -> bool:
    return bool(_span_residuals(spec.row_space, el.coords[None])[0] <= STRUCT_TOL)


def closure_residual(spec: SubalgebraSpec) -> float:
    """Largest (scaled) distance of a pairwise bracket from the span; a
    single element has no bracket, and is closed without an SVD."""
    if spec.dim < 2:
        return 0.0
    r = np.arange(spec.dim)  # the pairs i < j, row by row
    brackets = _brackets(spec, spec, *np.nonzero(np.less.outer(r, r)))
    return float(_span_residuals(spec.row_space, brackets).max())


def is_subalgebra(spec: SubalgebraSpec) -> bool:
    return closure_residual(spec) <= STRUCT_TOL


def is_ideal(sub: SubalgebraSpec, ambient: SubalgebraSpec) -> bool:
    """True iff [ambient, sub] lies back in span(sub)."""
    brackets = _brackets(ambient, sub, *divmod(np.arange(ambient.dim * sub.dim), sub.dim))
    return bool((_span_residuals(sub.row_space, brackets) <= STRUCT_TOL).all())


def _linear_split(rows):
    """Both halves of the span of coordinate rows, from one SVD of their linear parts.

    Returns ``(dim_l, lb, dim_ker, kb)``: lb is an orthonormal basis of
    { X : (X, v) in span(basis) } (the right singular vectors) and kb one
    of { v : (0, v) in span(basis) }, found by rank-reducing the
    translation combinations whose coefficients (the left null space)
    kill every linear part.
    """
    if not len(rows):
        return 0, [], 0, []
    u, s, vh = np.linalg.svd(rows[:, :9])
    dim_l = numeric_rank(s)
    lb = list(vh[:dim_l].reshape(-1, 3, 3))
    if dim_l == len(rows):
        return dim_l, lb, 0, []
    _, s, vh = np.linalg.svd(u[:, dim_l:].T @ rows[:, 9:])
    dim_ker = numeric_rank(s)
    return dim_l, lb, dim_ker, list(vh[:dim_ker])


def linear_part(spec: SubalgebraSpec):
    """Dimension and a basis of { X : (X, v) in span(basis) }."""
    dim_l, lb, _, _ = _linear_split(spec.coords_matrix)
    return dim_l, lb


def kernel_of_l(spec: SubalgebraSpec):
    """Dimension and a basis of { v : (0, v) in span(basis) }."""
    _, _, dim_ker, kb = _linear_split(spec.coords_matrix)
    return dim_ker, kb


def _conjugated(A, X, v):
    """(A X A^-1, A v) for (X, v), or per row of stacks X[k, 3, 3], v[k, 3]:
    the parts of `adjoint` by (A, a) that do not depend on a."""
    Ai = ETA @ A.T @ ETA
    return A @ X @ Ai, (A @ v[..., None])[..., 0]


def adjoint(m, el: AlgebraElement) -> AlgebraElement:
    """Push an infinitesimal isometry through conjugation by a motion.

    Ad_{(A,a)}(X, v) = (A X A^-1, A v - (A X A^-1) a).
    """
    Y, Av = _conjugated(m.A, el.X, el.v)
    return AlgebraElement(Y, Av - Y @ m.a)


def adjoint_spec(m, spec: SubalgebraSpec) -> SubalgebraSpec:
    """`adjoint` of every basis element, as one stacked product."""
    Y, Av = _conjugated(m.A, *spec.parts)
    return SubalgebraSpec(np.hstack([Y.reshape(-1, 9), Av - Y @ m.a]))


def _first_linear_index(spec: SubalgebraSpec):
    """Index of the first basis element whose linear part is nonzero (its
    sup-norm above STRUCT_TOL), or None.

    The classifier keys its orientation conventions to this element, so
    the basis order supplied by the caller is part of the contract.
    """
    nonzero = np.flatnonzero(sign_of(np.abs(spec.parts[0]).max(axis=(1, 2), initial=0.0),
                                     STRUCT_TOL))
    return int(nonzero[0]) if len(nonzero) else None


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
