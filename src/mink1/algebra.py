"""The Lie algebra of infinitesimal isometries: pairs (X, v).

The bracket of the semidirect structure is
``[(X, u), (Y, v)] = ([X, Y], X v - Y u)``.
Subalgebras are handled as explicit bases, and every case split in the
classification is a numerical decision on them: a rank, by singular values
with a relative cutoff, or membership of c in a span, by its distance after
orthogonal projection on `SubalgebraSpec.row_space` over max(1, |c|),
against STRUCT_TOL for closure, ideals and containment.
"""

from __future__ import annotations

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
        if not so12_check(X):
            raise ValueError("linear part violates the isometry-algebra membership")
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


def element_from_coords(c) -> AlgebraElement:
    c = np.asarray(c, dtype=float)
    return AlgebraElement(c[:9].reshape(3, 3), c[9:])


def bracket(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """[(X, u), (Y, v)] = ([X, Y], X v - Y u)."""
    return AlgebraElement(a.X @ b.X - b.X @ a.X, a.X @ b.v - b.X @ a.v)


@dataclass(frozen=True, eq=False)
class SubalgebraSpec:
    """A subspace of the isometry algebra given by a basis.

    Construction verifies linear independence, on coordinate rows scaled
    to unit max-abs so that a generator's size (a family parameter of
    1e300 beside unit entries, say) cannot decide it; a zero row is
    dependent.  Closure under the bracket is a separate, tolerance-based
    decision (`is_subalgebra`).
    The basis order is meaningful: the classifier resolves orientation
    ambiguities from the first supplied generator with a linear part.
    """

    basis: tuple

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if basis:
            rows = self.coords_matrix
            peak = abs(rows).max(axis=1, keepdims=True)
            if not peak.all() or numeric_rank(
                    np.linalg.svd(rows / peak, compute_uv=False)) < len(basis):
                raise ValueError("basis is not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def coords_matrix(self) -> np.ndarray:
        """The basis `coords` as rows, built once (read-only)."""
        rows = np.empty((len(self.basis), 12))
        for row, el in zip(rows, self.basis):
            row[:9] = el.X.ravel()
            row[9:] = el.v
        rows.setflags(write=False)
        return rows

    @cached_property
    def row_space(self) -> np.ndarray:
        """Orthonormal rows spanning the basis: one SVD of the rows scaled
        to unit max-abs, taken on the first membership question (read-only)."""
        rows = self.coords_matrix
        rows = np.linalg.svd(rows / abs(rows).max(axis=1, keepdims=True), full_matrices=False)[2]
        rows.setflags(write=False)
        return rows


def _span_residuals(spec: SubalgebraSpec, rows, relative: bool = True) -> np.ndarray:
    """Each coordinate row's distance |r| from span(basis), or |r| / max(1, |c|)
    when relative, evaluated as |r/m| m or |r/m| / max(1/m, |c/m|) on the
    row scaled to unit max-abs m, so no norm overflows.  No rows, no SVD."""
    if not len(rows):
        return np.zeros(0)
    peak = np.maximum(abs(rows).max(axis=1), np.finfo(float).tiny)
    unit = rows / peak[:, None]
    dist = np.linalg.norm(unit - unit @ spec.row_space.T @ spec.row_space, axis=1)
    if not relative:
        return dist * peak
    return dist / np.maximum(1.0 / peak, np.linalg.norm(unit, axis=1))


def span_residual(spec: SubalgebraSpec, el: AlgebraElement) -> float:
    """Distance of el from span(basis) after orthogonal projection."""
    return float(_span_residuals(spec, el.coords[None], relative=False)[0])


def span_contains(spec: SubalgebraSpec, el: AlgebraElement) -> bool:
    return bool(_span_residuals(spec, el.coords[None])[0] <= STRUCT_TOL)


def closure_residual(spec: SubalgebraSpec) -> float:
    """Largest (scaled) distance of a pairwise bracket from the span."""
    b = spec.basis
    brackets = [bracket(x, y).coords for i, x in enumerate(b) for y in b[i + 1:]]
    return float(_span_residuals(spec, np.reshape(brackets, (-1, 12))).max(initial=0.0))


def is_subalgebra(spec: SubalgebraSpec) -> bool:
    return closure_residual(spec) <= STRUCT_TOL


def is_ideal(sub: SubalgebraSpec, ambient: SubalgebraSpec) -> bool:
    """True iff [ambient, sub] lies back in span(sub)."""
    brackets = [bracket(g, h).coords for g in ambient.basis for h in sub.basis]
    return bool((_span_residuals(sub, np.reshape(brackets, (-1, 12))) <= STRUCT_TOL).all())


def _linear_split(spec: SubalgebraSpec):
    """Both halves of the span from one SVD of the stacked linear parts.

    Returns ``(dim_l, lb, dim_ker, kb)``: lb is an orthonormal basis of
    { X : (X, v) in span(basis) } (the right singular vectors) and kb one
    of { v : (0, v) in span(basis) }, found by rank-reducing the
    translation combinations whose coefficients (the left null space)
    kill every linear part.
    """
    if spec.dim == 0:
        return 0, [], 0, []
    u, s, vh = np.linalg.svd(np.stack([el.X.ravel() for el in spec.basis]))
    dim_l = numeric_rank(s)
    lb = list(vh[:dim_l].reshape(-1, 3, 3))
    if dim_l == spec.dim:
        return dim_l, lb, 0, []
    _, s, vh = np.linalg.svd(u[:, dim_l:].T @ np.stack([el.v for el in spec.basis]))
    dim_ker = numeric_rank(s)
    return dim_l, lb, dim_ker, list(vh[:dim_ker])


def linear_part(spec: SubalgebraSpec):
    """Dimension and a basis of { X : (X, v) in span(basis) }."""
    dim_l, lb, _, _ = _linear_split(spec)
    return dim_l, lb


def kernel_of_l(spec: SubalgebraSpec):
    """Dimension and a basis of { v : (0, v) in span(basis) }."""
    _, _, dim_ker, kb = _linear_split(spec)
    return dim_ker, kb


def adjoint(m, el: AlgebraElement) -> AlgebraElement:
    """Push an infinitesimal isometry through conjugation by a motion.

    Ad_{(A,a)}(X, v) = (A X A^-1, A v - (A X A^-1) a).
    """
    Ai = ETA @ m.A.T @ ETA
    Y = m.A @ el.X @ Ai
    return AlgebraElement(Y, m.A @ el.v - Y @ m.a)


def adjoint_spec(m, spec: SubalgebraSpec) -> SubalgebraSpec:
    return SubalgebraSpec(tuple(adjoint(m, el) for el in spec.basis))


def first_linear_generator(spec: SubalgebraSpec):
    """The first basis element with a nonzero linear part, or None.

    The classifier keys its orientation conventions to this element, so
    the basis order supplied by the caller is part of the contract.
    """
    for el in spec.basis:
        if sign_of(np.max(np.abs(el.X)), STRUCT_TOL):
            return el
    return None


__all__ = [
    "AlgebraElement",
    "SubalgebraSpec",
    "adjoint",
    "adjoint_spec",
    "bracket",
    "closure_residual",
    "element_from_coords",
    "first_linear_generator",
    "generator_class",
    "is_ideal",
    "is_subalgebra",
    "kernel_of_l",
    "linear_part",
    "span_contains",
    "span_residual",
]
