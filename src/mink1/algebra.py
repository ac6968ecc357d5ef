"""The Lie algebra of infinitesimal isometries: pairs (X, v).

The bracket of the semidirect structure is
``[(X, u), (Y, v)] = ([X, Y], X v - Y u)``.
Subalgebras are handled as explicit bases; all rank and containment
decisions are made numerically through singular values with a relative
cutoff, because every case split in the classification reduces to such
a decision.
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


def span_residual(spec: SubalgebraSpec, el: AlgebraElement) -> float:
    """Distance of el from span(basis) after least-squares projection."""
    if spec.dim == 0:
        return float(np.linalg.norm(el.coords))
    M = spec.coords_matrix.T
    c, *_ = np.linalg.lstsq(M, el.coords, rcond=None)
    return float(np.linalg.norm(el.coords - M @ c))


def span_contains(spec: SubalgebraSpec, el: AlgebraElement) -> bool:
    scale = max(1.0, float(np.linalg.norm(el.coords)))
    return span_residual(spec, el) <= STRUCT_TOL * scale


def closure_residual(spec: SubalgebraSpec) -> float:
    """Largest (scaled) distance of a pairwise bracket from the span."""
    worst = 0.0
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            br = bracket(spec.basis[i], spec.basis[j])
            scale = max(1.0, float(np.linalg.norm(br.coords)))
            worst = max(worst, span_residual(spec, br) / scale)
    return worst


def is_subalgebra(spec: SubalgebraSpec) -> bool:
    return closure_residual(spec) <= STRUCT_TOL


def is_ideal(sub: SubalgebraSpec, ambient: SubalgebraSpec) -> bool:
    """True iff [ambient, sub] lies back in span(sub)."""
    for g in ambient.basis:
        for h in sub.basis:
            br = bracket(g, h)
            scale = max(1.0, float(np.linalg.norm(br.coords)))
            if span_residual(sub, br) / scale > STRUCT_TOL:
                return False
    return True


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
