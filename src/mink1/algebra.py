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

import numpy as np

from .minkowski import generator_class, numeric_rank, so12_check


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

    Construction verifies linear independence; closure under the
    bracket is a separate, tolerance-based decision (`is_subalgebra`).
    The basis order is meaningful: the classifier resolves orientation
    ambiguities from the first supplied generator with a linear part.
    """

    basis: tuple

    def __post_init__(self):
        basis = tuple(self.basis)
        object.__setattr__(self, "basis", basis)
        if basis:
            s = np.linalg.svd(self.coords_matrix, compute_uv=False)
            if numeric_rank(s) < len(basis):
                raise ValueError("basis is not linearly independent")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def coords_matrix(self) -> np.ndarray:
        if not self.basis:
            return np.zeros((0, 12))
        return np.stack([el.coords for el in self.basis])


def span_residual(spec: SubalgebraSpec, el: AlgebraElement) -> float:
    """Distance of el from span(basis) after least-squares projection."""
    if spec.dim == 0:
        return float(np.linalg.norm(el.coords))
    M = spec.coords_matrix.T
    c, *_ = np.linalg.lstsq(M, el.coords, rcond=None)
    return float(np.linalg.norm(el.coords - M @ c))


def span_contains(spec: SubalgebraSpec, el: AlgebraElement, tol: float = 1e-9) -> bool:
    scale = max(1.0, float(np.linalg.norm(el.coords)))
    return span_residual(spec, el) <= tol * scale


def closure_residual(spec: SubalgebraSpec) -> float:
    """Largest (scaled) distance of a pairwise bracket from the span."""
    worst = 0.0
    for i in range(spec.dim):
        for j in range(i + 1, spec.dim):
            br = bracket(spec.basis[i], spec.basis[j])
            scale = max(1.0, float(np.linalg.norm(br.coords)))
            worst = max(worst, span_residual(spec, br) / scale)
    return worst


def is_subalgebra(spec: SubalgebraSpec, tol: float = 1e-9) -> bool:
    return closure_residual(spec) <= tol


def is_ideal(sub: SubalgebraSpec, ambient: SubalgebraSpec, tol: float = 1e-9) -> bool:
    """True iff [ambient, sub] lies back in span(sub)."""
    for g in ambient.basis:
        for h in sub.basis:
            br = bracket(g, h)
            scale = max(1.0, float(np.linalg.norm(br.coords)))
            if span_residual(sub, br) / scale > tol:
                return False
    return True


def _mat_rank_basis(rows: np.ndarray):
    """Numeric rank and an orthonormal row-space basis of `rows`."""
    _, s, vh = np.linalg.svd(rows)
    rank = numeric_rank(s)
    return rank, vh[:rank]


def linear_part(spec: SubalgebraSpec):
    """Dimension and a basis of { X : (X, v) in span(basis) }."""
    rows = np.stack([el.X.ravel() for el in spec.basis]) if spec.dim else np.zeros((0, 9))
    rank, rb = _mat_rank_basis(rows)
    return rank, [rb[i].reshape(3, 3) for i in range(rank)]


def kernel_of_l(spec: SubalgebraSpec):
    """Dimension and a basis of { v : (0, v) in span(basis) }.

    Coefficient vectors killing all the linear parts are found first;
    the corresponding translation combinations are then rank-reduced.
    """
    if spec.dim == 0:
        return 0, []
    L = np.stack([el.X.ravel() for el in spec.basis])  # (k, 9)
    u, s, _ = np.linalg.svd(L, full_matrices=True)
    rank = numeric_rank(s)
    null_coeffs = u[:, rank:].T
    if null_coeffs.shape[0] == 0:
        return 0, []
    V = np.stack([el.v for el in spec.basis])  # (k, 3)
    W = null_coeffs @ V
    rank, rb = _mat_rank_basis(W)
    return rank, [rb[i] for i in range(rank)]


def adjoint(m, el: AlgebraElement) -> AlgebraElement:
    """Push an infinitesimal isometry through conjugation by a motion.

    Ad_{(A,a)}(X, v) = (A X A^-1, A v - (A X A^-1) a).
    """
    from .minkowski import ETA

    Ai = ETA @ m.A.T @ ETA
    Y = m.A @ el.X @ Ai
    return AlgebraElement(Y, m.A @ el.v - Y @ m.a)


def adjoint_spec(m, spec: SubalgebraSpec) -> SubalgebraSpec:
    return SubalgebraSpec(tuple(adjoint(m, el) for el in spec.basis))


def first_linear_generator(spec: SubalgebraSpec, tol: float = 1e-9):
    """The first basis element with a nonzero linear part, or None.

    The classifier keys its orientation conventions to this element, so
    the basis order supplied by the caller is part of the contract.
    """
    for el in spec.basis:
        if np.max(np.abs(el.X)) > tol:
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
