"""Numerical orbit geometry at a point.

Everything reduces to the fundamental-field evaluation map
``(X, v) -> X p + v`` restricted to the acting algebra: its rank is the
orbit dimension, its nullspace is the stabilizer algebra, and the
induced scalar product on its image fixes the causal character.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement, SubalgebraSpec
from .catalog import COMPACT, NONCOMPACT, TRIVIAL, CatalogEntry, Stratum, expected_orbits
from .minkowski import (
    ETA,
    HYPERBOLIC,
    NILPOTENT_TOL,
    PARABOLIC,
    STRUCT_TOL,
    ZERO_TOL,
    _checked_motion,
    apply,
    causal_of_svd,
    compose,
    exp_element,
    generator_class,
    inner,
    numeric_rank,
    sign_of,
)

# central-difference step of `finite_tangent`
TANGENT_STEP = 1e-5


def tangent_basis(spec: SubalgebraSpec, p) -> np.ndarray:
    """Fundamental vectors X p + v of the basis elements, as rows.

    For a stack of points ``p[..., 3]`` the result is one such block per
    point, shape ``(..., dim, 3)``.  Each X p is a stacked matrix-vector
    product, so a block equals, bit for bit, the one of its point alone.
    """
    X, v = spec.parts
    return (X @ np.asarray(p, dtype=float)[..., None, :, None])[..., 0] + v


class PointAnalysis(NamedTuple):
    """What `analyze_points` decides, one list entry per point; the columns of
    ``coefficients[k]`` (left singular vectors) past ``orbit_dim[k]`` give the stabilizer,
    and ``singular_values[k]`` are the tangent map's, s[N, min(dim, 3)]."""

    orbit_dim: list
    causal: list
    stabilizer_dim: list
    stabilizer_class: list
    coefficients: np.ndarray
    singular_values: np.ndarray


def _combine(coeffs, parts):
    """sum_i coeffs[..., i, j] * parts[i] per column j, in basis order as `AlgebraElement` adds."""
    columns = np.moveaxis(coeffs, -2, 0)
    terms = (c[(...,) + (None,) * np.ndim(x)] * x for c, x in zip(columns, parts))
    acc = next(terms)
    for term in terms:
        acc = acc + term
    return acc


def analyze_points(spec: SubalgebraSpec, P) -> PointAnalysis:
    """Orbit dimension, causal character, stabilizer and singular values at
    every point of a stack P[N, 3], from one batched full SVD of the N tangent
    maps; each point gets the bits its own SVD gives.  A connected one-parameter
    isometry group with a fixed point is precompact iff its linear part is
    elliptic, so a stabilizer is noncompact when a generator is hyperbolic
    or parabolic, compact when it has generators and none is, else trivial.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    u, s, vh = np.linalg.svd(tangent_basis(spec, P), full_matrices=True)
    odim = numeric_rank(s).tolist()
    sclass = [TRIVIAL] * len(odim)
    dim = spec.dim
    lo = min(odim, default=dim)  # no column before it spans a stabilizer
    if lo < dim:
        kinds = generator_class(_combine(u[:, :, lo:], spec.parts[0])).tolist()
        for k, (rank, row) in enumerate(zip(odim, kinds)):
            gens = row[rank - lo:]
            if gens:
                sclass[k] = NONCOMPACT if HYPERBOLIC in gens or PARABOLIC in gens else COMPACT
    return PointAnalysis(odim, causal_of_svd(odim, vh), [dim - r for r in odim], sclass, u, s)


def orbit_dimension(spec: SubalgebraSpec, p) -> int:
    return analyze_points(spec, p).orbit_dim[0]


def stabilizer_algebra(spec: SubalgebraSpec, p) -> SubalgebraSpec:
    """Nullspace of the evaluation map, as a subalgebra of `spec`."""
    a = analyze_points(spec, p)
    return SubalgebraSpec(_combine(a.coefficients[0, :, a.orbit_dim[0]:], spec.coords_matrix))


def orbit_causal(spec: SubalgebraSpec, p) -> str:
    """Causal character of the tangent space T_p G(p)."""
    return analyze_points(spec, p).causal[0]


def orbit_normal(spec: SubalgebraSpec, p) -> np.ndarray:
    """Metric normal direction of a 2-dimensional orbit.

    Solves <n, xi> = 0 over the tangent vectors; returns a Euclidean unit
    vector whose first component beyond ZERO_TOL is positive.  For a
    degenerate orbit the direction is null and tangent.  A stack P[N, 3]
    gives the normals n[N, 3], each bit for bit its point's alone.
    """
    P = np.asarray(p, dtype=float)
    _, s, vh = np.linalg.svd(tangent_basis(spec, P.reshape(-1, 3)) @ ETA)
    if (numeric_rank(s) != 2).any():
        raise ValueError("orbit is not 2-dimensional at this point")
    n = vh[:, 2]
    first = n[np.arange(len(n)), np.argmax(sign_of(n, ZERO_TOL) != 0, axis=1)]
    n = np.where(first[:, None] < 0, -n, n)
    return (n / np.sqrt(n[:, None] @ n[..., None])[..., 0]).reshape(P.shape)


def finite_tangent(el: AlgebraElement, p) -> np.ndarray:
    """Central-difference velocity of the flow of (X, v) at p."""
    plus, minus = apply(exp_element(el, np.array([TANGENT_STEP, -TANGENT_STEP])), p)
    return (plus - minus) / (2.0 * TANGENT_STEP)


def sample_orbit(entry: CatalogEntry, P, grid) -> np.ndarray:
    """Orbit points exp(t1 xi1) exp(t2 xi2) ... p over a parameter grid.

    ``grid`` is an (N, dim) array, or a sequence of N tuples, with one
    coordinate per basis element; a base point p[3] gives the samples[N, 3],
    a stack P[M, 3] the samples[M, N, 3].  The empty grid yields the base
    points themselves.  Each flow exponentiates each distinct time of its
    column once (by bits, so -0.0 and 0.0 are two) and gathers the rows;
    the stacks compose row by row once for all base points, so every
    sample has the bits of its own chain of motions and point.
    """
    P = np.asarray(P, dtype=float)
    ts = np.asarray(grid, dtype=float)
    if not ts.size:
        return P[..., None, :]
    if ts.ndim != 2 or ts.shape[1] != entry.basis.dim:
        raise ValueError("grid tuples must match the basis dimension")
    return apply(reduce(compose, map(_flow, entry.basis.basis, ts.T)), P[..., None, :])


def _flow(el, t):
    """`exp_element` of el over the times t[N], each distinct one taken once."""
    distinct, at = np.unique(t.view(np.uint64), return_inverse=True)
    m = exp_element(el, distinct.view(float))
    return _checked_motion(m.A[at], m.a[at])


def eq1_norm(alpha: float, p) -> float:
    """Squared norm of the mixed boost/null-rotation tangent vector at p.

    Equals alpha^2 (x1^2 - x2^2) + 2 alpha x3 (x1 - x2) + (x1 - x2)^2,
    which is the scalar square of (alpha*BOOST + NULL_ROTATION) p.  Its
    discriminant in alpha has the sign of <p, p>, which drives the
    Lorentzian / spacelike dichotomy of the solvable linear family.
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p
    return float(alpha * alpha * (x * x - y * y) + 2.0 * alpha * z * (x - y) + (x - y) ** 2)


def shape_operator(entry: CatalogEntry, p):
    """Shape operator of a boost-screw family orbit, in closed form.

    Valid on the Lorentzian stratum (x1 != sign*x2).  The flow of a basis
    element (X, v) is an isometry preserving the orbit, so it carries the
    unit normal n by exp(tX): the Killing field p -> X p + v has covariant
    derivative X, and S(X p + v) = -X n exactly.  S is written in the null
    tangent basis v1 (transverse null direction), v2 (the null translation
    direction), normalized to <v1, v2> = -1, where a tangent vector w has
    coordinates (-<w, v2>, -<w, v1>).  Returns the 2x2 matrix and the
    diagnosis "non-diagonalizable" when the eigenvalues coincide and the
    common eigenvalue's eigenspace is one-dimensional, both to
    NILPOTENT_TOL max|S|, else "diagonalizable".  A stack P[N, 3] gives S[N, 2, 2] and the list
    of diagnoses, each row bit for bit its point's alone.
    """
    if entry.id != "P-d":
        raise ValueError("shape_operator is defined for the P-d family")
    spec = entry.basis
    P = np.asarray(p, dtype=float).reshape(-1, 3)
    n = orbit_normal(spec, P)
    nn = inner(n, n)  # n is Euclidean-unit: (x1 - s x2)^2 / (2 beta^2) near the plane
    if (nn <= ZERO_TOL).any():
        raise ValueError("degenerate-plane stratum: no unit spacelike normal")
    n = n / np.sqrt(nn)[:, None]
    T = tangent_basis(spec, P)
    xi0, v2 = T[:, 0], T[:, 1]  # boost field, null translation
    g12 = inner(xi0, v2)[:, None]
    c = inner(xi0, xi0)[:, None] / (2.0 * g12)
    v1 = (xi0 - c * v2) / -g12
    X0, X1 = spec.parts[0]
    Sv = (((X0 - c[..., None] * X1) @ n[..., None])[..., 0] / g12,
          (-X1 @ n[..., None])[..., 0])  # S(v1), S(v2)
    Smat = np.stack([np.stack([-inner(w, v) for w in Sv], -1) for v in (v2, v1)], -2)
    lam = np.linalg.eigvals(Smat)
    cut = NILPOTENT_TOL * np.abs(Smat).max(axis=(1, 2))
    sv = np.linalg.svd(Smat - lam.real.mean(axis=1)[:, None, None] * np.eye(2), compute_uv=False)
    nilpotent = (abs(lam[:, 0] - lam[:, 1]) <= cut) & (sv[:, 0] > cut) & (sv[:, 1] <= cut)
    diagnoses = ["non-diagonalizable" if x else "diagonalizable" for x in nilpotent.tolist()]
    return (Smat[0], diagnoses[0]) if np.ndim(p) == 1 else (Smat, diagnoses)


_STENCIL = np.array(
    [d for d in itertools.product((-1, 0, 1), repeat=3) if d != (0, 0, 0)],
    dtype=float,
)
_STENCIL = _STENCIL / np.linalg.norm(_STENCIL, axis=1)[:, None]
STENCIL_RADIUS = 1e-3
_STENCIL_STEPS = STENCIL_RADIUS * _STENCIL


def _evidence(spec: SubalgebraSpec, p: np.ndarray, s: np.ndarray, reach: float) -> dict:
    """Orbit dimensions at p and its 26 stencil neighbours (at distance
    STENCIL_RADIUS), compared; ``s`` holds the singular values at p.

    A neighbour's tangent map is T(p) + E, E's rows X_i d with |d| = STENCIL_RADIUS,
    so ||E||_2 <= reach = STENCIL_RADIUS sqrt(sum ||X_i||_F^2).  By Weyl's inequality
    (Golub & Van Loan, Matrix Computations, 8.6) its singular values lie within reach
    of s, so if s[-1] - reach > 2 STRUCT_TOL (s[0] + reach), all 27 points have rank
    len(s) = min(dim, 3); the factor 2 covers roundoff, about 1e-16 s[0].  Otherwise
    (NaN and inf too) one batched SVD factors the 27 tangent maps, row 0 being p, and
    each row's rank is `orbit_dimension` of its point.
    """
    total = len(_STENCIL)
    od, same = len(s), total
    if not s[-1] - reach > 2.0 * STRUCT_TOL * (s[0] + reach):
        pts = np.concatenate([p[None], p + _STENCIL_STEPS])
        dims = numeric_rank(np.linalg.svd(tangent_basis(spec, pts), compute_uv=False))
        od, same = int(dims[0]), int(np.count_nonzero(dims[1:] == dims[0]))
    return {
        "center_dims": (od, spec.dim - od),
        "neighbors_same": same,
        "neighbors_total": total,
        "principal_evidence": same == total,
        "exceptional_evidence": od == 2 and same < total,
    }


def orbit_class(entry: CatalogEntry, p):
    """Orbit class verdict (from the catalog) plus numeric evidence.

    The catalog table is authoritative: openness of an orbit type is not
    decidable from samples.  The evidence compares (orbit dimension,
    stabilizer dimension) at p against 26 perturbed points on a sphere
    of radius STENCIL_RADIUS; constancy supports a principal verdict, and a
    codimension-one orbit on a non-open stratum supports an exceptional
    one.
    """
    rep = orbit_report(entry, p)
    return rep.orbit_class, rep.evidence


@dataclass(frozen=True)
class OrbitReport:
    point: np.ndarray
    orbit_dim: int
    causal: str
    stabilizer_dim: int
    stabilizer_class: str
    orbit_class: str
    matched_expectation: bool
    expected: Stratum
    invariant_value: Optional[float]
    evidence: Optional[dict]


def orbit_reports(entry: CatalogEntry, P, with_evidence: bool = True) -> list:
    """`orbit_report` of every point of a stack P[N, 3], from one
    `analyze_points`, one `expected_orbits` and one invariant evaluation."""
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    strata = expected_orbits(entry, P)
    a = analyze_points(entry.basis, P)
    values = [None] * len(P) if entry.invariant is None else entry.invariant(P).tolist()
    reach = STENCIL_RADIUS * np.linalg.norm(entry.basis.parts[0])
    reports = []
    for p, s, expected, value, *got in zip(P, a.singular_values, strata, values, a.orbit_dim,
                                           a.causal, a.stabilizer_dim, a.stabilizer_class):
        reports.append(OrbitReport(
            p, *got,
            orbit_class=expected.orbit_class,
            matched_expectation=got == [expected.dim, expected.causal,
                                        expected.stabilizer_dim, expected.stabilizer_class],
            expected=expected,
            invariant_value=value,
            evidence=_evidence(entry.basis, p, s, reach) if with_evidence else None,
        ))
    return reports


def orbit_report(entry: CatalogEntry, p, with_evidence: bool = True) -> OrbitReport:
    """Full per-point analysis compared against the catalog expectation:
    one row of `analyze_points`, plus the evidence stencil."""
    return orbit_reports(entry, p, with_evidence)[0]
