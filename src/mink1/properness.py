"""Properness verdicts, constructive nonproperness witnesses, and the
sequence-recovery check that certifies the proper boost-screw family.

Properness itself is a universally quantified statement, so it is
decided by catalog lookup; numerics only certify nonproperness, by
exhibiting a point whose stabilizer contains a one-parameter subgroup
with unbounded linear part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, SubalgebraSpec
from .catalog import CatalogEntry
from .minkowski import (
    ELLIPTIC,
    FIXED_POINT_TOL,
    HYPERBOLIC,
    PARABOLIC,
    apply,
    compose,
    exp_element,
    generator_class,
)
from .orbits import analyze_points

WITNESS_STEPS = 20
WITNESS_NORM_FLOOR = 100.0
RECOVERY_TRIALS = 100  # seeded (t, u, X) draws per recovery_test


class WitnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class NonpropernessWitness:
    """A point, a stabilizing generator, and the growth certificate.

    exp(n*g) fixes the point for n = 1..20 while the entrywise sup norm
    of its linear part increases without bound; the certificate records
    (n, norm) pairs, strictly increasing and exceeding 100 by n = 20, and
    `residual` is max |exp(n g) p - p| over those n.
    """

    point: np.ndarray
    generator: AlgebraElement
    certificate: tuple
    residual: float


def verdict(entry: CatalogEntry) -> str:
    return "proper" if entry.proper else "nonproper"


def linear_growth_norm(A: np.ndarray):
    """Entrywise sup norm; for a boost at time n this is cosh(n).  A stack
    A[N, 3, 3] gives the norm of each matrix."""
    return np.abs(A).max(axis=(-2, -1))


def make_witness(entry: CatalogEntry) -> NonpropernessWitness:
    """Build and validate the nonproperness witness of an entry."""
    if entry.proper:
        raise WitnessError(f"{entry.id} acts properly; no witness exists")
    p = entry.witness_point
    g = entry.witness_generator
    kind = generator_class(g.X)
    if kind == ELLIPTIC:
        raise WitnessError(
            f"{entry.id}: candidate witness generator is elliptic; this contradicts "
            "the nonproper classification and signals an implementation bug")
    if kind not in (HYPERBOLIC, PARABOLIC):
        raise WitnessError(f"{entry.id}: witness generator has no linear growth")
    cert = []
    prev = -np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            flow = exp_element(g, np.arange(1.0, WITNESS_STEPS + 1))
    except ValueError as exc:  # motions the flow cannot hold: it overflows
        raise WitnessError(f"{entry.id}: the flow exp(n g), n <= {WITNESS_STEPS}, fails: {exc}")
    moved = np.abs(apply(flow, p) - p).max(axis=1)
    for n, res, norm in zip(range(1, WITNESS_STEPS + 1), moved.tolist(),
                            linear_growth_norm(flow.A).tolist()):
        if res > FIXED_POINT_TOL:
            raise WitnessError(
                f"{entry.id}: exp({n} g) moves the witness point by {res:.3e}")
        if norm <= prev:
            raise WitnessError(f"{entry.id}: witness norms are not strictly increasing")
        prev = norm
        cert.append((n, norm))
    if cert[-1][1] < WITNESS_NORM_FLOOR:
        raise WitnessError(
            f"{entry.id}: witness norm at n={WITNESS_STEPS} is only {cert[-1][1]:.3f}")
    return NonpropernessWitness(point=np.asarray(p, float), generator=g,
                                certificate=tuple(cert), residual=float(moved.max()))


def stabilizer_compactness(spec: SubalgebraSpec, p) -> str:
    """trivial / compact / noncompact for the stabilizer at p, as
    `analyze_points` decides it."""
    return analyze_points(spec, p).stabilizer_class[0]


def recovery_test(entry: CatalogEntry, seed: int = 42) -> dict:
    """Recover the group parameters of the boost-screw family from pairs
    (X, g(t, u) X): t from the third coordinates, u from the first.

    Passes when both parameters are recovered to 1e-6 across all trials.
    """
    if entry.id != "P-d":
        raise ValueError("recovery_test is defined for the P-d family")
    beta = entry.params["beta"]
    rng = np.random.default_rng(seed)
    gen_boost, gen_null = entry.basis.basis
    # per trial t, u in [-3, 3) and X in [-5, 5)^3, drawn as one stack
    draws = rng.uniform((-3.0, -3.0, -5.0, -5.0, -5.0), (3.0, 3.0, 5.0, 5.0, 5.0),
                        (RECOVERY_TRIALS, 5))
    ts, us, Xs = draws[:, 0], draws[:, 1], draws[:, 2:]
    # group elements (A_t, u*nu + beta*t*e3), translating after boosting
    Ys = apply(compose(exp_element(gen_null, us), exp_element(gen_boost, ts)), Xs)
    t_rec = (Ys[:, 2] - Xs[:, 2]) / beta
    u_rec = Ys[:, 0] - Xs[:, 0] * np.cosh(t_rec) - Xs[:, 1] * np.sinh(t_rec)
    max_err = np.max(abs(np.concatenate([t_rec - ts, u_rec - us])), initial=0.0)
    return {"trials": RECOVERY_TRIALS, "max_error": max_err, "passed": bool(max_err < 1e-6)}
