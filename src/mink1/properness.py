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
    HYPERBOLIC,
    PARABOLIC,
    apply,
    compose,
    exp_element,
    generator_class,
)
from .orbits import stabilizer_algebra, stabilizer_class

WITNESS_STEPS = 20
WITNESS_NORM_FLOOR = 100.0
FIXED_POINT_TOL = 1e-8


class WitnessError(RuntimeError):
    pass


@dataclass(frozen=True)
class NonpropernessWitness:
    """A point, a stabilizing generator, and the growth certificate.

    exp(n*g) fixes the point for n = 1..20 while the entrywise sup norm
    of its linear part increases without bound; the certificate records
    (n, norm) pairs, strictly increasing and exceeding 100 by n = 20.
    """

    point: np.ndarray
    generator: AlgebraElement
    certificate: tuple


def verdict(entry: CatalogEntry) -> str:
    return "proper" if entry.proper else "nonproper"


def linear_growth_norm(A: np.ndarray) -> float:
    """Entrywise sup norm; for a boost at time n this is cosh(n)."""
    return float(np.max(np.abs(A)))


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
    for n in range(1, WITNESS_STEPS + 1):
        m = exp_element(g, float(n))
        res = float(np.max(np.abs(apply(m, p) - p)))
        if res > FIXED_POINT_TOL:
            raise WitnessError(
                f"{entry.id}: exp({n} g) moves the witness point by {res:.3e}")
        norm = linear_growth_norm(m.A)
        if norm <= prev:
            raise WitnessError(f"{entry.id}: witness norms are not strictly increasing")
        prev = norm
        cert.append((n, norm))
    if cert[-1][1] < WITNESS_NORM_FLOOR:
        raise WitnessError(
            f"{entry.id}: witness norm at n={WITNESS_STEPS} is only {cert[-1][1]:.3f}")
    return NonpropernessWitness(point=np.asarray(p, float), generator=g,
                                certificate=tuple(cert))


def stabilizer_compactness(spec: SubalgebraSpec, p) -> str:
    """trivial / compact / noncompact for the stabilizer at p, from the
    generator classes of the stabilizer algebra (`stabilizer_class`)."""
    return stabilizer_class(stabilizer_algebra(spec, p).basis)


def recovery_test(entry: CatalogEntry, trials: int = 100, seed: int = 42) -> dict:
    """Recover the group parameters of the boost-screw family from pairs
    (X, g(t, u) X): t from the third coordinates, u from the first.

    Passes when both parameters are recovered to 1e-6 across all trials.
    """
    if entry.id != "P-d":
        raise ValueError("recovery_test is defined for the P-d family")
    beta = entry.params["beta"]
    rng = np.random.default_rng(seed)
    gen_boost, gen_null = entry.basis.basis
    max_err = 0.0
    for _ in range(trials):
        t = rng.uniform(-3.0, 3.0)
        u = rng.uniform(-3.0, 3.0)
        X = rng.uniform(-5.0, 5.0, 3)
        # group element (A_t, u*nu + beta*t*e3): translate after boosting
        m = compose(exp_element(gen_null, u), exp_element(gen_boost, t))
        Y = apply(m, X)
        t_rec = (Y[2] - X[2]) / beta
        u_rec = Y[0] - X[0] * np.cosh(t_rec) - X[1] * np.sinh(t_rec)
        max_err = max(max_err, abs(t_rec - t), abs(u_rec - u))
    return {"trials": trials, "max_error": max_err, "passed": bool(max_err < 1e-6)}
