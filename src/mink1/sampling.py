"""Seeded random generators for motions, algebra elements and points."""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement
from .minkowski import (
    BOOST,
    NULL_ROTATION,
    ROTATION,
    Motion,
    Motions,
    _closed_exp_pair,
    _validated,
    inner,
)


def rng_from_seed(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(42 if seed is None else seed)


def _generators(c) -> np.ndarray:
    """c1 BOOST + c2 ROTATION + c3 NULL_ROTATION for each row c[..., 3]."""
    c = c[..., None, None]
    return c[..., 0, :, :] * BOOST + c[..., 1, :, :] * ROTATION + c[..., 2, :, :] * NULL_ROTATION


def random_motions(rng, n: int) -> Motions:
    """n motions, each drawn as three `_generators` coefficients uniform in
    [-1, 1], then a translation uniform in [-2, 2]^3; the stack is
    exponentiated by the closed form and checked once."""
    draw = rng.uniform((-1, -1, -1, -2, -2, -2), (1, 1, 1, 2, 2, 2), (n, 6))
    A, _ = _closed_exp_pair(_generators(draw[:, :3]), np.zeros((n, 3)))
    return _validated(A, draw[:, 3:])


def random_motion(rng) -> Motion:
    """`random_motions` on a stack of one."""
    A, a = random_motions(rng, 1)
    return Motion(A[0], a[0])


def random_algebra_element(rng, scale: float = 1.0) -> AlgebraElement:
    return AlgebraElement(_generators(rng.uniform(-scale, scale, 3)),
                          rng.uniform(-scale, scale, 3))


def random_causal_point(rng, character: str, avoid_boost_stratum: bool = False) -> np.ndarray:
    """A random point of [-3, 3]^3 whose position vector has the requested
    character, with |<p, p>| at least 0.05.

    With ``avoid_boost_stratum`` the point also keeps |x1 - x2| and
    |x1 + x2| above 0.05, staying clear of the null-translation strata
    used by the boost families.
    """
    margin = 0.05
    for _ in range(10000):
        p = rng.uniform(-3.0, 3.0, 3)
        q = inner(p, p)
        if character == "spacelike" and q < margin:
            continue
        if character == "timelike" and q > -margin:
            continue
        if avoid_boost_stratum and (abs(p[0] - p[1]) < margin or abs(p[0] + p[1]) < margin):
            continue
        return p
    raise RuntimeError("rejection sampling failed")
