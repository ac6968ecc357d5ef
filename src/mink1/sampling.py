"""Seeded random generators for motions, algebra elements and points."""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement
from .minkowski import (
    BOOST,
    NULL_ROTATION,
    ROTATION,
    Motion,
    _closed_exp_pair,
    inner,
)


def rng_from_seed(seed: int | None) -> np.random.Generator:
    return np.random.default_rng(42 if seed is None else seed)


def random_so12_matrix(rng) -> np.ndarray:
    """exp of a generator with boost, rotation and null-rotation
    coefficients uniform in [-1, 1], by the closed form on a stack of one."""
    c = rng.uniform(-1.0, 1.0, 3)
    X = c[0] * BOOST + c[1] * ROTATION + c[2] * NULL_ROTATION
    return _closed_exp_pair(X[None], np.zeros((1, 3)))[0][0]


def random_motion(rng) -> Motion:
    """A `random_so12_matrix` with a translation uniform in [-2, 2]^3."""
    return Motion(random_so12_matrix(rng), rng.uniform(-2.0, 2.0, 3))


def random_algebra_element(rng, scale: float = 1.0) -> AlgebraElement:
    c = rng.uniform(-scale, scale, 3)
    X = c[0] * BOOST + c[1] * ROTATION + c[2] * NULL_ROTATION
    return AlgebraElement(X, rng.uniform(-scale, scale, 3))


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
