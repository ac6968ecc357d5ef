"""Seeded random generators for motions, algebra elements and points."""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement
from .minkowski import (
    BOOST,
    NULL_ROTATION,
    ROTATION,
    Motion,
    _checked_motion,
    _closed_exp_pair,
    _validated,
    inner,
)


def rng_from_seed(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _generators(c) -> np.ndarray:
    """c1 BOOST + c2 ROTATION + c3 NULL_ROTATION for each row c[..., 3]."""
    c = c[..., None, None]
    return c[..., 0, :, :] * BOOST + c[..., 1, :, :] * ROTATION + c[..., 2, :, :] * NULL_ROTATION


def random_motions(rng, n: int) -> Motion:
    """A `Motion` stack of n, each drawn as three `_generators` coefficients
    uniform in [-1, 1], then a translation uniform in [-2, 2]^3; the stack
    is exponentiated by the closed form and checked once."""
    draw = rng.uniform((-1, -1, -1, -2, -2, -2), (1, 1, 1, 2, 2, 2), (n, 6))
    A, _ = _closed_exp_pair(_generators(draw[:, :3]), np.zeros((n, 3)))
    return _validated(A, draw[:, 3:])


def random_motion(rng) -> Motion:
    """`random_motions` on a stack of one."""
    m = random_motions(rng, 1)
    return _checked_motion(m.A[0], m.a[0])


def random_algebra_elements(rng, shape, scale: float = 1.0):
    """The parts (X[*shape, 3, 3], v[*shape, 3]) of a stack of elements, each
    drawn as three `_generators` coefficients, then a translation, uniform in
    [-scale, scale]; X lies in so(1,2) exactly by construction."""
    draw = rng.uniform(-scale, scale, np.append(shape, 6))
    return _generators(draw[..., :3]), draw[..., 3:]


def random_algebra_element(rng, scale: float = 1.0) -> AlgebraElement:
    """`random_algebra_elements` on a stack of one."""
    return AlgebraElement(*(x[0] for x in random_algebra_elements(rng, 1, scale)))


def accepted_draws(rng, n: int, bound: float, accept) -> list:
    """n points of [-bound, bound)^3 that `accept` (a mask of a stack
    P[N, 3]) keeps, drawn in rounds of the missing ones: the doubles, and
    the generator state left behind, of drawing and testing one point at
    a time."""
    pts = []
    while len(pts) < n:
        P = rng.uniform(-bound, bound, (n - len(pts), 3)).reshape(-1, 3)
        pts += list(P[accept(P)])
    return pts


def causal_mask(character: str):
    """The mask of a stack P[N, 3] keeping the points whose position vector
    has `character` ("spacelike" or "timelike") with |<p, p>| >= 0.05 and
    |x1 -+ x2| >= 0.05, clear of the boost families' null-translation
    strata."""
    if character not in ("spacelike", "timelike"):
        raise ValueError(f"character must be spacelike or timelike, got {character!r}")
    margin, side = 0.05, 1.0 if character == "spacelike" else -1.0
    return lambda P: ((side * inner(P, P) >= margin) & (abs(P[:, 0] - P[:, 1]) >= margin)
                      & (abs(P[:, 0] + P[:, 1]) >= margin))
