"""Catalog of the sixteen cohomogeneity-one symmetry families.

Four families act properly (P-a .. P-d) and twelve do not (N-i .. N-xii).
Each entry bundles a concrete subalgebra basis, ground-truth orbit
strata (predicate, dimension, causal character, orbit class, stabilizer
data), a conserved along-orbit invariant where one exists, the orbit
space, and a nonproperness witness where applicable.

Stratum predicates use an absolute tolerance on their defining
equalities so that measure-zero strata are targetable exactly from
rational inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .algebra import AlgebraElement, SubalgebraSpec
from .minkowski import (
    BOOST,
    DEGENERATE,
    E1,
    E2,
    E3,
    LORENTZIAN,
    NULL,
    NULL_MINUS,
    NULL_PLUS,
    NULL_ROTATION,
    RIEMANNIAN,
    ROTATION,
    SPACELIKE,
    TIMELIKE,
    ZERO_VECTOR,
    inner,
)

STRATUM_TOL = 1e-9

PRINCIPAL = "principal"
SINGULAR = "singular"
EXCEPTIONAL = "exceptional"
OPEN_ORBIT = "open-orbit"

TRIVIAL = "trivial"
COMPACT = "compact"
NONCOMPACT = "noncompact"

REAL_LINE = "real-line"
HALF_LINE = "half-line-closed"
THREE_POINTS = "three-points-non-Hausdorff"
OTHER_NON_HAUSDORFF = "other-non-Hausdorff"

PROPER_IDS = ("P-a", "P-b", "P-c", "P-d")
NONPROPER_IDS = (
    "N-i", "N-ii", "N-iii", "N-iv", "N-v", "N-vi",
    "N-vii", "N-viii", "N-ix", "N-x", "N-xi", "N-xii",
)
CATALOG_IDS = PROPER_IDS + NONPROPER_IDS


class CatalogError(ValueError):
    pass


@dataclass(frozen=True)
class Stratum:
    """One row of an entry's expected-orbit table."""

    name: str
    predicate: Callable[[np.ndarray], bool]
    dim: int
    causal: str
    orbit_class: str
    stabilizer_dim: int
    stabilizer_class: str
    samplers: tuple


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    basis: SubalgebraSpec
    proper: bool
    orbit_space: str
    strata: tuple
    family: str
    param_domain: str
    invariant_name: Optional[str]
    invariant: Optional[Callable[[np.ndarray], float]]
    witness_point: Optional[np.ndarray]
    witness_generator: Optional[AlgebraElement]


def expected_orbit(entry: CatalogEntry, p) -> Stratum:
    """The stratum whose predicate matches the base point.

    Strata of an entry are pairwise disjoint and cover all of R^3, so
    exactly one row matches.
    """
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("base point must be finite")
    for s in entry.strata:
        if s.predicate(p):
            return s
    raise AssertionError(f"strata of {entry.id} do not cover {p!r}")


def _el(X, v) -> AlgebraElement:
    return AlgebraElement(np.asarray(X, float), np.asarray(v, float))


def _spec(*els) -> SubalgebraSpec:
    return SubalgebraSpec(tuple(els))


def _near(a: float, b: float = 0.0, tol: float = STRATUM_TOL) -> bool:
    return abs(a - b) <= tol


def _q_scale(p) -> float:
    return max(1.0, float(np.dot(p, p)))


# ---------------------------------------------------------------------------
# samplers: each returns one point of the stratum it belongs to


def _u(rng, lo=0.3, hi=3.0):
    """A random magnitude bounded away from zero, with random sign."""
    return float(rng.uniform(lo, hi) * rng.choice([-1.0, 1.0]))


def _generic3(rng):
    return rng.uniform(-3.0, 3.0, 3)


def _origin(rng):
    return np.zeros(3)


def _cone_sampler(side, avoid_plane=False):
    """Samples one component (future or past) of the light cone; with
    `avoid_plane` a point near x1 = x2 is swapped for (t, -t, 0)."""
    def sample(rng):
        t = side * rng.uniform(0.5, 2.5)
        th = rng.uniform(0.0, 2 * np.pi)
        p = np.array([t, t * np.cos(th), t * np.sin(th)])
        if avoid_plane and abs(p[0] - p[1]) < 0.05:
            p = np.array([t, -t, 0.0])
        return p

    return sample


# ---------------------------------------------------------------------------
# shared strata


def _plane_strata(s, b, plane_row, off_row, sample_off=None):
    """The plane x1 - s*x2 + b = 0 and its complement, as two strata.

    A row is (name, dim, causal, orbit class, stabilizer dim, stabilizer
    class).  The plane stratum samples exactly on the plane; unless
    `sample_off` is given, the complement samples generic points at
    least 0.05 off it.
    """
    def on_plane(p):
        return _near(p[0] - s * p[1] + b)

    def sample_plane(rng):
        a, c = rng.uniform(-3.0, 3.0, 2)
        return np.array([a, s * a + b, c])

    def sample_generic_off(rng):
        while True:
            p = _generic3(rng)
            if abs(p[0] - s * p[1] + b) > 0.05:
                return p

    return (
        Stratum(plane_row[0], on_plane, *plane_row[1:], (sample_plane,)),
        Stratum(off_row[0], lambda p: not on_plane(p), *off_row[1:],
                (sample_off or sample_generic_off,)),
    )


# rows shared by the boost families whose translations fill a null plane
_EXCEPTIONAL_PLANE = ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 1, NONCOMPACT)
_OPEN_HALF_SPACE = ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 0, TRIVIAL)


def _at_origin(p):
    return bool(np.max(np.abs(p)) <= STRATUM_TOL)


def _cone_regions(keep):
    """Predicates <p,p> < 0, = 0 and > 0 (to STRATUM_TOL relative to
    max(1, |p|^2)), each restricted to the points `keep` accepts."""
    def region(sign):
        def pred(p):
            if not keep(p):
                return False
            q, cut = inner(p, p), STRATUM_TOL * _q_scale(p)
            return (q > cut) - (q < -cut) == sign

        return pred

    return region(-1), region(0), region(1)


# ---------------------------------------------------------------------------
# family builders


def _build_P_a(plane: str = "spacelike") -> CatalogEntry:
    planes = {
        "spacelike": ((_el(0 * BOOST, E2), _el(0 * BOOST, E3)), RIEMANNIAN,
                      "x1", lambda q: float(q[0])),
        "timelike": ((_el(0 * BOOST, E1), _el(0 * BOOST, E2)), LORENTZIAN,
                     "x3", lambda q: float(q[2])),
        "degenerate": ((_el(0 * BOOST, NULL_PLUS), _el(0 * BOOST, E3)), DEGENERATE,
                       "x1-x2", lambda q: float(q[0] - q[1])),
    }
    if plane not in planes:
        raise CatalogError(f"P-a plane must be one of {sorted(planes)}, got {plane!r}")
    els, causal, inv_name, inv = planes[plane]
    strata = (
        Stratum("translated-plane", lambda p: True, 2, causal, PRINCIPAL, 0, TRIVIAL,
                (_generic3,)),
    )
    return CatalogEntry(
        id="P-a", params={"plane": plane}, basis=_spec(*els), proper=True,
        orbit_space=REAL_LINE, strata=strata,
        family="pure translations along a fixed 2-plane",
        param_domain="plane in {spacelike, timelike, degenerate}",
        invariant_name=inv_name, invariant=inv,
        witness_point=None, witness_generator=None,
    )


def _build_P_b() -> CatalogEntry:
    def on_axis(p):
        return _near(p[1]) and _near(p[2])

    def sample_axis(rng):
        return np.array([_u(rng), 0.0, 0.0])

    def sample_cyl(rng):
        p = _generic3(rng)
        while max(abs(p[1]), abs(p[2])) < 0.1:
            p = _generic3(rng)
        return p

    strata = (
        Stratum("timelike-axis", on_axis, 1, TIMELIKE, SINGULAR, 1, COMPACT,
                (sample_axis,)),
        Stratum("cylinder", lambda p: not on_axis(p), 2, LORENTZIAN, PRINCIPAL, 0,
                TRIVIAL, (sample_cyl,)),
    )
    return CatalogEntry(
        id="P-b", params={}, basis=_spec(_el(ROTATION, 0 * E1), _el(0 * BOOST, E1)),
        proper=True, orbit_space=HALF_LINE, strata=strata,
        family="rotations about a timelike axis times translations along it",
        param_domain="none",
        invariant_name="x2^2+x3^2", invariant=lambda q: float(q[1] ** 2 + q[2] ** 2),
        witness_point=None, witness_generator=None,
    )


def _build_P_c() -> CatalogEntry:
    strata = (
        Stratum("spacelike-plane", lambda p: True, 2, RIEMANNIAN, PRINCIPAL, 1,
                COMPACT, (_generic3,)),
    )
    return CatalogEntry(
        id="P-c", params={}, basis=_spec(_el(ROTATION, 0 * E1), _el(0 * BOOST, E2),
                                         _el(0 * BOOST, E3)),
        proper=True, orbit_space=REAL_LINE, strata=strata,
        family="Euclidean motions of the spacelike planes x1 = const",
        param_domain="none",
        invariant_name="x1", invariant=lambda q: float(q[0]),
        witness_point=None, witness_generator=None,
    )


def _finite_param(id_: str, name: str, value) -> float:
    """A real family parameter as a float; a non-finite one is rejected."""
    x = float(value)
    if not math.isfinite(x):
        raise CatalogError(f"{id_} parameter {name} must be finite, got {value!r}")
    return x


def _build_P_d(sign: float = 1.0, beta: float = 1.0) -> CatalogEntry:
    s = float(sign)
    if s not in (1.0, -1.0):
        raise CatalogError(f"P-d sign must be +1 or -1, got {sign!r}")
    beta = _finite_param("P-d", "beta", beta)
    if beta == 0.0:
        raise CatalogError("P-d requires beta != 0 (beta = 0 is the N-v / N-vi family)")
    nu = NULL_PLUS if s > 0 else NULL_MINUS

    def sample_cyl(rng):
        while True:
            p = _generic3(rng)
            if abs(p[0] - s * p[1]) > 0.05 and abs(p[2]) < 2.0:
                return p

    def invariant(q, _s=s, _b=beta):
        # inf (nan on the plane) once s*x3/beta passes ~709
        with np.errstate(over="ignore", invalid="ignore"):
            return float((q[0] - _s * q[1]) * np.exp(_s * q[2] / _b))

    strata = _plane_strata(
        s, 0.0, ("degenerate-plane", 2, DEGENERATE, PRINCIPAL, 0, TRIVIAL),
        ("generalized-cylinder", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL), sample_cyl)
    return CatalogEntry(
        id="P-d", params={"sign": s, "beta": beta},
        basis=_spec(_el(BOOST, beta * E3), _el(0 * BOOST, nu)),
        proper=True, orbit_space=REAL_LINE, strata=strata,
        family="boosts coupled to spacelike-axis translations, with a null translation",
        param_domain="sign in {+1, -1}; beta != 0",
        invariant_name="(x1-s*x2)*exp(s*x3/beta)", invariant=invariant,
        witness_point=None, witness_generator=None,
    )


def _build_N_i() -> CatalogEntry:
    def on_axis(p):
        return _near(p[0]) and _near(p[1])

    def on_halfplane(p):
        return (not on_axis(p)) and (_near(p[0] - p[1]) or _near(p[0] + p[1]))

    def riem(p):
        return (not on_axis(p)) and (not on_halfplane(p)) and abs(p[0]) > abs(p[1])

    def lor(p):
        return (not on_axis(p)) and (not on_halfplane(p)) and abs(p[0]) < abs(p[1])

    def sample_axis(rng):
        return np.array([0.0, 0.0, rng.uniform(-3.0, 3.0)])

    def _half(sx, sy):
        # one sampler per half-plane, so all four are always exercised
        def sample(rng):
            a = rng.uniform(0.3, 3.0)
            return np.array([sx * a, sy * a, rng.uniform(-3.0, 3.0)])

        return sample

    half_samplers = tuple(_half(sx, sy) for sx in (1.0, -1.0) for sy in (1.0, -1.0))

    def sample_riem(rng):
        while True:
            p = _generic3(rng)
            if abs(p[0]) > abs(p[1]) + 0.05:
                return p

    def sample_lor(rng):
        while True:
            p = _generic3(rng)
            if abs(p[1]) > abs(p[0]) + 0.05:
                return p

    strata = (
        Stratum("spacelike-axis", on_axis, 1, SPACELIKE, SINGULAR, 1, NONCOMPACT,
                (sample_axis,)),
        Stratum("degenerate-half-plane", on_halfplane, 2, DEGENERATE, PRINCIPAL, 0,
                TRIVIAL, half_samplers),
        Stratum("cylinder-branch-spacelike", riem, 2, RIEMANNIAN, PRINCIPAL, 0,
                TRIVIAL, (sample_riem,)),
        Stratum("cylinder-branch-lorentzian", lor, 2, LORENTZIAN, PRINCIPAL, 0,
                TRIVIAL, (sample_lor,)),
    )
    return CatalogEntry(
        id="N-i", params={}, basis=_spec(_el(BOOST, 0 * E1), _el(0 * BOOST, E3)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="boosts times translations along the boost axis",
        param_domain="none",
        invariant_name="x1^2-x2^2", invariant=lambda q: float(q[0] ** 2 - q[1] ** 2),
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


def _build_N_ii() -> CatalogEntry:
    strata = (
        Stratum("lorentzian-plane", lambda p: True, 2, LORENTZIAN, PRINCIPAL, 1,
                NONCOMPACT, (_generic3,)),
    )
    return CatalogEntry(
        id="N-ii", params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(0 * BOOST, E1), _el(0 * BOOST, E2)),
        proper=False, orbit_space=REAL_LINE, strata=strata,
        family="full motion group of the timelike planes x3 = const",
        param_domain="none",
        invariant_name="x3", invariant=lambda q: float(q[2]),
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


def _null_plane_entry(id_, s):
    """Shared construction for the boost-with-null-plane families."""
    nu = NULL_PLUS if s > 0 else NULL_MINUS
    strata = _plane_strata(s, 0.0, _EXCEPTIONAL_PLANE, _OPEN_HALF_SPACE)
    # the origin lies on the degenerate stratum and the boost fixes it exactly
    wp = np.zeros(3)
    wg = _el(BOOST, 0 * E1)
    return CatalogEntry(
        id=id_, params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(0 * BOOST, nu), _el(0 * BOOST, E3)),
        proper=False, orbit_space=THREE_POINTS, strata=strata,
        family="boosts with translations filling a degenerate plane "
               f"(null direction e1{'+' if s > 0 else '-'}e2)",
        param_domain="none",
        invariant_name=None, invariant=None,
        witness_point=wp, witness_generator=wg,
    )


def _null_line_entry(id_, s):
    """Shared construction for the boost-with-null-line families."""
    nu = NULL_PLUS if s > 0 else NULL_MINUS
    strata = _plane_strata(s, 0.0, ("null-line", 1, NULL, SINGULAR, 1, NONCOMPACT),
                           ("lorentzian-half-plane", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL))
    return CatalogEntry(
        id=id_, params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(0 * BOOST, nu)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="boosts with a single null translation direction "
               f"(e1{'+' if s > 0 else '-'}e2)",
        param_domain="none",
        invariant_name="x3", invariant=lambda q: float(q[2]),
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


def _build_N_vii(beta: float = 1.0) -> CatalogEntry:
    beta = _finite_param("N-vii", "beta", beta)
    # the singular line x2 = x1 + beta
    strata = _plane_strata(1.0, beta, ("null-line", 1, NULL, SINGULAR, 1, NONCOMPACT),
                           ("degenerate-plane", 2, DEGENERATE, PRINCIPAL, 0, TRIVIAL))
    if beta != 0.0:
        wp = np.array([0.0, beta, 0.0])
        wg = _el(NULL_ROTATION, beta * E3)
    else:
        wp = np.zeros(3)
        wg = _el(NULL_ROTATION, 0 * E3)
    return CatalogEntry(
        id="N-vii", params={"beta": beta},
        basis=_spec(_el(NULL_ROTATION, beta * E3), _el(0 * BOOST, NULL_PLUS)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="null rotations with a null translation; degenerate-plane orbits "
               "with a shifted line of fixed directions",
        param_domain="beta real (all values conjugate to beta = 0)",
        invariant_name="x1-x2", invariant=lambda q: float(q[0] - q[1]),
        witness_point=wp, witness_generator=wg,
    )


def _build_N_viii() -> CatalogEntry:
    strata = (
        Stratum("degenerate-plane", lambda p: True, 2, DEGENERATE, PRINCIPAL, 1,
                NONCOMPACT, (_generic3,)),
    )
    return CatalogEntry(
        id="N-viii", params={},
        basis=_spec(_el(NULL_ROTATION, 0 * E1), _el(0 * BOOST, NULL_PLUS),
                    _el(0 * BOOST, E3)),
        proper=False, orbit_space=REAL_LINE, strata=strata,
        family="null rotations with translations foliating by degenerate planes",
        param_domain="none",
        invariant_name="x1-x2", invariant=lambda q: float(q[0] - q[1]),
        witness_point=np.zeros(3), witness_generator=_el(NULL_ROTATION, 0 * E1),
    )


def _build_N_ix() -> CatalogEntry:
    def on_null_line(p):
        return (not _at_origin(p)) and _near(p[0] - p[1])

    riem, deg, lor = _cone_regions(
        lambda p: (not _at_origin(p)) and not _near(p[0] - p[1]))

    def sample_line_z0(rng):
        a = _u(rng)
        return np.array([a, a, 0.0])

    def sample_line_z(rng):
        a = rng.uniform(-3.0, 3.0)
        return np.array([a, a, _u(rng)])

    def sample_riem(rng):
        while True:
            p = _generic3(rng)
            if inner(p, p) < -0.05 and abs(p[0] - p[1]) > 0.05:
                return p

    def sample_lor(rng):
        while True:
            p = _generic3(rng)
            if inner(p, p) > 0.05 and abs(p[0] - p[1]) > 0.05:
                return p

    strata = (
        Stratum("origin", _at_origin, 0, ZERO_VECTOR, SINGULAR, 2, NONCOMPACT,
                (_origin,)),
        Stratum("null-line", on_null_line, 1, NULL, SINGULAR, 1, NONCOMPACT,
                (sample_line_z0, sample_line_z)),
        Stratum("timelike-region", riem, 2, RIEMANNIAN, PRINCIPAL, 0, TRIVIAL,
                (sample_riem,)),
        Stratum("light-cone-sector", deg, 2, DEGENERATE, PRINCIPAL, 0, TRIVIAL,
                (_cone_sampler(1.0, True), _cone_sampler(-1.0, True))),
        Stratum("spacelike-region", lor, 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL,
                (sample_lor,)),
    )
    return CatalogEntry(
        id="N-ix", params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(NULL_ROTATION, 0 * E1)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="the solvable boost/null-rotation group acting linearly",
        param_domain="none",
        invariant_name="<q,q>", invariant=lambda q: inner(q, q),
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


def _build_N_x(alpha: float = 1.0, beta: float = 1.0) -> CatalogEntry:
    alpha = _finite_param("N-x", "alpha", alpha)
    beta = _finite_param("N-x", "beta", beta)
    if alpha == 0.0:
        raise CatalogError(
            "N-x requires alpha != 0 (a trivial kernel direction is the N-ix family)")

    if beta != 0.0:
        plane_row, orbit_space = _EXCEPTIONAL_PLANE, THREE_POINTS
        wg = _el(NULL_ROTATION, 0 * E1)
    else:
        plane_row = ("null-line", 1, NULL, SINGULAR, 2, NONCOMPACT)
        orbit_space = OTHER_NON_HAUSDORFF
        wg = _el(BOOST, 0 * E1)
    strata = _plane_strata(1.0, 0.0, plane_row, _OPEN_HALF_SPACE)
    return CatalogEntry(
        id="N-x", params={"alpha": alpha, "beta": beta},
        basis=_spec(_el(BOOST, beta * E3), _el(NULL_ROTATION, 0 * E1),
                    _el(0 * BOOST, alpha * NULL_PLUS)),
        proper=False, orbit_space=orbit_space, strata=strata,
        family="solvable linear group extended by one null translation direction; "
               "the boost generator carries a spacelike translation of size beta",
        param_domain="alpha != 0 (kernel scale, normalized away); beta real",
        invariant_name=None, invariant=None,
        witness_point=np.zeros(3), witness_generator=wg,
    )


def _build_N_xi() -> CatalogEntry:
    strata = _plane_strata(1.0, 0.0,
                           ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 2, NONCOMPACT),
                           ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 1, NONCOMPACT))
    return CatalogEntry(
        id="N-xi", params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(NULL_ROTATION, 0 * E1),
                    _el(0 * BOOST, NULL_PLUS), _el(0 * BOOST, E3)),
        proper=False, orbit_space=THREE_POINTS, strata=strata,
        family="solvable linear group with a full degenerate plane of translations",
        param_domain="none",
        invariant_name=None, invariant=None,
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


def _build_N_xii() -> CatalogEntry:
    timelike_region, on_cone, spacelike_region = _cone_regions(
        lambda p: not _at_origin(p))

    def sample_timelike(rng):
        while True:
            p = _generic3(rng)
            if inner(p, p) < -0.05:
                return p

    def sample_spacelike(rng):
        while True:
            p = _generic3(rng)
            if inner(p, p) > 0.05:
                return p

    strata = (
        Stratum("origin", _at_origin, 0, ZERO_VECTOR, SINGULAR, 3, NONCOMPACT,
                (_origin,)),
        Stratum("light-cone", on_cone, 2, DEGENERATE, EXCEPTIONAL, 1, NONCOMPACT,
                (_cone_sampler(1.0), _cone_sampler(-1.0))),
        Stratum("pseudo-hyperbolic-sheet", timelike_region, 2, RIEMANNIAN, PRINCIPAL,
                1, COMPACT, (sample_timelike,)),
        Stratum("pseudo-sphere", spacelike_region, 2, LORENTZIAN, PRINCIPAL, 1,
                NONCOMPACT, (sample_spacelike,)),
    )
    return CatalogEntry(
        id="N-xii", params={},
        basis=_spec(_el(BOOST, 0 * E1), _el(ROTATION, 0 * E1),
                    _el(NULL_ROTATION, 0 * E1)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="the full linear isometry group (identity component)",
        param_domain="none",
        invariant_name="<q,q>", invariant=lambda q: inner(q, q),
        witness_point=np.zeros(3), witness_generator=_el(BOOST, 0 * E1),
    )


_BUILDERS = {
    "P-a": _build_P_a,
    "P-b": _build_P_b,
    "P-c": _build_P_c,
    "P-d": _build_P_d,
    "N-i": _build_N_i,
    "N-ii": _build_N_ii,
    "N-iii": partial(_null_plane_entry, "N-iii", +1.0),
    "N-iv": partial(_null_plane_entry, "N-iv", -1.0),
    "N-v": partial(_null_line_entry, "N-v", +1.0),
    "N-vi": partial(_null_line_entry, "N-vi", -1.0),
    "N-vii": _build_N_vii,
    "N-viii": _build_N_viii,
    "N-ix": _build_N_ix,
    "N-x": _build_N_x,
    "N-xi": _build_N_xi,
    "N-xii": _build_N_xii,
}


def build(id_: str, **params) -> CatalogEntry:
    """Construct a catalog entry, validating the parameter domain."""
    if id_ not in _BUILDERS:
        raise CatalogError(f"unknown family id {id_!r}; valid ids: {', '.join(CATALOG_IDS)}")
    try:
        return _BUILDERS[id_](**params)
    except TypeError as exc:
        raise CatalogError(f"bad parameters for {id_}: {exc}") from exc


def list_catalog():
    """Summaries (id, parameter domain, proper flag, orbit space) for all 16."""
    out = []
    for id_ in CATALOG_IDS:
        e = build(id_)
        out.append(
            {
                "id": e.id,
                "param_domain": e.param_domain,
                "proper": e.proper,
                "orbit_space": e.orbit_space,
                "family": e.family,
            }
        )
    return out
