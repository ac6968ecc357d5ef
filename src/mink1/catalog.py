"""Catalog of the sixteen cohomogeneity-one symmetry families.

Four families act properly (P-a .. P-d) and twelve do not (N-i .. N-xii).
Each entry bundles a concrete subalgebra basis, ground-truth orbit
strata (sign pattern, dimension, causal character, orbit class,
stabilizer data), a conserved along-orbit invariant where one exists,
the orbit space, and a nonproperness witness where applicable.

Each stratum is a sign pattern, held as data: a tuple of (invariant,
allowed signs) terms on a few named invariants of the base point (a
plane's x1 - s*x2 + b, the origin's max|p|, <p, p>, and the P-b and N-i
axis, diagonal and branch invariants below).  Its predicate holds when
`minkowski.sign_of` of each invariant it names, against that
invariant's cut, lies in the allowed set ({0} on an equality, {-1, +1}
off it).  Equalities use the absolute cut 1e-9, so measure-zero strata
are targetable exactly from rational inputs; <p, p> uses
1e-9 * max(1, |p|^2) and N-i's |x1| - |x2| uses 0.  A value exactly at
its cut reads as on the equality.  The patterns of an entry are
pairwise disjoint and cover R^3.  Every invariant, and each entry's
conserved one, maps a point p[3] to a value or a stack P[N, 3] to its
rows' values, bit for bit the same; `expected_orbits` evaluates each
invariant once for a whole stack.

The same pattern draws the samples of an open stratum: unless a
stratum names its own samplers, it samples generic points of
[-3, 3)^3, redrawn until each invariant's sign against the cut 0.05
lies in its allowed set, so every sample sits at least 0.05 on the
allowed side of each equality.  Only the measure-zero strata, P-b's
cylinder (0.1 off the axis) and P-d's cylinder (also |x3| < 2) sample
their own way.  `verify` reads its generic points' margins from the
same patterns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, partial
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
    STRUCT_TOL,
    TIMELIKE,
    ZERO_VECTOR,
    inner,
    sign_of,
)

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
    """One row of an entry's expected-orbit table.

    `pattern` is the stratum as data, ((invariant, allowed signs), ...),
    each invariant mapping a point p[3], or a stack P[N, 3] row by row,
    to (value, cut) for `sign_of`; no terms means every point.  Each
    sampler returns one point of the stratum; given none, the stratum gets
    the default sampler of the module docstring.
    """

    name: str
    pattern: tuple
    dim: int
    causal: str
    orbit_class: str
    stabilizer_dim: int
    stabilizer_class: str
    samplers: tuple = ()

    def __post_init__(self):
        if not self.samplers:
            object.__setattr__(self, "samplers",
                               (_rejecting(partial(_clears_margin, self.pattern)),))

    def predicate(self, p) -> bool:
        """Whether `sign_of` of every invariant of the pattern at p lies in
        its allowed signs."""
        for invariant, signs in self.pattern:
            if sign_of(*invariant(p)) not in signs:
                return False
        return True


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    params: dict
    basis: SubalgebraSpec
    proper: bool
    orbit_space: str
    strata: tuple
    family: str
    param_domain: str = "none"
    invariant_name: Optional[str] = None
    # p[3] -> value, P[N, 3] -> values[N]
    invariant: Optional[Callable[[np.ndarray], float | np.ndarray]] = None
    witness_point: Optional[np.ndarray] = None
    witness_generator: Optional[AlgebraElement] = None


def expected_orbits(entry: CatalogEntry, P) -> list:
    """The stratum whose predicate matches each point of a stack P[N, 3].

    Strata of an entry are pairwise disjoint and cover all of R^3, so
    exactly one row matches.  Each invariant the patterns name is taken
    once, on the whole stack, and the patterns are matched once per
    distinct combination of signs.
    """
    P = np.asarray(P, dtype=float).reshape(-1, 3)
    if not np.isfinite(P).all():
        raise ValueError("base point must be finite")
    invariants = tuple(dict.fromkeys(inv for s in entry.strata for inv, _ in s.pattern))
    # each point's signs, one per invariant (none for an entry of one stratum)
    rows = list(zip(*(sign_of(*inv(P)).tolist() for inv in invariants))) or [()] * len(P)
    matched = {}
    for row in set(rows):
        signs = dict(zip(invariants, row))
        matched[row] = next((s for s in entry.strata
                             if all(signs[inv] in allowed for inv, allowed in s.pattern)), None)
        if matched[row] is None:
            raise AssertionError(f"strata of {entry.id} do not cover {P[rows.index(row)]!r}")
    return [matched[row] for row in rows]


def expected_orbit(entry: CatalogEntry, p) -> Stratum:
    """`expected_orbits` of a single base point."""
    return expected_orbits(entry, np.reshape(p, (1, 3)))[0]


def _el(X, v) -> AlgebraElement:
    return AlgebraElement(np.asarray(X, float), np.asarray(v, float))


# the parameter-free generators and their spans are immutable, so each is built once
_BOOST_EL, _ROTATION_EL, _NULL_ROTATION_EL = (
    _el(X, 0 * E1) for X in (BOOST, ROTATION, NULL_ROTATION))
_T_E1, _T_E2, _T_E3, _T_NULL_PLUS, _T_NULL_MINUS = (
    _el(0 * BOOST, v) for v in (E1, E2, E3, NULL_PLUS, NULL_MINUS))


@cache
def _spec(*els) -> SubalgebraSpec:
    """The span of constant generators (a parameter's span is built anew)."""
    return SubalgebraSpec(els)


# ---------------------------------------------------------------------------
# invariants: each maps a point, or a stack row by row, to (value, cut) for `sign_of`


def _plane(s, b):
    """x1 - s*x2 + b, the defining equality of a plane."""
    return lambda p: (p[..., 0] - s * p[..., 1] + b, STRUCT_TOL)


def _sup_norm(p):
    """max|p|, zero only at the origin."""
    return abs(p).max(axis=-1), STRUCT_TOL


def _cone(p):
    """<p, p>, cut relative to max(1, |p|^2)."""
    return inner(p, p), STRUCT_TOL * np.maximum(1.0, (p[..., None, :] @ p[..., None])[..., 0, 0])


def _pb_axis(p):
    """max(|x2|, |x3|), zero on the timelike axis."""
    return np.maximum(abs(p[..., 1]), abs(p[..., 2])), STRUCT_TOL


def _ni_axis(p):
    """max(|x1|, |x2|), zero on the spacelike axis."""
    return np.maximum(abs(p[..., 0]), abs(p[..., 1])), STRUCT_TOL


def _ni_diagonals(p):
    """min(|x1 - x2|, |x1 + x2|), zero on the two null half-plane pairs."""
    return np.minimum(abs(p[..., 0] - p[..., 1]), abs(p[..., 0] + p[..., 1])), STRUCT_TOL


def _ni_branch(p):
    """|x1| - |x2| with cut 0: which cylinder branch p is on."""
    return abs(p[..., 0]) - abs(p[..., 1]), 0.0


def _coordinate(k):
    """The conserved invariant x_{k+1}: a number at p[3], a column of P[N, 3]."""
    return lambda q: np.take(q, k, axis=-1)


# sign sets of a pattern: on an equality, off it, and the sides of <p, p>
_ON, _OFF = frozenset({0}), frozenset({-1, 1})
_NEG, _POS = frozenset({-1}), frozenset({1})


# ---------------------------------------------------------------------------
# samplers: each returns one point of the stratum it belongs to


def _u(rng):
    """A random magnitude in [0.3, 3), with random sign."""
    return float(rng.uniform(0.3, 3.0) * rng.choice([-1.0, 1.0]))


def _origin(rng):
    return np.zeros(3)


def _rejecting(cond):
    """Sampler of generic points of [-3, 3)^3, redrawn until `cond` accepts one."""
    def sample(rng):
        while True:
            p = rng.uniform(-3.0, 3.0, 3)
            if cond(p):
                return p

    return sample


# how far a default sample sits on the allowed side of each equality
_SAMPLE_MARGIN = 0.05


def _clears_margin(pattern, p):
    """Whether every invariant of the pattern reads at p, against the cut
    _SAMPLE_MARGIN, a sign the pattern allows."""
    return all(sign_of(invariant(p)[0], _SAMPLE_MARGIN) in signs
               for invariant, signs in pattern)


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


def _plane_strata(s, b, plane_row, off_row, off_samplers=()):
    """The plane x1 - s*x2 + b = 0 and its complement, as two strata.

    A row is (name, dim, causal, orbit class, stabilizer dim, stabilizer
    class).  The plane stratum samples exactly on the plane; unless
    `off_samplers` are given, the complement has the default sampler.
    """
    plane = _plane(s, b)

    def sample_plane(rng):
        a, c = rng.uniform(-3.0, 3.0, 2)
        return np.array([a, s * a + b, c])

    return (
        Stratum(plane_row[0], ((plane, _ON),), *plane_row[1:], (sample_plane,)),
        Stratum(off_row[0], ((plane, _OFF),), *off_row[1:], off_samplers),
    )


# rows shared by the boost families whose translations fill a null plane
_EXCEPTIONAL_PLANE = ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 1, NONCOMPACT)
_OPEN_HALF_SPACE = ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 0, TRIVIAL)


# ---------------------------------------------------------------------------
# family builders


def _build_P_a(plane: str = "spacelike") -> CatalogEntry:
    planes = {
        "spacelike": ((_T_E2, _T_E3), RIEMANNIAN,
                      "x1", _coordinate(0)),
        "timelike": ((_T_E1, _T_E2), LORENTZIAN,
                     "x3", _coordinate(2)),
        "degenerate": ((_T_NULL_PLUS, _T_E3), DEGENERATE,
                       "x1-x2", lambda q: q[..., 0] - q[..., 1]),
    }
    if plane not in planes:
        raise CatalogError(f"P-a plane must be one of {sorted(planes)}, got {plane!r}")
    els, causal, inv_name, inv = planes[plane]
    strata = (Stratum("translated-plane", (), 2, causal, PRINCIPAL, 0, TRIVIAL),)
    return CatalogEntry(
        id="P-a", params={"plane": plane}, basis=_spec(*els), proper=True,
        orbit_space=REAL_LINE, strata=strata,
        family="pure translations along a fixed 2-plane",
        param_domain="plane in {spacelike, timelike, degenerate}",
        invariant_name=inv_name, invariant=inv,
    )


def _build_P_b() -> CatalogEntry:
    def sample_axis(rng):
        return np.array([_u(rng), 0.0, 0.0])

    strata = (
        Stratum("timelike-axis", ((_pb_axis, _ON),), 1, TIMELIKE, SINGULAR, 1,
                COMPACT, (sample_axis,)),
        Stratum("cylinder", ((_pb_axis, _OFF),), 2, LORENTZIAN, PRINCIPAL, 0,
                TRIVIAL, (_rejecting(lambda p: _pb_axis(p)[0] >= 0.1),)),
    )
    return CatalogEntry(
        id="P-b", params={}, basis=_spec(_ROTATION_EL, _T_E1),
        proper=True, orbit_space=HALF_LINE, strata=strata,
        family="rotations about a timelike axis times translations along it",
        invariant_name="x2^2+x3^2", invariant=lambda q: q[..., 1] ** 2 + q[..., 2] ** 2,
    )


def _build_P_c() -> CatalogEntry:
    strata = (Stratum("spacelike-plane", (), 2, RIEMANNIAN, PRINCIPAL, 1, COMPACT),)
    return CatalogEntry(
        id="P-c", params={}, basis=_spec(_ROTATION_EL, _T_E2, _T_E3),
        proper=True, orbit_space=REAL_LINE, strata=strata,
        family="Euclidean motions of the spacelike planes x1 = const",
        invariant_name="x1", invariant=_coordinate(0),
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
    nu = _T_NULL_PLUS if s > 0 else _T_NULL_MINUS
    sample_cyl = _rejecting(lambda p: abs(p[0] - s * p[1]) > 0.05 and abs(p[2]) < 2.0)

    def invariant(q, _s=s, _b=beta):
        # inf (nan on the plane) once s*x3/beta passes ~709
        with np.errstate(over="ignore", invalid="ignore"):
            return (q[..., 0] - _s * q[..., 1]) * np.exp(_s * q[..., 2] / _b)

    strata = _plane_strata(
        s, 0.0, ("degenerate-plane", 2, DEGENERATE, PRINCIPAL, 0, TRIVIAL),
        ("generalized-cylinder", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL), (sample_cyl,))
    return CatalogEntry(
        id="P-d", params={"sign": s, "beta": beta},
        basis=SubalgebraSpec((_el(BOOST, beta * E3), nu)),
        proper=True, orbit_space=REAL_LINE, strata=strata,
        family="boosts coupled to spacelike-axis translations, with a null translation",
        param_domain="sign in {+1, -1}; beta != 0",
        invariant_name="(x1-s*x2)*exp(s*x3/beta)", invariant=invariant,
    )


def _build_N_i() -> CatalogEntry:
    def sample_axis(rng):
        return np.array([0.0, 0.0, rng.uniform(-3.0, 3.0)])

    def _half(sx, sy):
        # one sampler per half-plane, so all four are always exercised
        def sample(rng):
            a = rng.uniform(0.3, 3.0)
            return np.array([sx * a, sy * a, rng.uniform(-3.0, 3.0)])

        return sample

    half_samplers = tuple(_half(sx, sy) for sx in (1.0, -1.0) for sy in (1.0, -1.0))
    generic = (_ni_axis, _OFF), (_ni_diagonals, _OFF)
    strata = (
        Stratum("spacelike-axis", ((_ni_axis, _ON),), 1, SPACELIKE, SINGULAR, 1,
                NONCOMPACT, (sample_axis,)),
        Stratum("degenerate-half-plane", ((_ni_axis, _OFF), (_ni_diagonals, _ON)),
                2, DEGENERATE, PRINCIPAL, 0, TRIVIAL, half_samplers),
        Stratum("cylinder-branch-spacelike", (*generic, (_ni_branch, _POS)), 2,
                RIEMANNIAN, PRINCIPAL, 0, TRIVIAL),
        Stratum("cylinder-branch-lorentzian", (*generic, (_ni_branch, _NEG)), 2,
                LORENTZIAN, PRINCIPAL, 0, TRIVIAL),
    )
    return CatalogEntry(
        id="N-i", params={}, basis=_spec(_BOOST_EL, _T_E3),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="boosts times translations along the boost axis",
        invariant_name="x1^2-x2^2", invariant=lambda q: q[..., 0] ** 2 - q[..., 1] ** 2,
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
    )


def _build_N_ii() -> CatalogEntry:
    strata = (Stratum("lorentzian-plane", (), 2, LORENTZIAN, PRINCIPAL, 1, NONCOMPACT),)
    return CatalogEntry(
        id="N-ii", params={},
        basis=_spec(_BOOST_EL, _T_E1, _T_E2),
        proper=False, orbit_space=REAL_LINE, strata=strata,
        family="full motion group of the timelike planes x3 = const",
        invariant_name="x3", invariant=_coordinate(2),
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
    )


def _null_plane_entry(id_, s):
    """Shared construction for the boost-with-null-plane families."""
    nu = _T_NULL_PLUS if s > 0 else _T_NULL_MINUS
    strata = _plane_strata(s, 0.0, _EXCEPTIONAL_PLANE, _OPEN_HALF_SPACE)
    # the origin lies on the degenerate stratum and the boost fixes it exactly
    wp = np.zeros(3)
    wg = _BOOST_EL
    return CatalogEntry(
        id=id_, params={},
        basis=_spec(_BOOST_EL, nu, _T_E3),
        proper=False, orbit_space=THREE_POINTS, strata=strata,
        family="boosts with translations filling a degenerate plane "
               f"(null direction e1{'+' if s > 0 else '-'}e2)",
        witness_point=wp, witness_generator=wg,
    )


def _null_line_entry(id_, s):
    """Shared construction for the boost-with-null-line families."""
    nu = _T_NULL_PLUS if s > 0 else _T_NULL_MINUS
    strata = _plane_strata(s, 0.0, ("null-line", 1, NULL, SINGULAR, 1, NONCOMPACT),
                           ("lorentzian-half-plane", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL))
    return CatalogEntry(
        id=id_, params={},
        basis=_spec(_BOOST_EL, nu),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="boosts with a single null translation direction "
               f"(e1{'+' if s > 0 else '-'}e2)",
        invariant_name="x3", invariant=_coordinate(2),
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
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
        wg = _NULL_ROTATION_EL
    return CatalogEntry(
        id="N-vii", params={"beta": beta},
        basis=SubalgebraSpec((_el(NULL_ROTATION, beta * E3), _T_NULL_PLUS)),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="null rotations with a null translation; degenerate-plane orbits "
               "with a shifted line of fixed directions",
        param_domain="beta real (all values conjugate to beta = 0)",
        invariant_name="x1-x2", invariant=lambda q: q[..., 0] - q[..., 1],
        witness_point=wp, witness_generator=wg,
    )


def _build_N_viii() -> CatalogEntry:
    strata = (Stratum("degenerate-plane", (), 2, DEGENERATE, PRINCIPAL, 1, NONCOMPACT),)
    return CatalogEntry(
        id="N-viii", params={},
        basis=_spec(_NULL_ROTATION_EL, _T_NULL_PLUS, _T_E3),
        proper=False, orbit_space=REAL_LINE, strata=strata,
        family="null rotations with translations foliating by degenerate planes",
        invariant_name="x1-x2", invariant=lambda q: q[..., 0] - q[..., 1],
        witness_point=np.zeros(3), witness_generator=_NULL_ROTATION_EL,
    )


def _build_N_ix() -> CatalogEntry:
    line = _plane(1.0, 0.0)
    off_line = (_sup_norm, _OFF), (line, _OFF)

    def sample_line_z0(rng):
        a = _u(rng)
        return np.array([a, a, 0.0])

    def sample_line_z(rng):
        a = rng.uniform(-3.0, 3.0)
        return np.array([a, a, _u(rng)])

    strata = (
        Stratum("origin", ((_sup_norm, _ON),), 0, ZERO_VECTOR, SINGULAR, 2,
                NONCOMPACT, (_origin,)),
        Stratum("null-line", ((_sup_norm, _OFF), (line, _ON)), 1, NULL, SINGULAR,
                1, NONCOMPACT, (sample_line_z0, sample_line_z)),
        Stratum("timelike-region", (*off_line, (_cone, _NEG)), 2, RIEMANNIAN,
                PRINCIPAL, 0, TRIVIAL),
        Stratum("light-cone-sector", (*off_line, (_cone, _ON)), 2, DEGENERATE,
                PRINCIPAL, 0, TRIVIAL, (_cone_sampler(1.0, True), _cone_sampler(-1.0, True))),
        Stratum("spacelike-region", (*off_line, (_cone, _POS)), 2, LORENTZIAN,
                PRINCIPAL, 0, TRIVIAL),
    )
    return CatalogEntry(
        id="N-ix", params={},
        basis=_spec(_BOOST_EL, _NULL_ROTATION_EL),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="the solvable boost/null-rotation group acting linearly",
        invariant_name="<q,q>", invariant=lambda q: inner(q, q),
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
    )


def _build_N_x(alpha: float = 1.0, beta: float = 1.0) -> CatalogEntry:
    alpha = _finite_param("N-x", "alpha", alpha)
    beta = _finite_param("N-x", "beta", beta)
    if alpha == 0.0:
        raise CatalogError(
            "N-x requires alpha != 0 (a trivial kernel direction is the N-ix family)")

    if beta != 0.0:
        plane_row, orbit_space = _EXCEPTIONAL_PLANE, THREE_POINTS
        wg = _NULL_ROTATION_EL
    else:
        plane_row = ("null-line", 1, NULL, SINGULAR, 2, NONCOMPACT)
        orbit_space = OTHER_NON_HAUSDORFF
        wg = _BOOST_EL
    strata = _plane_strata(1.0, 0.0, plane_row, _OPEN_HALF_SPACE)
    return CatalogEntry(
        id="N-x", params={"alpha": alpha, "beta": beta},
        basis=SubalgebraSpec((_el(BOOST, beta * E3), _NULL_ROTATION_EL,
                             _el(0 * BOOST, alpha * NULL_PLUS))),
        proper=False, orbit_space=orbit_space, strata=strata,
        family="solvable linear group extended by one null translation direction; "
               "the boost generator carries a spacelike translation of size beta",
        param_domain="alpha != 0 (kernel scale, normalized away); beta real",
        witness_point=np.zeros(3), witness_generator=wg,
    )


def _build_N_xi() -> CatalogEntry:
    strata = _plane_strata(1.0, 0.0,
                           ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 2, NONCOMPACT),
                           ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 1, NONCOMPACT))
    return CatalogEntry(
        id="N-xi", params={},
        basis=_spec(_BOOST_EL, _NULL_ROTATION_EL, _T_NULL_PLUS, _T_E3),
        proper=False, orbit_space=THREE_POINTS, strata=strata,
        family="solvable linear group with a full degenerate plane of translations",
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
    )


def _build_N_xii() -> CatalogEntry:
    off_origin = (_sup_norm, _OFF)
    strata = (
        Stratum("origin", ((_sup_norm, _ON),), 0, ZERO_VECTOR, SINGULAR, 3,
                NONCOMPACT, (_origin,)),
        Stratum("light-cone", (off_origin, (_cone, _ON)), 2, DEGENERATE,
                EXCEPTIONAL, 1, NONCOMPACT, (_cone_sampler(1.0), _cone_sampler(-1.0))),
        Stratum("pseudo-hyperbolic-sheet", (off_origin, (_cone, _NEG)), 2,
                RIEMANNIAN, PRINCIPAL, 1, COMPACT),
        Stratum("pseudo-sphere", (off_origin, (_cone, _POS)), 2, LORENTZIAN,
                PRINCIPAL, 1, NONCOMPACT),
    )
    return CatalogEntry(
        id="N-xii", params={},
        basis=_spec(_BOOST_EL, _ROTATION_EL, _NULL_ROTATION_EL),
        proper=False, orbit_space=OTHER_NON_HAUSDORFF, strata=strata,
        family="the full linear isometry group (identity component)",
        invariant_name="<q,q>", invariant=lambda q: inner(q, q),
        witness_point=np.zeros(3), witness_generator=_BOOST_EL,
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
    return [{"id": e.id, "param_domain": e.param_domain, "proper": e.proper,
             "orbit_space": e.orbit_space, "family": e.family}
            for e in map(build, CATALOG_IDS)]
