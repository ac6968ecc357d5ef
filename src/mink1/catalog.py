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
off it).  Each invariant returns its cut beside its value (STRUCT_TOL,
times max(1, |p|^2) for <p, p>; 0 for N-i's branch), and a value exactly
at its cut reads as on the equality.  The patterns of an entry are
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
same patterns, and `pattern_signs` is the one reader of them all.

`build` returns one shared, read-only entry per family and parameters,
and a process keeps at most `_CACHE_SIZE` of them.  Parameters of another
type or `repr` are other keys (beta=-0.0, 0.0 and 0 are three); a build
that raises, or one given a value not a str, int or float, is not kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
from .sampling import accepted_draws

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
            accept = partial(_pattern_holds, self.pattern, cut=_SAMPLE_MARGIN)
            object.__setattr__(self, "samplers", (_rejecting(accept),))

    def predicate(self, p) -> bool:
        """Whether the sign of every invariant of the pattern at p lies in
        its allowed signs."""
        return _pattern_holds(self.pattern, np.reshape(p, (1, 3)))[0]


class _Params(dict):
    """A dict that refuses every change: the parameters of a shared entry."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("catalog entry parameters are read-only")
    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return _Params, (dict(self),)


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
    # (||X||_F over the basis, the largest stratum dim), always derived: `orbits._evidence`'s bound
    _rank_bound: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "params", _Params(self.params))
        object.__setattr__(self, "_rank_bound", (float(np.linalg.norm(self.basis.parts[0])),
                                                 max((s.dim for s in self.strata), default=0)))
        if self.witness_point is not None:
            self.witness_point.setflags(write=False)


def pattern_invariants(entry) -> tuple:
    """Each distinct invariant the patterns of the entry's strata name, in order."""
    return tuple(dict.fromkeys(inv for s in entry.strata for inv, _ in s.pattern))


def pattern_signs(invariants, P, cut=None) -> list:
    """Each point's tuple of signs over the invariants, for a stack P[N, 3]:
    `sign_of` of each invariant's value against its own cut, or against
    `cut` when one is given.  No invariants give each point ()."""
    columns = [sign_of(value, own if cut is None else cut).tolist()
               for value, own in (inv(P) for inv in invariants)]
    return list(zip(*columns)) or [()] * len(P)


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
    invariants = pattern_invariants(entry)
    rows = pattern_signs(invariants, P)
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


# the parameter-free generators are immutable, so each is built once
_BOOST_EL, _ROTATION_EL, _NULL_ROTATION_EL = (
    AlgebraElement(X, 0 * E1) for X in (BOOST, ROTATION, NULL_ROTATION))
_T_E1, _T_E2, _T_E3, _T_NULL_PLUS, _T_NULL_MINUS = (
    AlgebraElement(0 * BOOST, v) for v in (E1, E2, E3, NULL_PLUS, NULL_MINUS))


# ---------------------------------------------------------------------------
# invariants: each maps a point, or a stack row by row, to (value, cut) for `sign_of`


def _plane(s, b):
    """x1 - s*x2 + b, the defining equality of a plane."""
    return lambda p: (p[..., 0] - s * p[..., 1] + b, STRUCT_TOL)


def _off(lo, hi):
    """max |x_i| over the coordinates lo <= i < hi, zero exactly where they all vanish."""
    return lambda p: (abs(p[..., lo:hi]).max(axis=-1), STRUCT_TOL)


# zero at the origin, on the timelike axis, and on the spacelike axis
_sup_norm, _pb_axis, _ni_axis = _off(0, 3), _off(1, 3), _off(0, 2)


def _cone(p):
    """<p, p>, cut relative to max(1, |p|^2)."""
    return inner(p, p), STRUCT_TOL * np.maximum(1.0, (p[..., None, :] @ p[..., None])[..., 0, 0])


def _ni_diagonals(p):
    """min(|x1 - x2|, |x1 + x2|), zero on the two null half-plane pairs."""
    return np.minimum(abs(p[..., 0] - p[..., 1]), abs(p[..., 0] + p[..., 1])), STRUCT_TOL


def _ni_branch(p):
    """|x1| - |x2| with cut 0: which cylinder branch p is on."""
    return abs(p[..., 0]) - abs(p[..., 1]), 0.0


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


def _rejecting(accept):
    """Sampler of a generic point of [-3, 3)^3 that `accept`, a mask of a
    stack P[N, 3], keeps: `accepted_draws` of one point."""
    return lambda rng: accepted_draws(rng, 1, 3.0, accept)[0]


# how far a default sample sits on the allowed side of each equality
_SAMPLE_MARGIN = 0.05


def _pattern_holds(pattern, P, cut=None) -> list:
    """Which points of a stack P[N, 3] read, for every invariant of the
    pattern, a sign the pattern allows (`pattern_signs` against `cut`)."""
    rows = pattern_signs([inv for inv, _ in pattern], P, cut)
    return [all(s in signs for s, (_, signs) in zip(row, pattern)) for row in rows]


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
# facts shared by several families


# conserved invariants, as (name, function of p[3], or of P[N, 3] row by row)
_X1 = ("x1", lambda q: q[..., 0])
_X3 = ("x3", lambda q: q[..., 2])
_X1_MINUS_X2 = ("x1-x2", lambda q: q[..., 0] - q[..., 1])
_SQUARE = ("<q,q>", lambda q: inner(q, q))

# stratum rows: (name, dim, causal, orbit class, stabilizer dim, stabilizer class)
_NULL_LINE = ("null-line", 1, NULL, SINGULAR, 1, NONCOMPACT)
_DEGENERATE_PLANE = ("degenerate-plane", 2, DEGENERATE, PRINCIPAL, 0, TRIVIAL)
# rows shared by the boost families whose translations fill a null plane
_EXCEPTIONAL_PLANE = ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 1, NONCOMPACT)
_OPEN_HALF_SPACE = ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 0, TRIVIAL)


def _null(s):
    """The null translation along e1 + s e2 of a sign s, and its label."""
    return (_T_NULL_PLUS, "e1+e2") if s > 0 else (_T_NULL_MINUS, "e1-e2")


def _stratum(row, pattern, samplers=()):
    """The stratum of a row with its pattern and samplers."""
    return Stratum(row[0], pattern, *row[1:], samplers)


def _plane_strata(s, b, plane_row, off_row, off_samplers=()):
    """The plane x1 - s*x2 + b = 0 and its complement, as two strata.

    The plane stratum samples exactly on the plane; unless `off_samplers`
    are given, the complement has the default sampler.
    """
    plane = _plane(s, b)

    def sample_plane(rng):
        a, c = rng.uniform(-3.0, 3.0, 2)
        return np.array([a, s * a + b, c])

    return (_stratum(plane_row, ((plane, _ON),), (sample_plane,)),
            _stratum(off_row, ((plane, _OFF),), off_samplers))


def _family(id_, elements, proper, orbit_space, strata, family, params=None,
            conserved=(None, None), witness=(_BOOST_EL, None), **fields) -> CatalogEntry:
    """The entry of a family spanned by `elements`; `conserved` is its
    invariant's (name, function).  A nonproper family's witness is
    (generator, point or None for the origin), by default the boost, which
    fixes the origin exactly; a proper family gets none."""
    generator, point = (None, None) if proper else witness
    return CatalogEntry(
        id=id_, params=params or {}, basis=SubalgebraSpec(elements), proper=proper,
        orbit_space=orbit_space, strata=strata, family=family,
        invariant_name=conserved[0], invariant=conserved[1],
        witness_point=None if proper else np.array(point or (0.0, 0.0, 0.0)),
        witness_generator=generator, **fields)


# ---------------------------------------------------------------------------
# family builders


def _build_P_a(plane: str = "spacelike") -> CatalogEntry:
    planes = {
        "spacelike": ((_T_E2, _T_E3), RIEMANNIAN, _X1),
        "timelike": ((_T_E1, _T_E2), LORENTZIAN, _X3),
        "degenerate": ((_T_NULL_PLUS, _T_E3), DEGENERATE, _X1_MINUS_X2),
    }
    if plane not in planes:
        raise CatalogError(f"P-a plane must be one of {sorted(planes)}, got {plane!r}")
    els, causal, conserved = planes[plane]
    return _family(
        "P-a", els, True, REAL_LINE,
        (Stratum("translated-plane", (), 2, causal, PRINCIPAL, 0, TRIVIAL),),
        "pure translations along a fixed 2-plane", params={"plane": plane}, conserved=conserved,
        param_domain="plane in {spacelike, timelike, degenerate}")


def _build_P_b() -> CatalogEntry:
    def sample_axis(rng):
        return np.array([_u(rng), 0.0, 0.0])

    strata = (
        Stratum("timelike-axis", ((_pb_axis, _ON),), 1, TIMELIKE, SINGULAR, 1,
                COMPACT, (sample_axis,)),
        Stratum("cylinder", ((_pb_axis, _OFF),), 2, LORENTZIAN, PRINCIPAL, 0,
                TRIVIAL, (_rejecting(lambda P: _pb_axis(P)[0] >= 0.1),)),
    )
    return _family(
        "P-b", (_ROTATION_EL, _T_E1), True, HALF_LINE, strata,
        "rotations about a timelike axis times translations along it",
        conserved=("x2^2+x3^2", lambda q: q[..., 1] ** 2 + q[..., 2] ** 2))


def _build_P_c() -> CatalogEntry:
    return _family(
        "P-c", (_ROTATION_EL, _T_E2, _T_E3), True, REAL_LINE,
        (Stratum("spacelike-plane", (), 2, RIEMANNIAN, PRINCIPAL, 1, COMPACT),),
        "Euclidean motions of the spacelike planes x1 = const", conserved=_X1)


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
    sample_cyl = _rejecting(lambda P: (abs(P[:, 0] - s * P[:, 1]) > 0.05) & (abs(P[:, 2]) < 2.0))

    def invariant(q, _s=s, _b=beta):
        # inf (nan on the plane) once s*x3/beta passes ~709
        with np.errstate(over="ignore", invalid="ignore"):
            return (q[..., 0] - _s * q[..., 1]) * np.exp(_s * q[..., 2] / _b)

    strata = _plane_strata(
        s, 0.0, _DEGENERATE_PLANE,
        ("generalized-cylinder", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL), (sample_cyl,))
    return _family(
        "P-d", (AlgebraElement(BOOST, beta * E3), _null(s)[0]), True, REAL_LINE, strata,
        "boosts coupled to spacelike-axis translations, with a null translation",
        params={"sign": s, "beta": beta}, conserved=("(x1-s*x2)*exp(s*x3/beta)", invariant),
        param_domain="sign in {+1, -1}; beta != 0")


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
    return _family(
        "N-i", (_BOOST_EL, _T_E3), False, OTHER_NON_HAUSDORFF, strata,
        "boosts times translations along the boost axis",
        conserved=("x1^2-x2^2", lambda q: q[..., 0] ** 2 - q[..., 1] ** 2))


def _build_N_ii() -> CatalogEntry:
    return _family(
        "N-ii", (_BOOST_EL, _T_E1, _T_E2), False, REAL_LINE,
        (Stratum("lorentzian-plane", (), 2, LORENTZIAN, PRINCIPAL, 1, NONCOMPACT),),
        "full motion group of the timelike planes x3 = const", conserved=_X3)


def _null_plane_entry(id_, s):
    """Shared construction for the boost-with-null-plane families."""
    nu, label = _null(s)
    return _family(
        id_, (_BOOST_EL, nu, _T_E3), False, THREE_POINTS,
        _plane_strata(s, 0.0, _EXCEPTIONAL_PLANE, _OPEN_HALF_SPACE),
        f"boosts with translations filling a degenerate plane (null direction {label})")


def _null_line_entry(id_, s):
    """Shared construction for the boost-with-null-line families."""
    nu, label = _null(s)
    strata = _plane_strata(s, 0.0, _NULL_LINE,
                           ("lorentzian-half-plane", 2, LORENTZIAN, PRINCIPAL, 0, TRIVIAL))
    return _family(id_, (_BOOST_EL, nu), False, OTHER_NON_HAUSDORFF, strata,
                   f"boosts with a single null translation direction ({label})",
                   conserved=_X3)


def _build_N_vii(beta: float = 1.0) -> CatalogEntry:
    beta = _finite_param("N-vii", "beta", beta)
    xi = AlgebraElement(NULL_ROTATION, beta * E3)
    # the singular line x2 = x1 + beta, which holds the witness point
    strata = _plane_strata(1.0, beta, _NULL_LINE, _DEGENERATE_PLANE)
    return _family(
        "N-vii", (xi, _T_NULL_PLUS), False, OTHER_NON_HAUSDORFF, strata,
        "null rotations with a null translation; degenerate-plane orbits "
        "with a shifted line of fixed directions",
        params={"beta": beta}, conserved=_X1_MINUS_X2,
        witness=(xi, (0.0, beta, 0.0)) if beta != 0.0 else (_NULL_ROTATION_EL, None),
        param_domain="beta real (all values conjugate to beta = 0)")


def _build_N_viii() -> CatalogEntry:
    return _family(
        "N-viii", (_NULL_ROTATION_EL, _T_NULL_PLUS, _T_E3), False, REAL_LINE,
        (Stratum("degenerate-plane", (), 2, DEGENERATE, PRINCIPAL, 1, NONCOMPACT),),
        "null rotations with translations foliating by degenerate planes",
        conserved=_X1_MINUS_X2, witness=(_NULL_ROTATION_EL, None))


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
        _stratum(_NULL_LINE, ((_sup_norm, _OFF), (line, _ON)), (sample_line_z0, sample_line_z)),
        Stratum("timelike-region", (*off_line, (_cone, _NEG)), 2, RIEMANNIAN,
                PRINCIPAL, 0, TRIVIAL),
        Stratum("light-cone-sector", (*off_line, (_cone, _ON)), 2, DEGENERATE,
                PRINCIPAL, 0, TRIVIAL, (_cone_sampler(1.0, True), _cone_sampler(-1.0, True))),
        Stratum("spacelike-region", (*off_line, (_cone, _POS)), 2, LORENTZIAN,
                PRINCIPAL, 0, TRIVIAL),
    )
    return _family(
        "N-ix", (_BOOST_EL, _NULL_ROTATION_EL), False, OTHER_NON_HAUSDORFF, strata,
        "the solvable boost/null-rotation group acting linearly", conserved=_SQUARE)


def _build_N_x(alpha: float = 1.0, beta: float = 1.0) -> CatalogEntry:
    alpha = _finite_param("N-x", "alpha", alpha)
    beta = _finite_param("N-x", "beta", beta)
    if alpha == 0.0:
        raise CatalogError(
            "N-x requires alpha != 0 (a trivial kernel direction is the N-ix family)")
    if beta != 0.0:
        plane_row, orbit_space, generator = _EXCEPTIONAL_PLANE, THREE_POINTS, _NULL_ROTATION_EL
    else:
        plane_row = ("null-line", 1, NULL, SINGULAR, 2, NONCOMPACT)
        orbit_space, generator = OTHER_NON_HAUSDORFF, _BOOST_EL
    return _family(
        "N-x", (AlgebraElement(BOOST, beta * E3), _NULL_ROTATION_EL,
                AlgebraElement(0 * BOOST, alpha * NULL_PLUS)),
        False, orbit_space, _plane_strata(1.0, 0.0, plane_row, _OPEN_HALF_SPACE),
        "solvable linear group extended by one null translation direction; "
        "the boost generator carries a spacelike translation of size beta",
        params={"alpha": alpha, "beta": beta}, witness=(generator, None),
        param_domain="alpha != 0 (kernel scale, normalized away); beta real")


def _build_N_xi() -> CatalogEntry:
    strata = _plane_strata(1.0, 0.0,
                           ("degenerate-plane", 2, DEGENERATE, EXCEPTIONAL, 2, NONCOMPACT),
                           ("open-half-space", 3, LORENTZIAN, OPEN_ORBIT, 1, NONCOMPACT))
    return _family(
        "N-xi", (_BOOST_EL, _NULL_ROTATION_EL, _T_NULL_PLUS, _T_E3), False, THREE_POINTS,
        strata, "solvable linear group with a full degenerate plane of translations")


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
    return _family(
        "N-xii", (_BOOST_EL, _ROTATION_EL, _NULL_ROTATION_EL), False, OTHER_NON_HAUSDORFF,
        strata, "the full linear isometry group (identity component)", conserved=_SQUARE)


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


_CACHE_SIZE = 256  # the most entries `build` keeps; a verify suite builds about 50


@lru_cache(maxsize=_CACHE_SIZE)
def _shared(id_, key) -> CatalogEntry:
    """The entry of `key`, sorted (name, type, repr, value) terms."""
    return _BUILDERS[id_](**{name: value for name, _, _, value in key})


def build(id_: str, **params) -> CatalogEntry:
    """The shared catalog entry of a family, after validating its parameters."""
    if id_ not in _BUILDERS:
        raise CatalogError(f"unknown family id {id_!r}; valid ids: {', '.join(CATALOG_IDS)}")
    try:
        if all(type(v) in (str, int, float) for v in params.values()):
            return _shared(id_, tuple(sorted((k, type(v), repr(v), v) for k, v in params.items())))
        return _BUILDERS[id_](**params)
    except TypeError as exc:
        raise CatalogError(f"bad parameters for {id_}: {exc}") from exc
