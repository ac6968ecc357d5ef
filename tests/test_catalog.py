from itertools import chain, count
from types import SimpleNamespace

import numpy as np
import pytest

from mink1.algebra import is_subalgebra, kernel_of_l, linear_part
from mink1.catalog import (
    CATALOG_IDS,
    NONPROPER_IDS,
    PROPER_IDS,
    CatalogError,
    build,
    expected_orbit,
    expected_orbits,
    list_catalog,
)
from mink1.minkowski import (
    BOOST,
    E1,
    E2,
    E3,
    ELLIPTIC,
    NULL_PLUS,
    NULL_ROTATION,
    ROTATION,
    STRUCT_TOL,
    ZERO,
    generator_class,
    sign_of,
)
from mink1.orbits import orbit_dimension, stabilizer_algebra
from mink1.sampling import rng_from_seed
from mink1.verify import _generic_points, _stratum_points, entry_variants


def test_counts():
    rows = list_catalog()
    assert len(rows) == 16
    assert sum(r["proper"] for r in rows) == 4
    assert len(PROPER_IDS) == 4 and len(NONPROPER_IDS) == 12


def test_orbit_space_descriptors():
    assert build("P-c").orbit_space == "real-line"
    assert build("P-b").orbit_space == "half-line-closed"
    assert build("N-iii").orbit_space == "three-points-non-Hausdorff"
    # proper entries never carry a non-Hausdorff descriptor
    for id_ in PROPER_IDS:
        assert build(id_).orbit_space in ("real-line", "half-line-closed")


def test_documented_bases():
    pb = build("P-b").basis.basis
    assert np.allclose(pb[0].X, ROTATION) and np.allclose(pb[1].v, E1)
    pc = build("P-c").basis.basis
    assert np.allclose(pc[0].X, ROTATION)
    assert np.allclose(pc[1].v, E2) and np.allclose(pc[2].v, E3)
    pd = build("P-d", sign=1.0, beta=2.5).basis.basis
    assert np.allclose(pd[0].X, BOOST) and np.allclose(pd[0].v, 2.5 * E3)
    assert np.allclose(pd[1].v, NULL_PLUS)
    nviii = build("N-viii").basis.basis
    assert np.allclose(nviii[0].X, NULL_ROTATION)
    assert np.allclose(nviii[1].v, NULL_PLUS) and np.allclose(nviii[2].v, E3)
    nix = build("N-ix").basis.basis
    assert np.allclose(nix[0].X, BOOST) and np.allclose(nix[1].X, NULL_ROTATION)
    nii = build("N-ii").basis.basis
    assert np.allclose(nii[0].X, BOOST)
    nxii = build("N-xii").basis.basis
    assert len(nxii) == 3 and linear_part(build("N-xii").basis)[0] == 3


def test_parameter_domains():
    with pytest.raises(CatalogError):
        build("P-d", beta=0.0)
    with pytest.raises(CatalogError):
        build("P-a", plane="bogus")
    with pytest.raises(CatalogError):
        build("N-x", alpha=0.0)
    with pytest.raises(CatalogError):
        build("unknown-id")
    with pytest.raises(CatalogError):
        build("P-b", beta=1.0)  # P-b takes no parameters
    for sign in (2.0, 0.5, 0.0, -3.0):
        with pytest.raises(CatalogError):
            build("P-d", sign=sign)
    assert build("P-d", sign=-1.0).params["sign"] == -1.0
    for id_, name in (("P-d", "beta"), ("N-vii", "beta"), ("N-x", "alpha"), ("N-x", "beta")):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(CatalogError, match=f"{id_} parameter {name} must be finite"):
                build(id_, **{name: bad})
    # any nonzero finite size is in the domain: independence is decided on
    # row-scaled coordinates, so a huge parameter beside unit entries holds
    for id_, name in (("P-d", "beta"), ("N-vii", "beta"), ("N-x", "alpha")):
        for big in (1e12, -1e12, 1e300):
            entry = build(id_, **{name: big})
            assert entry.params[name] == big


def test_every_basis_is_subalgebra_with_expected_dims():
    expected_dims = {
        "P-a": (2, 0), "P-b": (2, 1), "P-c": (3, 1), "P-d": (2, 1),
        "N-i": (2, 1), "N-ii": (3, 1), "N-iii": (3, 1), "N-iv": (3, 1),
        "N-v": (2, 1), "N-vi": (2, 1), "N-vii": (2, 1), "N-viii": (3, 1),
        "N-ix": (2, 2), "N-x": (3, 2), "N-xi": (4, 2), "N-xii": (3, 3),
    }
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            assert is_subalgebra(entry.basis), (id_, entry.params)
            dim_g, dim_l = expected_dims[id_]
            assert entry.basis.dim == dim_g
            assert linear_part(entry.basis)[0] == dim_l
            assert kernel_of_l(entry.basis)[0] == dim_g - dim_l


def test_cohomogeneity_one_dimensions():
    rng = rng_from_seed(11)
    for id_ in CATALOG_IDS:
        entry = build(id_)
        pts = _generic_points(entry, rng, 70) + _stratum_points(entry, rng, 2)
        dims = [orbit_dimension(entry.basis, p) for p in pts[:100]]
        assert max(dims) <= 3, id_
        assert 2 in dims, id_


def test_proper_entries_have_elliptic_or_zero_stabilizers():
    rng = rng_from_seed(12)
    for id_ in PROPER_IDS:
        entry = build(id_)
        pts = _generic_points(entry, rng, 30) + _stratum_points(entry, rng, 5)
        for p in pts:
            stab = stabilizer_algebra(entry.basis, p)
            for el in stab.basis:
                assert generator_class(el.X) in (ELLIPTIC, ZERO), (id_, p)


def test_strata_cover_and_are_disjoint():
    rng = rng_from_seed(13)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            pts = [rng.uniform(-3, 3, 3) for _ in range(50)]
            pts += _stratum_points(entry, rng, 3)
            for p in pts:
                hits = [s.name for s in entry.strata if s.predicate(p)]
                assert len(hits) == 1, (id_, entry.params, p, hits)


def test_samplers_land_in_their_stratum():
    rng = rng_from_seed(17)
    entries = [e for id_ in CATALOG_IDS for e in entry_variants(id_)]
    entries += [build("N-vii", beta=b) for b in (-2.0, 0.0, 1.0)]
    count = 0
    for entry in entries:
        for stratum in entry.strata:
            for sampler in stratum.samplers:
                for _ in range(20):
                    p = sampler(rng)
                    hits = [s.name for s in entry.strata if s.predicate(p)]
                    assert hits == [stratum.name], (entry.id, entry.params, p, hits)
                    count += 1
    assert count > 1000


def test_expected_orbit_examples():
    ni = build("N-i")
    s = expected_orbit(ni, [0.0, 0.0, 5.0])
    assert (s.dim, s.causal, s.orbit_class) == (1, "spacelike", "singular")
    nxii = build("N-xii")
    s = expected_orbit(nxii, [1.0, 1.0, 0.0])
    assert (s.dim, s.causal, s.orbit_class) == (2, "degenerate", "exceptional")
    pc = build("P-c")
    s = expected_orbit(pc, [0.3, -1.2, 2.0])
    assert (s.dim, s.causal, s.orbit_class) == (2, "riemannian", "principal")
    # the sign twins mirror their strata across x2 -> -x2
    niii = build("N-iii")
    niv = build("N-iv")
    assert expected_orbit(niii, [1.0, 1.0, 0.0]).orbit_class == "exceptional"
    assert expected_orbit(niv, [1.0, 1.0, 0.0]).orbit_class == "open-orbit"
    assert expected_orbit(niv, [1.0, -1.0, 0.0]).orbit_class == "exceptional"


def test_expected_orbit_rejects_nonfinite():
    with pytest.raises(ValueError):
        expected_orbit(build("N-i"), [np.nan, 0.0, 0.0])


def test_nvii_shifted_singular_stratum():
    # the line of 1-dimensional orbits sits at x2 = x1 + beta
    entry = build("N-vii", beta=2.0)
    assert expected_orbit(entry, [1.0, 3.0, 0.7]).dim == 1
    assert expected_orbit(entry, [1.0, 1.0, 0.7]).dim == 2
    assert orbit_dimension(entry.basis, [1.0, 3.0, 0.7]) == 1
    assert orbit_dimension(entry.basis, [1.0, 1.0, 0.7]) == 2


def test_nx_beta_switches_geometry():
    plane = build("N-x", alpha=1.0, beta=1.0)
    assert expected_orbit(plane, [1.0, 1.0, 0.0]).dim == 2
    assert orbit_dimension(plane.basis, [1.0, 1.0, 0.0]) == 2
    lines = build("N-x", alpha=1.0, beta=0.0)
    assert expected_orbit(lines, [1.0, 1.0, 0.0]).dim == 1
    assert orbit_dimension(lines.basis, [1.0, 1.0, 0.0]) == 1
    assert plane.orbit_space == "three-points-non-Hausdorff"
    assert lines.orbit_space == "other-non-Hausdorff"


def test_predicates_at_tolerance_edges():
    """Points 0.5x the cut off a defining equality read as on it, 2x as off."""
    tol = STRUCT_TOL
    cone = np.array([5.0, 3.0, 4.0])  # <p,p> = 0 and |p|^2 = 50
    up = E3 / 8.0  # moves <p,p> by one unit per unit step from `cone`
    # id -> (point on an equality, unit direction, cut, stratum within
    #        0.5 cut, stratum at 2 cut)
    edges = {
        "P-b": [([1.5, 0.0, 0.0], E2, tol, "timelike-axis", "cylinder"),
                ([1.5, 0.0, 0.0], -E3, tol, "timelike-axis", "cylinder")],
        "N-i": [([0.0, 0.0, 0.7], E1, tol, "spacelike-axis", "cylinder-branch-spacelike"),
                ([0.0, 0.0, 0.7], -E2, tol, "spacelike-axis", "cylinder-branch-lorentzian"),
                ([1.5, 1.5, 0.7], E1, tol, "degenerate-half-plane",
                 "cylinder-branch-spacelike"),
                ([1.5, -1.5, 0.7], -E2, tol, "degenerate-half-plane",
                 "cylinder-branch-lorentzian")],
        "N-ix": [([0.0, 0.0, 0.0], E1, tol, "origin", "light-cone-sector"),
                 ([0.0, 0.0, 0.0], E3, tol, "origin", "null-line"),
                 ([1.5, 1.5, 0.7], E1, tol, "null-line", "spacelike-region"),
                 (cone, up, 50 * tol, "light-cone-sector", "spacelike-region"),
                 (cone, -up, 50 * tol, "light-cone-sector", "timelike-region")],
        "N-xii": [([0.0, 0.0, 0.0], -E1, tol, "origin", "light-cone"),
                  (cone, up, 50 * tol, "light-cone", "pseudo-sphere"),
                  (cone, -up, 50 * tol, "light-cone", "pseudo-hyperbolic-sheet")],
    }
    rng = rng_from_seed(23)
    checked = set()
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            cases = edges.get(id_)
            if cases is None and len(entry.strata) == 2:
                # a plane x1 - s*x2 + b = 0 and its complement: e1 moves the
                # equality's value by one unit per unit step
                on, off = entry.strata
                cases = [(on.samplers[0](rng), d, tol, on.name, off.name)
                         for _ in range(5) for d in (E1, -E1)]
            if cases is None:  # a single stratum covers R^3
                assert len(entry.strata) == 1
                cases = [(np.zeros(3), E1, tol, entry.strata[0].name, entry.strata[0].name)]
            for base, d, cut, inside, outside in cases:
                base = np.asarray(base, dtype=float)
                assert expected_orbit(entry, base).name == inside, (id_, base)
                assert expected_orbit(entry, base + 0.5 * cut * d).name == inside, (id_, base, d)
                assert expected_orbit(entry, base + 2.0 * cut * d).name == outside, (id_, base, d)
                checked.add(id_)
    assert checked == set(CATALOG_IDS)


def test_patterns_drive_samples_and_margins():
    """Every sample of an open stratum clears each equality of its pattern by
    0.05 on the allowed side; every generic point of verify clears every
    equality of its entry's patterns by more than 1e-4, even when the draws
    start with the samples of the measure-zero strata."""
    rng = rng_from_seed(29)
    open_strata = 0
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            on_equalities = []
            for stratum in entry.strata:
                if any(signs == {0} for _, signs in stratum.pattern):
                    on_equalities += [sampler(rng) for sampler in stratum.samplers]
                    continue
                open_strata += 1
                for sampler in stratum.samplers:
                    for _ in range(200):
                        p = sampler(rng)
                        for invariant, signs in stratum.pattern:
                            assert sign_of(invariant(p)[0], 0.05) in signs, (
                                id_, entry.params, stratum.name, p)
            draws = chain(on_equalities, (rng.uniform(-3.0, 3.0, 3) for _ in count()))
            for p in _generic_points(entry, SimpleNamespace(uniform=lambda *_: next(draws)), 50):
                for stratum in entry.strata:
                    for invariant, _ in stratum.pattern:
                        assert abs(invariant(p)[0]) > 1e-4, (id_, entry.params, p)
    assert open_strata >= 20


def _pattern_invariants(entry):
    return tuple(dict.fromkeys(inv for s in entry.strata for inv, _ in s.pattern))


def _near_equalities(entry, points):
    """Points stepped off each of `points` along e1, e2 and e3 so that each
    pattern invariant moves by about 0.5 and 2 of its cuts, either way."""
    out = []
    for q in points:
        for invariant in _pattern_invariants(entry):
            value, cut = invariant(q)
            for d in (E1, E2, E3):
                slope = (invariant(q + 1e-3 * d)[0] - value) / 1e-3
                if slope:
                    out += [q + f * cut / slope * d for f in (0.5, 2.0, -0.5, -2.0)]
    return out


def test_expected_orbits_give_the_one_stratum_whose_predicate_holds():
    """On a stack of generic points, every sampler's points and points 0.5 and
    2 cuts off each equality, `expected_orbits` gives each point the one
    stratum whose predicate holds, and `expected_orbit` gives it alone."""
    rng = rng_from_seed(31)
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            sampled = [np.asarray(sampler(rng), float) for s in entry.strata
                       for sampler in s.samplers for _ in range(3)]
            P = np.array([rng.uniform(-3.0, 3.0, 3) for _ in range(40)] + sampled
                         + _near_equalities(entry, sampled))
            got = expected_orbits(entry, P)
            assert len(got) == len(P)
            for p, stratum in zip(P, got):
                assert [s for s in entry.strata if s.predicate(p)] == [stratum], (id_, p)
            assert [expected_orbit(entry, p) for p in P[::7]] == got[::7]


def test_expected_orbits_reject_a_nonfinite_row_and_map_empty_to_empty():
    P = rng_from_seed(5).uniform(-3.0, 3.0, (6, 3))
    for bad in (np.nan, np.inf, -np.inf):
        Q = P.copy()
        Q[4, 1] = bad
        for id_ in ("N-ix", "P-c"):
            with pytest.raises(ValueError, match="finite"):
                expected_orbits(build(id_), Q)
    for id_ in CATALOG_IDS:
        assert expected_orbits(build(id_), np.empty((0, 3))) == []


def test_invariants_on_a_stack_equal_each_point_alone():
    """Every pattern invariant (value and cut) and every conserved invariant
    maps a stack to its rows' values bit for bit, P-d's overflow to inf and
    nan included."""
    rng = rng_from_seed(37)
    entries = [e for id_ in CATALOG_IDS for e in entry_variants(id_)]
    entries += [build("P-d", sign=s, beta=b) for s in (1.0, -1.0) for b in (0.01, -0.5)]
    extreme = [[1.0, 2.0, 800.0], [1.0, 1.0, 800.0], [1.0, -1.0, -800.0], [-3.0, 2.0, 1e6],
               [0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [1e300, -1e300, 1e-300]]
    for entry in entries:
        sampled = [np.asarray(sampler(rng), float) for s in entry.strata for sampler in s.samplers]
        P = np.array([rng.uniform(-3.0, 3.0, 3) for _ in range(30)] + sampled + extreme)
        with np.errstate(over="ignore", invalid="ignore"):
            pairs = [(lambda q, i=i: i(q)[0], lambda q, i=i: i(q)[1])
                     for i in _pattern_invariants(entry)]
            funcs = [f for pair in pairs for f in pair] + [entry.invariant] * bool(entry.invariant)
            for f in funcs:
                stacked = np.broadcast_to(f(P), len(P))
                alone = np.array([f(p) for p in P])
                assert stacked.tobytes() == alone.tobytes(), (entry.id, entry.params)
    pd = build("P-d", beta=0.01)
    with np.errstate(over="ignore", invalid="ignore"):
        values = pd.invariant(np.array([[1.0, 2.0, 800.0], [1.0, 1.0, 800.0]]))
    assert np.isinf(values[0]) and np.isnan(values[1])


def test_generic_points_draw_the_doubles_of_one_point_at_a_time():
    """`_generic_points` draws each round's missing points as one stack: the
    same points, and the same generator state after, as a one-point loop,
    also for a pattern that rejects about half the draws."""
    half = SimpleNamespace(strata=(SimpleNamespace(pattern=(
        (lambda p: (np.where(p[..., 0] > 0.0, p[..., 1], 0.0), 0.0), frozenset({-1, 1})),)),))
    entries = [e for id_ in CATALOG_IDS for e in entry_variants(id_)] + [half]
    for entry in entries:
        invariants = _pattern_invariants(entry)
        for seed in (3, 2718):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _generic_points(entry, rng, 40)
            ref = []
            while len(ref) < 40:
                p = ref_rng.uniform(-3.0, 3.0, 3)
                if all(abs(inv(p)[0]) > 1e-4 for inv in invariants):
                    ref.append(p)
            assert np.array_equal(got, ref)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
