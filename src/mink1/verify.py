"""The acceptance checks, runnable from the CLI and from the test suite.

Each check pins its tolerances in place and returns a CheckResult; the
runner prints one pass/fail line per check.  All randomness is driven
by a single seed so reports are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from . import properness
from .classify import (
    REASON_NOT_COHOMOGENEITY_ONE,
    REASON_NOT_SUBALGEBRA,
    Classification,
    Rejection,
    classify,
    classify_stack,
)
from .algebra import (
    AlgebraElement,
    SubalgebraSpec,
    _adjoint_rows,
    _brackets,
    adjoint,
    closure_residual,
    span_residual,
)
from .catalog import CATALOG_IDS, NONPROPER_IDS, PROPER_IDS, build
from .minkowski import (
    BOOST,
    DEGENERATE,
    E3,
    NULL_MINUS,
    NULL_PLUS,
    NULL_ROTATION,
    ROTATION,
    Motion,
    Motions,
    _closed_exp_pair,
    _series_exp_pair,
    exp_element,
    inner,
    motion_distance,
)
from .orbits import (
    analyze_points,
    eq1_norm,
    finite_tangent,
    orbit_normal,
    orbit_reports,
    sample_orbit,
    shape_operator,
    stabilizer_algebra,
)
from .properness import make_witness
from .sampling import random_algebra_elements, random_causal_point, random_motions, rng_from_seed


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    label: str
    passed: bool
    residual: float
    detail: str


PARAM_SWEEP = (-2.0, -1.0, 0.5, 1.0, 3.0)

_ENTRY_VARIANTS = {
    "P-a": ({"plane": "spacelike"}, {"plane": "timelike"}, {"plane": "degenerate"}),
    "P-d": ({"sign": 1.0, "beta": 1.0}, {"sign": -1.0, "beta": 1.5}),
    "N-vii": ({"beta": 1.0}, {"beta": 0.0}, {"beta": -2.0}),
    "N-x": ({"alpha": 1.0, "beta": 1.0}, {"alpha": 1.0, "beta": 0.0},
            {"alpha": -2.0, "beta": 0.5}),
}


def entry_variants(id_):
    for params in _ENTRY_VARIANTS.get(id_, ({},)):
        yield build(id_, **params)


def _accepted_draws(rng, n, bound, accept):
    """n points of [-bound, bound)^3 that `accept` (a mask of a stack P[N, 3])
    keeps, drawn in rounds of the missing ones: the doubles, and the
    generator state left behind, of drawing and testing one point at a time."""
    pts = []
    while len(pts) < n:
        P = np.reshape(rng.uniform(-bound, bound, (n - len(pts), 3)), (-1, 3))
        pts += list(P[accept(P)])
    return pts


def _generic_points(entry, rng, n):
    """n random points of [-3, 3]^3 more than 1e-4 from every equality of
    the entry's stratum patterns: each distinct invariant they name has
    |value| > 1e-4."""
    invariants = tuple(dict.fromkeys(inv for s in entry.strata for inv, _ in s.pattern))
    return _accepted_draws(rng, n, 3.0, lambda P: np.all(
        [np.ones(len(P), bool)] + [abs(inv(P)[0]) > 1e-4 for inv in invariants], axis=0))


def _stratum_points(entry, rng, per_sampler=5):
    pts = []
    for s in entry.strata:
        for sampler in s.samplers:
            for _ in range(per_sampler):
                pts.append(sampler(rng))
    return pts


# ---------------------------------------------------------------------------


def check_catalog_integrity(seed: int = 42) -> CheckResult:
    """All 16 families construct; bases bracket-closed; orbit dimensions
    stay <= 3 and hit 2 somewhere among 100 seeded points."""
    rng = rng_from_seed(seed)
    worst = 0.0
    problems = []
    ids = list(CATALOG_IDS)
    if len(ids) != 16 or len(PROPER_IDS) != 4 or len(NONPROPER_IDS) != 12:
        problems.append("catalog is not 4 proper + 12 nonproper families")
    for id_ in ids:
        for entry in entry_variants(id_):
            res = closure_residual(entry.basis)
            worst = max(worst, res)
            if res >= 1e-9:
                problems.append(f"{id_}{entry.params}: bracket residual {res:.2e}")
            pts = _generic_points(entry, rng, 70) + _stratum_points(entry, rng, 2)
            pts = pts[:100]
            dims = analyze_points(entry.basis, pts).orbit_dim
            if max(dims) > 3:
                problems.append(f"{id_}{entry.params}: orbit dimension exceeds 3")
            # codimension one at the family representative; the beta = 0
            # member of N-x genuinely has orbit dimensions {1, 3} only
            if entry.params == build(id_).params and 2 not in dims:
                problems.append(f"{id_}{entry.params}: no codimension-one orbit found")
    return CheckResult(
        "C1", "catalog-integrity: 16 families, bracket closure, cohomogeneity one",
        not problems, worst, "; ".join(problems) or "ok",
    )


def check_properness_dichotomy(seed: int = 42) -> CheckResult:
    """4 proper / 12 nonproper; witnesses validate across the parameter
    sweep; proper entries never show a noncompact stabilizer."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    if [e for e in CATALOG_IDS if build(e).proper] != list(PROPER_IDS):
        problems.append("proper verdicts do not match the classification")
    # nonproper side: witnesses, including parameter sweeps
    sweeps = {id_: [{}] for id_ in NONPROPER_IDS}
    sweeps["N-vii"] = [{"beta": b} for b in PARAM_SWEEP] + [{"beta": 0.0}]
    sweeps["N-x"] = (
        [{"alpha": a, "beta": 1.0} for a in PARAM_SWEEP]
        + [{"alpha": 1.0, "beta": b} for b in PARAM_SWEEP]
        + [{"alpha": 1.0, "beta": 0.0}]
    )
    for id_ in NONPROPER_IDS:
        for params in sweeps[id_]:
            entry = build(id_, **params)
            try:
                w = make_witness(entry)
            except properness.WitnessError as exc:
                problems.append(str(exc))
                continue
            worst = max(worst, w.residual)
            if w.certificate[-1][1] < 100.0:
                problems.append(f"{id_}{params}: growth norm below 100 at n=20")
    # proper side: no noncompact stabilizer at 200 points incl. strata
    proper_variants = (
        [build("P-a", plane=p) for p in ("spacelike", "timelike", "degenerate")]
        + [build("P-b"), build("P-c")]
        + [build("P-d", sign=s, beta=b) for s in (1.0, -1.0) for b in (-2.0, -1.0, 0.5, 1.0, 3.0)]
    )
    for entry in proper_variants:
        pts = (_generic_points(entry, rng, 150) + _stratum_points(entry, rng, 7))[:200]
        classes = analyze_points(entry.basis, pts).stabilizer_class
        if "noncompact" in classes:
            p = pts[classes.index("noncompact")]
            problems.append(f"{entry.id}{entry.params}: noncompact stabilizer at {p}")
    return CheckResult(
        "C2", "properness-dichotomy: verdicts, growth witnesses, compact stabilizers",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


def check_recovery(seed: int = 42) -> CheckResult:
    """Parameter recovery along the proper boost-screw family."""
    worst = 0.0
    problems = []
    for sign in (1.0, -1.0):
        for beta in (0.5, 1.0, 2.0):
            entry = build("P-d", sign=sign, beta=beta)
            rep = properness.recovery_test(entry, trials=100, seed=seed)
            worst = max(worst, rep["max_error"])
            if not rep["passed"]:
                problems.append(f"sign={sign}, beta={beta}: error {rep['max_error']:.2e}")
    return CheckResult(
        "C3", "screw-recovery: group parameters recovered from point pairs",
        not problems, worst, "; ".join(problems) or "ok",
    )


def check_shape_operator(seed: int = 42) -> CheckResult:
    """Double-zero, rank-one shape operator off the degenerate plane;
    null normal direction e1 +- e2 on it.  `shape_operator` is exact
    (S(X p + v) = -X n for each Killing field), so the eigenvalues must
    vanish to roundoff, 1e-12."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    for sign in (1.0, -1.0):
        nu = NULL_PLUS if sign > 0 else NULL_MINUS
        nu_hat = nu / np.linalg.norm(nu)
        for beta in (0.5, 1.0, 2.0):
            entry = build("P-d", sign=sign, beta=beta)
            # 20 points 0.3 off the degenerate plane, then 5 on it
            P = np.array(_accepted_draws(rng, 20, 2.0,
                                         lambda Q: abs(Q[:, 0] - sign * Q[:, 1]) >= 0.3))
            a, c = rng.uniform(-2.0, 2.0, (5, 2)).T
            on_plane = np.stack([a, sign * a, c], -1)
            S, diags = shape_operator(entry, P)
            lams, svs = np.abs(np.linalg.eigvals(S)), np.linalg.svd(S, compute_uv=False)
            for p, lam, sv, diag in zip(P, lams, svs, diags):
                worst = max(worst, float(np.max(lam)))
                if np.max(lam) >= 1e-12:
                    problems.append(f"{entry.params} at {p}: eigenvalue {np.max(lam):.2e}")
                if sv[0] <= 1e-3:
                    problems.append(f"{entry.params} at {p}: shape operator nearly zero")
                if diag != "non-diagonalizable":
                    problems.append(f"{entry.params} at {p}: diagnosed {diag}")
            # degenerate stratum: orbit degenerate with null normal nu
            causal = analyze_points(entry.basis, on_plane).causal
            for char, n in zip(causal, orbit_normal(entry.basis, on_plane)):
                if char != DEGENERATE:
                    problems.append(f"{entry.params}: stratum point not degenerate")
                err = float(np.max(np.abs(n - nu_hat)))
                worst = max(worst, err)
                if err > 1e-8:
                    problems.append(f"{entry.params}: normal direction off by {err:.2e}")
    return CheckResult(
        "C4", "shape-operator: nilpotent second fundamental form off the degenerate plane",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


def check_orbit_inventories(seed: int = 42) -> CheckResult:
    """Every entry reproduces its expected (dimension, causal character,
    class) table; conserved invariants hold along sampled orbits; the
    degenerate-plane family's stabilizers are translation conjugates of
    the null rotation."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    for id_ in CATALOG_IDS:
        for entry in entry_variants(id_):
            pts = _generic_points(entry, rng, 100) + _stratum_points(entry, rng, 5)
            for p, rep in zip(pts, orbit_reports(entry, pts, with_evidence=False)):
                if not rep.matched_expectation:
                    problems.append(
                        f"{id_}{entry.params} at {np.round(p, 3)}: got "
                        f"(dim {rep.orbit_dim}, {rep.causal}, stab {rep.stabilizer_dim} "
                        f"{rep.stabilizer_class}), expected (dim {rep.expected.dim}, "
                        f"{rep.expected.causal}, stab {rep.expected.stabilizer_dim} "
                        f"{rep.expected.stabilizer_class})")
                    break
            if entry.invariant is None:
                continue
            tol = 1e-12 if id_ == "P-c" else 1e-8
            axes = [np.linspace(-1.2, 1.2, 3)] * entry.basis.dim
            grid = np.stack(np.meshgrid(*axes), -1).reshape(-1, entry.basis.dim)
            P = np.array((_generic_points(entry, rng, 2) + _stratum_points(entry, rng, 1))[:6])
            refs = entry.invariant(P)
            devs = abs(entry.invariant(sample_orbit(entry, P, grid)) - refs[:, None]).max(axis=1)
            for ref, dev in zip(refs.tolist(), devs.tolist()):
                scale = max(1.0, abs(ref))
                worst = max(worst, dev / scale)
                if dev > tol * scale:
                    problems.append(f"{id_}{entry.params}: invariant drifts by {dev:.2e}")
                    break
    # stabilizers of the degenerate-plane foliation family
    entry = build("N-viii")
    for _ in range(20):
        p = rng.uniform(-3.0, 3.0, 3)
        stab = stabilizer_algebra(entry.basis, p)
        if stab.dim != 1:
            problems.append(f"N-viii stabilizer dimension {stab.dim} at {p}")
            continue
        g = Motion(np.eye(3), np.array([0.0, p[1] - p[0], p[2]]))
        expected = adjoint(g, AlgebraElement(NULL_ROTATION, np.zeros(3)))
        gen = stab.basis[0] * (1.0 / np.linalg.norm(stab.coords_matrix[0]))
        res = span_residual(SubalgebraSpec((expected,)), gen)
        worst = max(worst, res)
        if res > 1e-8:
            problems.append(f"N-viii stabilizer not conjugate to the null rotation: {res:.2e}")
    return CheckResult(
        "C5", "orbit-inventories: expected tables, conserved invariants, stabilizer conjugacy",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


def check_eq1_dichotomy(seed: int = 42) -> CheckResult:
    """Sign of the discriminant of the tangent-norm quadratic matches the
    causal type of the base point; the closed form matches a finite
    difference of the flow."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    for character, want_positive in (("spacelike", True), ("timelike", False)):
        for _ in range(100):
            p = random_causal_point(rng, character, avoid_boost_stratum=True)
            x, y, z = p
            a, b, c = x * x - y * y, 2.0 * z * (x - y), (x - y) ** 2
            disc = b * b - 4.0 * a * c
            if want_positive and disc <= 0:
                problems.append(f"spacelike point {p}: discriminant {disc:.2e}")
            if not want_positive and disc >= 0:
                problems.append(f"timelike point {p}: discriminant {disc:.2e}")
    for _ in range(50):
        alpha = rng.uniform(-3.0, 3.0)
        p = rng.uniform(-3.0, 3.0, 3)
        w = finite_tangent(AlgebraElement(alpha * BOOST + NULL_ROTATION, np.zeros(3)), p)
        err = abs(inner(w, w) - eq1_norm(alpha, p))
        worst = max(worst, err)
        if err > 1e-7:
            problems.append(f"alpha={alpha:.3f}, p={p}: norm mismatch {err:.2e}")
    return CheckResult(
        "C6", "tangent-norm-dichotomy: discriminant sign and finite-difference agreement",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


_ROUND_TRIP_VARIANTS = {
    "P-a": ({"plane": "spacelike"}, {"plane": "timelike"}, {"plane": "degenerate"}),
    "P-d": ({"sign": 1.0, "beta": 1.0}, {"sign": -1.0, "beta": 1.5},
            {"sign": 1.0, "beta": -0.75}),
    "N-vii": ({"beta": 1.0}, {"beta": 0.0}),
    "N-x": ({"alpha": 1.0, "beta": 2.0}, {"alpha": 1.0, "beta": 0.0}),
}


def normalized_params(id_: str, params: dict) -> dict:
    """The documented image of build parameters under classification.

    N-vii's translation parameter is removable by conjugation and
    normalizes to 0; N-x's kernel scale normalizes to 1.  All other
    parameters are recovered as given.
    """
    out = dict(params)
    if id_ == "N-vii":
        out["beta"] = 0.0
    if id_ == "N-x":
        out["alpha"] = 1.0
    return out


def check_classifier_round_trip(seed: int = 42) -> CheckResult:
    """classify(Ad_g(build(id))) returns id and normalized parameters for
    all 16 ids, each conjugated by 50 random motions and classified as one
    stack; the documented probes are rejected with their reasons."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    for id_ in CATALOG_IDS:
        for params in _ROUND_TRIP_VARIANTS.get(id_, ({},)):
            entry = build(id_, **params)
            expect = normalized_params(id_, entry.params)
            for res in classify_stack(_adjoint_rows(*random_motions(rng, 50), *entry.basis.parts)):
                if not isinstance(res, Classification):
                    problems.append(f"{id_}{params}: rejected ({res.reason}: {res.detail})")
                    break
                if res.id != id_:
                    problems.append(f"{id_}{params}: classified as {res.id}")
                    break
                worst = max(worst, res.residual)
                perr = 0.0
                for key, val in expect.items():
                    got = res.params.get(key)
                    if isinstance(val, str):
                        if got != val:
                            perr = np.inf
                    else:
                        perr = max(perr, abs(float(got) - float(val)))
                worst = max(worst, 0.0 if np.isinf(perr) else perr)
                if perr > 1e-6:
                    problems.append(f"{id_}{params}: parameters {res.params} vs {expect}")
                    break
    # rejection probes
    bad = SubalgebraSpec((AlgebraElement(BOOST, np.zeros(3)),
                          AlgebraElement(ROTATION, np.zeros(3))))
    res = classify(bad)
    if not (isinstance(res, Rejection)
            and res.reason == REASON_NOT_SUBALGEBRA):
        problems.append("boost+rotation span was not rejected as a non-subalgebra")
    lonely = SubalgebraSpec((AlgebraElement(ROTATION, E3),))
    res = classify(lonely)
    if not (isinstance(res, Rejection)
            and res.reason == REASON_NOT_COHOMOGENEITY_ONE):
        problems.append("elliptic span with trivial kernel was not rejected")
    return CheckResult(
        "C7", "classifier-round-trip: id and parameter recovery, rejection probes",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


def check_exponential_cross_validation(seed: int = 42) -> CheckResult:
    """Closed-form and series exponentials agree on every catalog
    generator; the rotation has period 2*pi; the bracket satisfies the
    Jacobi identity."""
    rng = rng_from_seed(seed)
    problems = []
    worst = 0.0
    # every generator's flow over ts, both ways: one stack of 21-row blocks
    ts = np.linspace(-5.0, 5.0, 21)
    named = [(f"{id_}{entry.params}", el) for id_ in CATALOG_IDS for entry in entry_variants(id_)
             for el in entry.basis.basis]
    R = ts[:, None] * np.array([el.coords for _, el in named])[:, None]  # the rows of t (X, v)
    M, w = R[..., :9].reshape(-1, 3, 3), R[..., 9:].reshape(-1, 3)
    dists = motion_distance(Motions(*_closed_exp_pair(M, w)), Motions(*_series_exp_pair(M, w)))
    for (name, _), row in zip(named, dists.reshape(len(named), -1).tolist()):
        for t, d in zip(ts, row):
            worst = max(worst, d)
            if d > 1e-10:
                problems.append(f"{name}: paths differ by {d:.2e} at t={t}")
                break
    rot = AlgebraElement(ROTATION, np.zeros(3))
    d = motion_distance(exp_element(rot, 2.0 * np.pi), Motion.identity())
    worst = max(worst, d)
    if d > 1e-9:
        problems.append(f"rotation period residual {d:.2e}")
    # 200 triples (a, b, c) drawn as one stack; each bracket level runs once
    # for the three terms [a, [b, c]], [b, [c, a]], [c, [a, b]] of every triple
    X, v = random_algebra_elements(rng, (200, 3))
    bc = _brackets((X, v), (X, v), [1, 2, 0], [2, 0, 1])  # [b, c], [c, a], [a, b]
    terms = _brackets((X, v), (bc[..., :9].reshape(X.shape), bc[..., 9:]), slice(None), slice(None))
    for jac in terms[:, 0] + terms[:, 1] + terms[:, 2]:
        r = float(np.linalg.norm(jac))
        worst = max(worst, r)
        if r > 1e-10:
            problems.append(f"Jacobi residual {r:.2e}")
            break
    return CheckResult(
        "C8", "exponential-cross-check: closed vs series, rotation period, Jacobi",
        not problems, worst, "; ".join(problems[:4]) or "ok",
    )


ALL_CHECKS = (
    check_catalog_integrity,
    check_properness_dichotomy,
    check_recovery,
    check_shape_operator,
    check_orbit_inventories,
    check_eq1_dichotomy,
    check_classifier_round_trip,
    check_exponential_cross_validation,
)


def run_all(seed: int = 42):
    """(CheckResult, elapsed seconds) of each check of `ALL_CHECKS`, read at
    call time."""
    out = []
    for fn in ALL_CHECKS:
        t0 = perf_counter()
        out.append((fn(seed), perf_counter() - t0))
    return out


def format_line(r: CheckResult) -> str:
    status = "PASS" if r.passed else "FAIL"
    return f"[{status}] {r.check_id} {r.label} (max residual {r.residual:.3e})"
