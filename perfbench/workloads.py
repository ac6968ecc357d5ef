"""The three benchmark workloads: seeded inputs, the timed op, the oracle.

Each workload builds one *pass*: a list of distinct `Op`s generated from
the seed before any timing starts.  An op carries the call the program
makes (`run`), the answer it must give (`check`) and whether it belongs
to the tolerance probe.  The probe holds the inputs on which the
program's rank and stratum tolerances are known to misjudge some answers
today (ROADMAP item 2), decided from the input alone:
- dilated inputs (points, or bases, scaled by 10^k with k != 0);
- generic orbit-map points whose tangent map is within MARGIN of a
  change of orbit dimension or causal type (`near_boundary`).
They are kept on purpose: the worker runs them once, untimed, and counts
their wrong answers in `failed_ratio`.  Every other op is timed, and
every one of those must answer right.

The harness draws every random input itself (points, motions, scales);
the program sees only the generated arrays, ids and parameters.  The one
exception is the catalog's per-stratum samplers, which define where the
measure-zero strata lie.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable, Optional

import numpy as np

from mink1 import catalog, verify
from mink1.algebra import AlgebraElement, SubalgebraSpec
from mink1.classify import Classification, Rejection, classify
from mink1.cli import main as cli_main
from mink1.minkowski import BOOST, DEGENERATE, ETA, NULL_ROTATION, ROTATION
from mink1.orbits import orbit_report, sample_orbit

# parameter variants of the families that have parameters; every other
# family runs at its defaults
ORBIT_VARIANTS = {
    "P-a": ({"plane": "spacelike"}, {"plane": "timelike"}, {"plane": "degenerate"}),
    "P-d": ({"sign": 1.0, "beta": 1.0}, {"sign": -1.0, "beta": 1.5},
            {"sign": 1.0, "beta": -0.75}),
    "N-vii": ({"beta": 1.0}, {"beta": 0.0}, {"beta": -2.0}),
    "N-x": ({"alpha": 1.0, "beta": 1.0}, {"alpha": 1.0, "beta": 0.0},
            {"alpha": -2.0, "beta": 0.5}),
}
CLASSIFY_VARIANTS = {
    "P-a": ({"plane": "spacelike"}, {"plane": "timelike"}, {"plane": "degenerate"}),
    "P-d": ({"sign": 1.0, "beta": 1.0}, {"sign": -1.0, "beta": 1.5},
            {"sign": 1.0, "beta": -0.75}),
    "N-vii": ({"beta": 1.0}, {"beta": 0.0}),
    "N-x": ({"alpha": 1.0, "beta": 2.0}, {"alpha": 1.0, "beta": 0.0}),
}
# translation lengths that scale with space under a dilation p -> lam p
LENGTH_PARAMS = ("beta",)
DILATION_EXPONENTS = np.arange(-6, 7)
# The program decides orbit dimension and causal type with cutoffs of
# 1e-9 and misjudges generic points whose margin falls below them (N-x
# up to 3e-3 from its degenerate plane, P-d up to 3e-4).  A generic point
# with a margin below MARGIN goes to the probe.
MARGIN = 1e-4

DRIFT_TOL = 1e-8
PARAM_TOL = 1e-6

# pass sizes; "smoke" is the tiny mode the self-test runs
SIZES = {
    "full": {
        "verify-suite": {},
        "orbit-map": {"generic": 9, "per_sampler": 1, "dilated": 3, "grid_samples": 64},
        "classify-stream": {"accept": 40, "rescaled": 12, "noncl": 140,
                            "onedim": 100, "transitive": 100},
    },
    "smoke": {
        "verify-suite": {},
        "orbit-map": {"generic": 2, "per_sampler": 1, "dilated": 1, "grid_samples": 4},
        "classify-stream": {"accept": 1, "rescaled": 1, "noncl": 2,
                            "onedim": 2, "transitive": 2},
    },
}


@dataclass
class Op:
    """One timed call and its known answer.

    `run()` is the only part that is timed; `check(result)` returns None
    when the answer is right and a one-line reason when it is not.
    `probe` marks an input of the tolerance probe (module docstring).
    `kind` is "op" for the ops that `ops_per_s` counts and "grid" for
    `sample_orbit` grids, which `samples_per_s` counts.  `scale(result,
    dt_ns, factor)`, where given, returns the op's time at reference speed
    (calib.py) for an op that measures its own speed as it goes.
    """

    run: Callable
    check: Callable
    probe: bool = False
    kind: str = "op"
    samples: int = 0
    scale: Optional[Callable] = None


# ---------------------------------------------------------------------------
# random motions, generated here so that the program never picks its inputs


def _rotation(th):
    c, s = np.cos(th), np.sin(th)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])


def _boost(phi):
    c, s = np.cosh(phi), np.sinh(phi)
    return np.array([[c, s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def random_motion(rng):
    """(A, a): a rotation-boost-rotation product, in the identity component."""
    A = _rotation(rng.uniform(0, 2 * np.pi)) @ _boost(rng.uniform(-1.0, 1.0)) \
        @ _rotation(rng.uniform(0, 2 * np.pi))
    return A, rng.uniform(-2.0, 2.0, 3)


def conjugate(motion, pairs):
    """Ad_(A,a)(X, v) = (A X A^-1, A v - (A X A^-1) a) on raw arrays."""
    A, a = motion
    Ai = ETA @ A.T @ ETA
    out = []
    for X, v in pairs:
        Y = A @ X @ Ai
        out.append((Y, A @ v - Y @ a))
    return out


def random_generator(rng):
    """A random element of so(1,2) as a 3x3 matrix."""
    b, r, n = rng.uniform(-1.0, 1.0, 3)
    return np.array([[0.0, b + n, n], [b + n, 0.0, r + n], [n, -r - n, 0.0]])


# ---------------------------------------------------------------------------
# verify-suite


def verify_suite(seed, size, speed):
    """One op: `mink1 verify --suite all --json --seed S` through
    `mink1.cli.main`, stdout captured.  The answer: exit 0, all_pass, and
    the same bytes on every repeat.

    A suite runs for seconds, long enough for the host's speed to change
    in between, so the op re-measures the speed before each of the eight
    checks (timed around `verify.ALL_CHECKS`) and scales each check by
    its own factor; the calibration time is taken out again.
    """
    argv = ["verify", "--suite", "all", "--json", "--seed", str(seed)]
    first = []

    def run():
        parts = []  # (check ns, factor, calibration ns)

        def timed(fn):
            def call(*args):
                t0 = perf_counter_ns()
                factor = speed.refresh(force=True)
                t1 = perf_counter_ns()
                try:
                    return fn(*args)
                finally:
                    parts.append((perf_counter_ns() - t1, factor, t1 - t0))

            return call

        checks = verify.ALL_CHECKS
        verify.ALL_CHECKS = tuple(timed(fn) for fn in checks)
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli_main(argv)
        finally:
            verify.ALL_CHECKS = checks
        return rc, buf.getvalue(), parts

    def scale(result, dt, factor):
        parts = result[2]
        rest = dt - sum(t + cal for t, _, cal in parts)
        return rest * factor + sum(t * f for t, f, _ in parts)

    def check(result):
        rc, out, _ = result
        if rc != 0:
            return f"exit code {rc}"
        if not json.loads(out)["payload"]["all_pass"]:
            return "all_pass is false"
        if not first:
            first.append(out)
        elif out != first[0]:
            return "JSON differs from the first repeat"
        return None

    return [Op(run, check, scale=scale)]


# ---------------------------------------------------------------------------
# orbit-map


def _dilated_params(params, lam):
    return {k: (v * lam if k in LENGTH_PARAMS else v) for k, v in params.items()}


def _orbit_op(id_, params, point, stratum, probe):
    point = np.array(point, dtype=float)
    want = (stratum.name, stratum.dim, stratum.causal, stratum.stabilizer_dim,
            stratum.stabilizer_class)

    def run():
        entry = catalog.build(id_, **params)
        return orbit_report(entry, point)

    def check(rep):
        got = (rep.expected.name, rep.orbit_dim, rep.causal, rep.stabilizer_dim,
               rep.stabilizer_class)
        return None if got == want else f"{id_}{params} at {point.tolist()}: {got} != {want}"

    return Op(run, check, probe)


def near_boundary(entry, p, stratum):
    """Whether the tangent map at `p` is within MARGIN of losing the rank
    `stratum.dim` (its dim-th singular value over its first) or, for a
    nondegenerate 2-dimensional orbit, of a degenerate induced metric
    (the determinant of ETA on an orthonormal basis of the tangent
    plane)."""
    dim = stratum.dim
    T = np.stack([el.X @ p + el.v for el in entry.basis.basis])
    _, s, vh = np.linalg.svd(T)
    if dim and s[dim - 1] < MARGIN * s[0]:
        return True
    return (dim == 2 and stratum.causal != DEGENERATE
            and abs(np.linalg.det(vh[:2] @ ETA @ vh[:2].T)) < MARGIN)


def _grid_op(id_, params, point, samples):
    """sample_orbit over an n^dim grid of about `samples` points; samples
    must keep the invariant (relative drift <= 1e-8) or, without one, stay
    in the point's stratum."""
    entry = catalog.build(id_, **params)
    dim = entry.basis.dim
    axes = [np.linspace(-1.2, 1.2, max(2, round(samples ** (1 / dim))))] * dim
    grid = [tuple(t) for t in np.stack(np.meshgrid(*axes), -1).reshape(-1, dim)]
    if entry.invariant is not None:
        ref = entry.invariant(point)
    else:
        ref = catalog.expected_orbit(entry, point).name

    def run():
        return sample_orbit(catalog.build(id_, **params), point, grid)

    def check(samples):
        if len(samples) != len(grid):
            return f"{id_}{params}: {len(samples)} samples for {len(grid)} grid points"
        if entry.invariant is None:
            names = {catalog.expected_orbit(entry, q).name for q in samples}
            return None if names == {ref} else f"{id_}{params}: samples leave {ref}: {names}"
        drift = max(abs(entry.invariant(q) - ref) for q in samples)
        if drift > DRIFT_TOL * max(1.0, abs(ref)):
            return f"{id_}{params}: invariant drifts by {drift:.3e}"
        return None

    return Op(run, check, kind="grid", samples=len(grid))


def orbit_map(seed, size, speed):
    """Per family variant: generic points, points from every stratum
    sampler, and a share of dilated points, each answered by orbit_report
    with evidence; then one sample_orbit grid."""
    rng = np.random.default_rng(seed)
    ops = []
    for id_ in catalog.CATALOG_IDS:
        for params in ORBIT_VARIANTS.get(id_, ({},)):
            entry = catalog.build(id_, **params)
            n_generic = size["generic"]
            base = [rng.uniform(-3.0, 3.0, 3) for _ in range(n_generic)]
            for s in entry.strata:
                for sampler in s.samplers:
                    base += [np.asarray(sampler(rng), float)
                             for _ in range(size["per_sampler"])]
            strata = [catalog.expected_orbit(entry, p) for p in base]
            near = [i < n_generic and near_boundary(entry, p, stratum)
                    for i, (p, stratum) in enumerate(zip(base, strata))]
            ops += [_orbit_op(id_, params, *args) for args in zip(base, strata, near)]
            for _ in range(size["dilated"]):
                i = rng.integers(len(base))
                lam = 10.0 ** int(rng.choice(DILATION_EXPONENTS))
                ops.append(_orbit_op(id_, _dilated_params(params, lam), lam * base[i],
                                     strata[i], lam != 1.0 or near[i]))
            ops.append(_grid_op(id_, params, rng.uniform(-2.0, 2.0, 3), size["grid_samples"]))
    return ops


# ---------------------------------------------------------------------------
# classify-stream


def normalized_params(id_, params):
    """The documented image of build parameters under classification:
    N-vii's beta normalizes to 0 and N-x's alpha to 1."""
    out = dict(params)
    if id_ == "N-vii":
        out["beta"] = 0.0
    if id_ == "N-x":
        out["alpha"] = 1.0
    return out


def _classify_op(pairs, want, probe=False):
    """`want` is (catalog id, params) for the accept path and a rejection
    reason string for the reject path."""

    def run():
        spec = SubalgebraSpec(tuple(AlgebraElement(X, v) for X, v in pairs))
        return classify(spec)

    def check(res):
        if isinstance(want, str):
            if isinstance(res, Rejection) and res.reason == want:
                return None
            return f"expected rejection {want}, got {res}"
        id_, params = want
        if not isinstance(res, Classification):
            return f"{id_}{params}: rejected ({res.reason}: {res.detail})"
        if res.id != id_:
            return f"{id_}{params}: classified as {res.id}"
        for key, val in params.items():
            got = res.params.get(key)
            if isinstance(val, str):
                if got != val:
                    return f"{id_}: {key} = {got!r}, expected {val!r}"
            elif got is None or abs(float(got) - val) > PARAM_TOL * max(1.0, abs(val)):
                return f"{id_}: {key} = {got!r}, expected {val!r}"
        return None

    return Op(run, check, probe)


def classify_stream(seed, size, speed):
    """Conjugated catalog bases (a share rescaled by 10^k) beside random
    non-closed pairs, 1-dimensional spans and transitive algebras, in
    one shuffled stream."""
    rng = np.random.default_rng(seed)
    ops = []
    for id_ in catalog.CATALOG_IDS:
        for params in CLASSIFY_VARIANTS.get(id_, ({},)):
            entry = catalog.build(id_, **params)
            pairs = [(el.X, el.v) for el in entry.basis.basis]
            want = (id_, normalized_params(id_, entry.params))
            for _ in range(size["accept"]):
                ops.append(_classify_op(conjugate(random_motion(rng), pairs), want))
            for _ in range(size["rescaled"]):
                lam = 10.0 ** int(rng.choice(DILATION_EXPONENTS))
                moved = conjugate(random_motion(rng), pairs)
                ops.append(_classify_op([(lam * X, lam * v) for X, v in moved], want,
                                        lam != 1.0))
    for _ in range(size["noncl"]):
        pair = [(random_generator(rng), rng.uniform(-1.0, 1.0, 3)) for _ in range(2)]
        ops.append(_classify_op(pair, "not-a-subalgebra"))
    for _ in range(size["onedim"]):
        ops.append(_classify_op([(random_generator(rng), rng.uniform(-1.0, 1.0, 3))],
                                "not-cohomogeneity-one"))
    # all translations plus a linear part of dimension 0, 1, 2 (the
    # solvable pair) or 3 (all of so(1,2)): closed, but transitive
    so12 = (BOOST, NULL_ROTATION, ROTATION)
    translations = [(np.zeros((3, 3)), e) for e in np.eye(3)]
    for i in range(size["transitive"]):
        n_lin = i % 4
        lin = [random_generator(rng)] if n_lin == 1 else so12[:n_lin]
        pairs = [(X, np.zeros(3)) for X in lin] + translations
        ops.append(_classify_op(conjugate(random_motion(rng), pairs),
                                "not-cohomogeneity-one"))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


WORKLOADS = {
    "verify-suite": verify_suite,
    "orbit-map": orbit_map,
    "classify-stream": classify_stream,
}


def build_pass(name, seed, speed, mode="full"):
    """The workload's ops; `speed` (a calib.Speed) serves ops that scale
    their own time."""
    return WORKLOADS[name](seed, SIZES[mode][name], speed)
