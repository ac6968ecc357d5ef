"""One tolerance table: every numeric cut in `mink1` reads an entry of the
block of `*_TOL` names in `minkowski`, times the scale its site uses.

The guard parses the sources and fails on a small float literal anywhere
else; the pins hold each cut's verdict at its value and at NaN."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from mink1 import minkowski
from mink1.catalog import build
from mink1.minkowski import (BOOST, ELLIPTIC, FIXED_POINT_TOL, NILPOTENT_TOL, ROTATION,
                             STANDARDIZE_TOL, STRUCT_TOL, ZERO_TOL, so12_check)
from mink1.orbits import orbit_normal, shape_operator
from mink1.properness import WitnessError, make_witness

classify_module = importlib.import_module("mink1.classify")
properness = importlib.import_module("mink1.properness")

SRC = Path(__file__).resolve().parents[1] / "src" / "mink1"
VERIFY_CHECKS = ("_generic_points", "check_catalog_integrity", "check_shape_operator",
                 "check_orbit_inventories", "check_eq1_dichotomy", "check_classifier_round_trip",
                 "check_exponential_cross_validation")

# (file, function or module-level name) -> why a float in (0, 0.5) there decides nothing
ALLOWED = {
    # the acceptance checks' own pass bounds, and their 1e-4 generic-point margin
    **{("verify.py", name): "check bound" for name in VERIFY_CHECKS},
    # how far sampled points sit from a stratum's equalities, and their ranges
    ("catalog.py", "_SAMPLE_MARGIN"): "sampler margin",
    ("catalog.py", "_u"): "sampler range",
    ("catalog.py", "_cone_sampler.sample"): "sampler margin",
    ("catalog.py", "_build_P_b"): "P-b cylinder sampler",
    ("catalog.py", "_build_P_d"): "P-d cylinder sampler",
    ("catalog.py", "_build_N_i._half.sample"): "N-i half-plane sampler",
    ("sampling.py", "causal_mask"): "sampler margin",
    # the P-d parameter recovery's pass bound
    ("properness.py", "recovery_test"): "check bound",
    # step sizes: a central difference and the evidence stencil
    ("orbits.py", "TANGENT_STEP"): "step size",
    ("orbits.py", "STENCIL_RADIUS"): "step size",
    # where the exponential's coefficients switch to their series
    ("minkowski.py", "_exp_coeffs"): "series switch",
}


def _small_floats(path):
    """(scope, line, value) of each float literal in (0, 0.5) of a source file;
    the scope is the dotted name of the enclosing functions and classes, or
    the name a module-level assignment binds."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif isinstance(child, (ast.Assign, ast.AnnAssign)) and not scope:
                target = child.targets[0] if isinstance(child, ast.Assign) else child.target
                inner = (getattr(target, "id", ""),)
            if isinstance(child, ast.Constant) and type(child.value) is float \
                    and 0.0 < abs(child.value) < 0.5:
                found.append((".".join(inner), child.lineno, child.value))
            walk(child, inner)

    walk(ast.parse(path.read_text()), ())
    return found


def _table():
    """The names of the tolerance block: minkowski's module-level *_TOL."""
    return {name for name in vars(minkowski) if name.endswith("_TOL")}


def test_every_small_float_literal_is_a_table_entry_or_allowlisted():
    stray = [(path.name, scope, line, value)
             for path in sorted(SRC.glob("*.py"))
             for scope, line, value in _small_floats(path)
             if (path.name, scope) not in ALLOWED
             and not (path.name == "minkowski.py" and scope in _table())]
    assert not stray, stray
    # and every allowlisted place still holds such a literal
    seen = {(path.name, scope) for path in SRC.glob("*.py") for scope, *_ in _small_floats(path)}
    assert not set(ALLOWED) - seen, set(ALLOWED) - seen


def test_the_table_lives_in_minkowski_alone():
    assert _table() == {"STRUCT_TOL", "MOTION_TOL", "SPAN_MATCH_TOL", "STANDARDIZE_TOL",
                        "ZERO_TOL", "NILPOTENT_TOL", "FIXED_POINT_TOL"}
    for path in SRC.glob("*.py"):
        if path.name != "minkowski.py":
            module = ast.parse(path.read_text())
            bound = [t.id for node in module.body if isinstance(node, ast.Assign)
                     for t in node.targets if isinstance(t, ast.Name)]
            assert not [n for n in bound if n.endswith("_TOL")], path.name
    # README's table gives each entry its value
    rows = [line.split("|") for line in (SRC.parents[1] / "README.md").read_text().splitlines()
            if line.startswith("| `") and "_TOL` |" in line]
    assert {r[1].strip(" `"): float(r[2]) for r in rows} == {n: getattr(minkowski, n)
                                                             for n in _table()}


# ---------------------------------------------------------------------------
# pins: each site's verdict at its cut, just above it, and at NaN


def _null_frame(n1, monkeypatch):
    """The null frame's failure for the null direction (n1, n1, 0)."""
    detail = np.empty(1, dtype=object)
    with np.errstate(all="ignore"):
        classify_module._frame_from_null(np.array([[n1, n1, 0.0]]), detail)
    return detail[0]


def _standardized(d, monkeypatch):
    """The standardization failure of ROTATION with d at (0, 0): its frame
    is the identity, so the residual is |d| against 1 * STANDARDIZE_TOL."""
    X = ROTATION.copy()
    X[0, 0] = d
    with np.errstate(all="ignore"):
        return classify_module._standardize(X[None], ELLIPTIC)[2][0]


def _diagnosis(lam1, monkeypatch):
    """The P-d shape operator's diagnosis at a generic point, with its
    eigenvalues read as 0 and lam1(cut), cut = NILPOTENT_TOL max|S|."""
    entry, p = build("P-d"), np.array([0.3, 1.7, -0.4])
    S, _ = shape_operator(entry, p)
    cut = NILPOTENT_TOL * abs(S).max()
    monkeypatch.setattr(np.linalg, "eigvals", lambda S: np.array([[0.0, lam1(cut)]]))
    try:
        return shape_operator(entry, p)[1]
    except np.linalg.LinAlgError:
        return "raises"


def _normal_flip(x, monkeypatch):
    """Whether `orbit_normal` flips the normal (x, -0.6, 0.8): a first
    component within ZERO_TOL passes the sign choice on to the second."""
    vh = np.eye(3)[None].copy()
    vh[0, 2] = (x, -0.6, 0.8)
    s = np.array([[1.0, 1.0, 0.0]])  # rank 2
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: (None, s, vh))
    return bool(orbit_normal(build("P-d").basis, np.zeros(3))[1] > 0)


def _witness(d, monkeypatch):
    """`make_witness` of N-i when every exp(n g) moves its point by d."""
    monkeypatch.setattr(properness, "apply",
                        lambda flow, p: np.tile(p + [d, 0.0, 0.0], (len(flow.A), 1)))
    try:
        return make_witness(build("N-i")).residual
    except WitnessError:
        return "rejected"


def _so12(d, monkeypatch):
    """`so12_check` of 4 BOOST with d at (0, 0), alone and as a stack: its
    cut is STRUCT_TOL * max(1, max|X|) = 4 STRUCT_TOL."""
    X = 4.0 * BOOST
    X[0, 0] = d
    return so12_check(X), bool(so12_check(X[None])[0])


def _above(x):
    return np.nextafter(x, np.inf)


@pytest.mark.parametrize("site, value, verdict", [
    # |n1| at the cut now reads zero (sign_of), where `>= 1e-12` let it pass
    (_null_frame, ZERO_TOL, "direction is not null"),
    (_null_frame, _above(ZERO_TOL), None),
    (_null_frame, np.nan, "direction is not null"),
    (_standardized, STANDARDIZE_TOL, None),
    (_standardized, _above(STANDARDIZE_TOL), "standardization failed (residual 1.000e-08)"),
    (_standardized, np.nan, "standardization failed (residual nan)"),
    (_diagnosis, lambda cut: cut, "non-diagonalizable"),
    (_diagnosis, lambda cut: _above(cut), "diagonalizable"),
    (_diagnosis, lambda cut: np.nan, "raises"),
    # (a NaN normal is NaN whichever way it is flipped, and the witness flow is
    # validated finite before its drift is measured: neither has a NaN pin)
    (_normal_flip, ZERO_TOL, True),
    (_normal_flip, _above(ZERO_TOL), False),
    (_witness, FIXED_POINT_TOL, FIXED_POINT_TOL),
    (_witness, _above(FIXED_POINT_TOL), "rejected"),
    # the cut follows max|X| (an absolute STRUCT_TOL rejected 4 STRUCT_TOL), and an
    # inf entry, which makes the cut inf, still fails
    (_so12, 4.0 * STRUCT_TOL, (True, True)),
    (_so12, _above(4.0 * STRUCT_TOL), (False, False)),
    (_so12, np.nan, (False, False)),
    (_so12, np.inf, (False, False)),
])
def test_each_cut_keeps_its_verdict_at_the_cut_and_at_nan(site, value, verdict, monkeypatch):
    assert site(value, monkeypatch) == verdict
