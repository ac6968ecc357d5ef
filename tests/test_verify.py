"""Host-independent guards on the stacked acceptance checks: the functions a
check reaches are wrapped to count their calls, so a per-item loop shows as
a count that grows with the items, on any machine."""

import dataclasses
import importlib
import re
from types import SimpleNamespace

import numpy as np
import pytest

from mink1 import catalog, minkowski, orbits, properness, verify
from mink1.algebra import AlgebraElement, SubalgebraSpec
from mink1.catalog import build
from mink1.classify import Rejection
from mink1.minkowski import BOOST, E3

classify = importlib.import_module("mink1.classify")  # the package exports the function


def _count(monkeypatch, counts, module, name):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_round_trip_checks_each_stack_once(monkeypatch):
    """One motion-rule call per drawn stack of motions, one per
    `classify_stack` (each stack is one signature group) and one per probe;
    catalog bases come from the cache, not one `catalog.build` per basis."""
    counts = {}
    classify._catalog_basis.cache_clear()
    for module, name in ((minkowski, "motion_faults"), (classify, "motion_faults"),
                         (catalog, "build"), (verify, "random_motions"),
                         (verify, "classify_stack"), (verify, "classify")):
        _count(monkeypatch, counts, module, name)
    assert verify.check_classifier_round_trip(42).passed
    stacks = counts["classify_stack"]
    assert stacks == counts["random_motions"] == 22
    assert counts["motion_faults"] <= counts["random_motions"] + stacks + counts["classify"]
    assert counts.get("build", 0) == classify._catalog_basis.cache_info().misses < stacks


def test_orbit_inventories_flow_each_basis_element_once(monkeypatch):
    """`sample_orbit` flows each basis element of an entry with an invariant
    once for all its base points."""
    counts = {}
    _count(monkeypatch, counts, orbits, "exp_element")
    assert verify.check_orbit_inventories(42).passed
    assert counts["exp_element"] == sum(
        entry.basis.dim for id_ in catalog.CATALOG_IDS for entry in verify.entry_variants(id_)
        if entry.invariant is not None)


def _raise_witness_error(entry):
    raise properness.WitnessError(f"{entry.id}: injected witness failure")


def _each(fn, change):  # fn with `change` applied to each of its results
    return lambda *args: [change(r) for r in fn(*args)]


_FIRST_P_A = "P-a{'plane': 'spacelike'}"
_FIRST_P_D = "{'sign': 1.0, 'beta': 0.5}"
# (check id, module, name, the fault given the original, the first detail message,
# where "..." stands for a sampled point or a figure drawn from it)
_FAULTS = {
    "C1-ids": ("C1", verify, "CATALOG_IDS", lambda ids: ids[:-1],
               "catalog is not 4 proper + 12 nonproper families"),
    "C1-closure": ("C1", verify, "closure_residual", lambda f: lambda spec: 1.0,
                   f"{_FIRST_P_A}: bracket residual 1.00e+00"),
    "C1-dimension": ("C1", verify, "analyze_points",
                     lambda f: lambda basis, pts: SimpleNamespace(orbit_dim=[4] * len(pts)),
                     f"{_FIRST_P_A}: orbit dimension exceeds 3"),
    "C2-verdicts": ("C2", verify, "PROPER_IDS", lambda ids: ids[:-1],
                    "proper verdicts do not match the classification"),
    "C2-witness": ("C2", verify, "make_witness", lambda f: _raise_witness_error,
                   "N-i: injected witness failure"),
    "C2-growth": ("C2", verify, "make_witness",
                  lambda f: lambda entry: SimpleNamespace(residual=0.0, certificate=[(20, 99.0)]),
                  "N-i{}: growth norm below 100 at n=20"),
    "C2-stabilizer": ("C2", verify, "analyze_points",
                      lambda f: lambda basis, pts: SimpleNamespace(
                          stabilizer_class=["noncompact"] * len(pts)),
                      f"{_FIRST_P_A}: noncompact stabilizer at ..."),
    "C3-recovery": ("C3", properness, "recovery_test",
                    lambda f: lambda entry, seed: {"passed": False, "max_error": 1.0},
                    "sign=1.0, beta=0.5: error 1.00e+00"),
    "C4-eigenvalue": ("C4", verify, "shape_operator",
                      lambda f: lambda entry, P: (np.tile(np.eye(3), (len(P), 1, 1)),
                                                  f(entry, P)[1]),
                      f"{_FIRST_P_D} at ...: eigenvalue 1.00e+00"),
    "C4-zero": ("C4", verify, "shape_operator",
                lambda f: lambda entry, P: (np.zeros((len(P), 3, 3)), f(entry, P)[1]),
                f"{_FIRST_P_D} at ...: shape operator nearly zero"),
    "C4-diagnosis": ("C4", verify, "shape_operator",
                     lambda f: lambda entry, P: (f(entry, P)[0], ["diagonalizable"] * len(P)),
                     f"{_FIRST_P_D} at ...: diagnosed diagonalizable"),
    "C4-stratum": ("C4", verify, "analyze_points",
                   lambda f: lambda basis, pts: SimpleNamespace(causal=["timelike"] * len(pts)),
                   f"{_FIRST_P_D}: stratum point not degenerate"),
    "C4-normal": ("C4", verify, "orbit_normal", lambda f: lambda basis, pts: f(basis, pts) + 1.0,
                  f"{_FIRST_P_D}: normal direction off by 1.00e+00"),
    "C5-stratum": ("C5", orbits, "expected_orbits",
                   lambda f: _each(f, lambda s: dataclasses.replace(s, dim=3)),
                   f"{_FIRST_P_A} at ...: got (dim 2, ...), expected (dim 3, ...)"),
    "C5-invariant": ("C5", verify, "sample_orbit", lambda f: lambda *args: f(*args) + 1.0,
                     f"{_FIRST_P_A}: invariant drifts by 1.00e+00"),
    "C5-stabilizer-dim": ("C5", verify, "stabilizer_algebra",
                          lambda f: lambda basis, p: build("N-ix").basis,
                          "N-viii stabilizer dimension 2 at ..."),
    "C5-stabilizer": ("C5", verify, "stabilizer_algebra",
                      lambda f: lambda basis, p: SubalgebraSpec((AlgebraElement(BOOST, E3),)),
                      "N-viii stabilizer not conjugate to the null rotation: ..."),
    "C6-discriminant": ("C6", verify, "causal_mask",
                        lambda f: lambda c: f("timelike" if c == "spacelike" else "spacelike"),
                        "spacelike point ...: discriminant ..."),
    "C6-norm": ("C6", verify, "eq1_norm", lambda f: lambda alpha, p: f(alpha, p) + 1.0,
                "alpha=..., p=...: norm mismatch 1.00e+00"),
    "C7-rejected": ("C7", verify, "classify_stack",
                    lambda f: lambda rows: [Rejection("unmatched", "injected")] * len(rows),
                    f"{_FIRST_P_A}: rejected (unmatched: injected)"),
    "C7-id": ("C7", verify, "classify_stack",
              lambda f: _each(f, lambda r: dataclasses.replace(r, id="N-xii")),
              f"{_FIRST_P_A}: classified as N-xii"),
    "C7-params": ("C7", verify, "classify_stack",
                  lambda f: _each(f, lambda r: dataclasses.replace(
                      r, params={**r.params, "plane": "timelike"})),
                  f"{_FIRST_P_A}: parameters {{'plane': 'timelike'}} vs {{'plane': 'spacelike'}}"),
    "C7-probes": ("C7", verify, "classify", lambda f: lambda spec: None,
                  "boost+rotation span was not rejected as a non-subalgebra"),
    "C8-series": ("C8", verify, "_series_exp_pair",
                  lambda f: lambda M, w: (lambda A, a: (A, a + 1.0))(*f(M, w)),
                  f"{_FIRST_P_A}: paths differ by 1.00e+00 at t=-5.0"),
    "C8-period": ("C8", verify, "exp_element", lambda f: lambda el, t: f(el, 0.5 * t),
                  "rotation period residual ..."),
    "C8-jacobi": ("C8", verify, "_brackets", lambda f: lambda *args: f(*args) + 1.0,
                  "Jacobi residual ..."),
}


@pytest.mark.parametrize("case", list(_FAULTS))
def test_each_check_fails_on_an_injected_fault(monkeypatch, case):
    """One fault injected into what a check reads makes it fail, and its
    first detail message names that fault."""
    check_id, module, name, fault, first = _FAULTS[case]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    res = verify.ALL_CHECKS[int(check_id[1:]) - 1](42)
    assert res.check_id == check_id and res.passed is False
    pattern = ".+?".join(map(re.escape, first.split("...")))
    assert re.fullmatch(pattern, res.detail.split("; ")[0]), res.detail


def _variant_names(variants):
    return [f"{id_}{params}" for id_ in catalog.CATALOG_IDS for params in variants.get(id_, ({},))]


# (the names the fault raises one problem for, in the order the check visits
# them, the message after each name, how many problems, how many the detail lists)
_LISTED = {
    "C1-closure": (_variant_names(verify._ENTRY_VARIANTS), "bracket residual 1.00e+00", 23, 23),
    "C3-recovery": ([f"sign={s}, beta={b}" for s in (1.0, -1.0) for b in (0.5, 1.0, 2.0)],
                    "error 1.00e+00", 6, 6),
    "C7-rejected": (_variant_names(verify._ROUND_TRIP_VARIANTS), "rejected (unmatched: injected)",
                    22, 4),
}


@pytest.mark.parametrize("case", list(_LISTED))
def test_a_failed_check_lists_every_problem_or_its_first_four(monkeypatch, case):
    """C1 and C3 list every problem they find; every other check lists its
    first four."""
    names, message, found, listed = _LISTED[case]
    assert len(names) == found
    check_id, module, name, fault, _ = _FAULTS[case]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    res = verify.ALL_CHECKS[int(check_id[1:]) - 1](42)
    assert res.detail == "; ".join(f"{n}: {message}" for n in names[:listed])
