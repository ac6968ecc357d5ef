"""Host-independent guards on the stacked acceptance checks: the functions a
check reaches are wrapped to count their calls, so a per-item loop shows as
a count that grows with the items, on any machine."""

import importlib

from mink1 import catalog, minkowski, orbits, verify

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
