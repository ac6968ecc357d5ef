"""The traced benchmark run looks mink1's names up by string: keep them resolvable.

`perfbench/spans.py` lists, per module, the public names whose calls it
records, and the number of acceptance checks it times.  These tests read
that file (without changing it), so a rename or a deleted helper fails
here instead of in the traced run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves_on_its_module():
    for mod, names in _spans().TRACED.items():
        module = importlib.import_module(f"mink1.{mod}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"mink1.{mod} lacks {missing}"


def test_check_count_matches_the_acceptance_suite():
    from mink1.verify import ALL_CHECKS

    assert len(ALL_CHECKS) == _spans().CHECK_COUNT
