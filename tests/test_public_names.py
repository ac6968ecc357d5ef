"""Every public name has a caller: each name `mink1/__init__.py` imports and
each entry of `algebra.__all__` is used in `src/` outside its own
definition and the export lists, or by the benchmark in `perfbench/`, or
is named in README's "Public API" list of vocabulary kept for readers."""

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mink1"


def _exported():
    """The names `mink1/__init__.py` imports, then `algebra.__all__`."""
    init = ast.parse((SRC / "__init__.py").read_text())
    names = [a.asname or a.name for node in init.body if isinstance(node, ast.ImportFrom)
             for a in node.names]
    algebra = ast.parse((SRC / "algebra.py").read_text())
    names += [name for node in algebra.body if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
              for name in ast.literal_eval(node.value)]
    return list(dict.fromkeys(names))


def _names_read(paths):
    """Names read (a Name or an attribute) in the given sources, outside
    the body of a definition of the same name; `__all__` holds strings,
    so an export list reads nothing."""
    used = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        own = {}  # id of a node -> the names of the definitions enclosing it
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                for inner in ast.walk(node):
                    own.setdefault(id(inner), set()).add(node.name)
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name and name not in own.get(id(node), ()):
                used.add(name)
    return used


def _traced():
    """The names `perfbench/spans.py` lists in TRACED."""
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {name for names in spans.TRACED.values() for name in names}


def _readme_api():
    """The names in backticks, without a module prefix or arguments, in
    README's "Public API" section."""
    readme = (ROOT / "README.md").read_text()
    section = re.search(r"^## Public API\n(.*?)(?=^## |\Z)", readme, re.M | re.S)
    return set(re.findall(r"`(?:\w+\.)*(\w+)", section.group(1))) if section else set()


def test_every_public_name_has_a_caller_or_is_documented_vocabulary():
    src = [path for path in SRC.glob("*.py") if path.name != "__init__.py"]  # it only re-exports
    known = (_names_read(src) | _names_read((ROOT / "perfbench").glob("*.py")) | _traced()
             | _readme_api())
    orphans = [name for name in _exported() if name not in known]
    assert not orphans, orphans
