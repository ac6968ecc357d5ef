"""Deterministic JSON/CSV emission and the basis-file parser.

JSON floats are printed at 17 significant digits so identical
invocations produce byte-identical reports; CSV uses a '.' decimal
point regardless of locale.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .algebra import SubalgebraSpec, element_from_coords


def fmt17(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float in report")
    return f"{float(x):.17g}"


def to_json(obj, indent: int = 0) -> str:
    """Recursive JSON emitter with fixed float formatting."""
    pad = "  " * indent
    inner_pad = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [to_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(inner_pad + s for s in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{json.dumps(str(k))}: {to_json(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(inner_pad + s for s in items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


class BasisParseError(ValueError):
    def __init__(self, line: int, col: int, msg: str):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


def parse_basis_text(text: str) -> SubalgebraSpec:
    """Parse a basis file: one element per line, 12 whitespace-separated
    reals (row-major linear part, then the translation), '#' comments."""
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        values = []
        col = 1
        for token in line.split():
            col = raw.index(token, col - 1) + 1
            try:
                value = float(token)
            except ValueError:
                raise BasisParseError(lineno, col, f"not a number: {token!r}") from None
            if not math.isfinite(value):
                raise BasisParseError(lineno, col, f"not a finite number: {token!r}")
            values.append(value)
            col += len(token)
        if len(values) != 12:
            raise BasisParseError(lineno, 1, f"expected 12 numbers, got {len(values)}")
        try:
            elements.append(element_from_coords(values))
        except ValueError as exc:
            raise BasisParseError(lineno, 1, str(exc)) from None
    if not elements:
        raise BasisParseError(1, 1, "no basis elements found")
    try:
        return SubalgebraSpec(tuple(elements))
    except ValueError as exc:
        raise BasisParseError(1, 1, str(exc)) from None


def parse_basis_file(path: str) -> SubalgebraSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_basis_text(fh.read())


def write_orbit_csv(fh, param_names, grid, points):
    """Orbit samples: header `t_params...,x1,x2,x3`, 17 significant digits."""
    fh.write(",".join(list(param_names) + ["x1", "x2", "x3"]) + "\n")
    for tup, q in zip(grid, points):
        row = [fmt17(t) for t in tup] + [fmt17(c) for c in q]
        fh.write(",".join(row) + "\n")


def motion_payload(m) -> dict:
    return {"A": [float(x) for x in np.asarray(m.A).ravel()],
            "a": [float(x) for x in np.asarray(m.a)]}


def element_payload(el) -> dict:
    return {"X": [float(x) for x in np.asarray(el.X).ravel()],
            "v": [float(x) for x in np.asarray(el.v)]}
