"""Deterministic JSON/CSV emission with round-trip-exact floats.

Floats are rendered with 17 significant digits, which reproduces the exact
double on re-parse; keys are emitted sorted and lines end with LF, so equal
inputs serialize to byte-identical documents.
"""

from __future__ import annotations

import csv
import dataclasses
import json

import numpy as np

from .design import BoundReport, LqgSolution, PolicyBundle
from .model import CostWeights, LinearSystem, NominalMoments
from .riccati import SteadyStateSolution

__all__ = [
    "format_float",
    "dumps_json",
    "write_json",
    "write_csv",
    "steady_to_dict",
    "steady_from_dict",
    "bound_to_dict",
    "bound_from_dict",
    "bundle_to_dict",
    "bundle_from_dict",
]


def format_float(x):
    """17-significant-digit decimal form; always parses back as a float."""
    x = float(x)
    if not np.isfinite(x):
        raise ValueError("cannot serialize non-finite float %r" % x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    text = format(x, ".17g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _render(obj, indent):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            items.append('%s  "%s": %s' % (pad, key, _render(obj[key], indent + 1)))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        items = ["%s  %s" % (pad, _render(v, indent + 1)) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(obj)
    if isinstance(obj, np.ndarray):
        return _render(obj.tolist(), indent)
    raise TypeError("cannot serialize %r" % type(obj))


def dumps_json(obj):
    return _render(obj, 0) + "\n"


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_json(obj))


def write_csv(path, header, rows):
    """CSV with LF endings, '.' decimals, 17-significant-digit floats and minimal quoting."""
    def cell(v):
        if v is None:
            return ""
        if isinstance(v, bool):
            return str(v).lower()
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return format_float(v)
        return str(v)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([cell(v) for v in row] for row in rows)


# Field name -> class for the dataclasses nested in a PolicyBundle.
_NESTED = {"system": LinearSystem, "weights": CostWeights, "nominal": NominalMoments,
           "steady": SteadyStateSolution, "lqg": LqgSolution}


def _to_dict(obj):
    """Dataclass -> dict keyed by field name; arrays become nested lists of
    floats and nested dataclasses recurse."""
    out = {}
    for field in dataclasses.fields(obj):
        value = getattr(obj, field.name)
        if dataclasses.is_dataclass(value):
            value = _to_dict(value)
        elif isinstance(value, np.ndarray):
            value = np.asarray(value, dtype=float).tolist()
        elif isinstance(value, dict):
            value = dict(value)
        out[field.name] = value
    return out


def _from_dict(cls, d):
    """Inverse of ``_to_dict``: lists become float arrays, numbers floats, and
    dicts the nested class named in ``_NESTED`` (plain dicts otherwise)."""
    kwargs = {}
    for field in dataclasses.fields(cls):
        value = d[field.name]
        if isinstance(value, list):
            value = np.array(value, dtype=float)
        elif isinstance(value, (int, float)):
            value = float(value)
        elif isinstance(value, dict):
            nested = _NESTED.get(field.name)
            value = dict(value) if nested is None else _from_dict(nested, value)
        kwargs[field.name] = value
    return cls(**kwargs)


steady_to_dict = bound_to_dict = bundle_to_dict = _to_dict


def steady_from_dict(d):
    return _from_dict(SteadyStateSolution, d)


def bound_from_dict(d):
    return _from_dict(BoundReport, d)


def bundle_from_dict(d):
    return _from_dict(PolicyBundle, d)
