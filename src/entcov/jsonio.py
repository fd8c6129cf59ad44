"""JSON emission with 17-significant-digit floats.

17 significant decimal digits determine a double uniquely, so files
written here parse back bit-identically and re-serialize to the same
text.  Parsing is plain json.
"""

from __future__ import annotations

import json
import math

import numpy as np

loads = json.loads


def _integer(name: str, value, minimum: int, maximum: float = math.inf) -> int:
    """value as a Python int; booleans, non-integers and values out of range are rejected.

    The package's one integer rule, shared by constructors, generators,
    stream addresses, JSON loaders and CLI options.
    """
    if isinstance(value, np.integer):
        value = int(value)
    if type(value) is not int or not minimum <= value <= maximum:  # bool is not int here
        upper = f" and <= {maximum}" if maximum < math.inf else ""
        raise ValueError(f"{name} must be an integer >= {minimum}{upper}, got {value!r}")
    return value


def _json_int(name: str, value, *bounds) -> int:
    """An integer JSON field under the integer rule; an integral float such as 4.0 is an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return _integer(name, value, *bounds)


def _json_floats(name: str, value) -> np.ndarray:
    """A numeric field of parsed JSON (an array, possibly nested) as floats.

    Booleans, strings and null are rejected rather than coerced to numbers.
    """

    def check(item) -> None:
        if isinstance(item, (list, tuple)):
            for x in item:
                check(x)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{name} must hold only numbers, got {item!r}")

    check(value)
    return np.asarray(value, dtype=float)


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    if x == 0.0:  # canonicalize -0.0 so the text round-trips
        return "0"
    return format(x, ".17g")


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars with a 2-space indent; floats get 17 significant digits."""
    pieces: list[str] = []
    _write(obj, pieces, 0)
    return "".join(pieces)


def _write(obj, out: list[str], level: int) -> None:
    if isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        items = [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()]
        _write_items(items, "{", "}", out, level)
    elif isinstance(obj, (list, tuple)):
        _write_items([("", v) for v in obj], "[", "]", out, level)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_items(items, open_b, close_b, out, level) -> None:
    if not items:
        out.append(open_b + close_b)
        return
    inner = "\n" + "  " * (level + 1)
    out.append(open_b + inner)
    for k, (prefix, value) in enumerate(items):
        if k:
            out.append("," + inner)
        out.append(prefix)
        _write(value, out, level + 1)
    out.append("\n" + "  " * level + close_b)
