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
        raise ValueError(f"{name} must be an integer >= {minimum}{upper}, got {_shown(value)}")
    return value


# A rejected value whose repr is longer than this is shown by its start and length.
_SHOWN_CHARS = 40


def _shown(value) -> str:
    """repr(value), or for a long one its first characters and its digit or character count.

    An int's digits are counted without converting it to text, which
    Python refuses beyond 4300 digits.
    """
    if type(value) is int:
        size = abs(value)
        digits = max(1, int(size.bit_length() * math.log10(2)))  # the count or one less
        while size >= 10**digits:
            digits += 1
        if digits <= _SHOWN_CHARS:
            return repr(value)
        return f"{'-' * (value < 0)}{size // 10 ** (digits - 12)}... ({digits} digits)"
    text = repr(value)
    if len(text) <= _SHOWN_CHARS:
        return text
    return f"{text[:12]}... ({len(text)} characters)"


def _real(name: str, value) -> float:
    """value as a Python float; booleans and non-numbers are rejected.

    The float counterpart of ``_integer``: numpy scalars are stored as float.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range; its digits are not repeated
        raise ValueError(f"{name} is too large for a float") from None


def _json_integral(value):
    """value, except that an integral float such as 4.0 is an int: the rule of integer fields."""
    return int(value) if isinstance(value, float) and value.is_integer() else value


def _json_int(name: str, value, *bounds) -> int:
    """An integer JSON field under the integer rule, after ``_json_integral``."""
    return _integer(name, _json_integral(value), *bounds)


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
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:  # an int beyond the float range; its digits are not repeated
        raise ValueError(f"{name} holds a number too large for a float") from None


def format_float(x, row: str | None = None) -> str:
    """x in 17 significant digits, -0.0 as "0"; a non-finite x raises ValueError.

    The one float rule is "%.17g" % (x + 0.0).  With a row template, x is a
    sequence of equal-length arrays, one per ``{}`` field of row, and the
    result is their text: a line per position, row with each field filled
    in from its column, a float by the same rule and an integer or boolean
    in decimal.  The first non-finite float, column by column, raises the
    scalar's message.
    """
    if row is not None:
        # The whole text in one % operation, each float as the scalar writes it.
        values = [None] * (len(x) * len(x[0]))
        fields = row.replace("%", "%%").split("{}")
        line = fields[0]
        for k, (column, text) in enumerate(zip(x, fields[1:])):
            if column.dtype.kind == "f":
                finite = np.isfinite(column)
                if not finite.all():
                    format_float(float(column[~finite][0]))  # raises the scalar's message
                column = column + 0.0
                line += "%.17g" + text
            else:
                line += "%d" + text
            values[k :: len(x)] = column.tolist()
        return "\n".join([line] * len(x[0])) % tuple(values)
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"cannot serialize non-finite float {x}")
    return "%.17g" % (x + 0.0)  # -0.0 + 0.0 is +0.0, and every other value is unchanged


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
