"""The base class of every module's input error, and the one config field check.

Catching ``FringeDenoiseError`` tells refused input apart from a bug."""

import dataclasses
import math
import sys


class FringeDenoiseError(ValueError):
    """Refused input: a bad file, configuration or argument (a ``ValueError`` too)."""


def is_int(value, least: float = 0) -> bool:
    """True for an integer (not a boolean) of at least ``least``."""
    return type(value) is int and value >= least


def is_number(value) -> bool:
    """True for an int or float (not a boolean) that is a finite float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


# Annotation, as written in the dataclass body -> (check, description).
_RULES = {
    "int": (lambda v: is_int(v, -math.inf), "an integer"),
    "float": (is_number, "a finite number"),
    "tuple[float, float]": (
        lambda v: type(v) is tuple and len(v) == 2 and all(map(is_number, v)),
        "a pair of finite numbers",
    ),
}


def check_fields(obj) -> None:
    """Raise ``TypeError`` for the first field of dataclass ``obj`` whose
    value does not match its annotation.

    ``int`` takes only an ``int`` itself, ``float`` a finite int or float,
    and ``tuple[float, float]`` a tuple of two such numbers.  No value is
    converted, so the stored value is the given one.  Fields with other
    annotations (strings, nested configurations) are checked by their
    owners.  Annotations are matched as written, so the defining module
    uses ``from __future__ import annotations``.
    """
    for f in dataclasses.fields(obj):
        if f.type not in _RULES:
            continue
        ok, what = _RULES[f.type]
        value = getattr(obj, f.name)
        if not ok(value):
            raise TypeError(f"{f.name} must be {what}, got {value!r}")
