"""Shape checks for JSON input.

Loaders call ``expect`` on each value whose JSON type they rely on, so a
malformed file is refused with the loader's own error, a ValueError that
the command line reports as an input error, and never with a TypeError
from deeper down.
"""

from __future__ import annotations

_NAMES = {
    dict: "object",
    list: "array",
    str: "string",
    int: "integer",
    float: "number",
    bool: "boolean",
    type(None): "null",
}


def expect(value, kind: type, what: str, error: type[ValueError]):
    """Return ``value`` if it is of the JSON type ``kind``, else raise ``error``."""
    if not isinstance(value, kind):
        found = _NAMES.get(type(value), type(value).__name__)
        raise error(f"{what} must be a JSON {_NAMES[kind]}, not {found}")
    return value
