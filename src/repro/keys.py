"""One derived key for every cache and checkpoint.

A cache may only return a result computed under the same inputs, so
every cache key in the package comes from :func:`derive_key`, called by
the cache itself on the objects that shape the result.  A dataclass is
encoded as its qualified class name plus every field in declaration
order, recursively; a new field therefore enters every key that covers
its class with no other edit.  The one way to leave a field out is to
declare it with :func:`key_exempt` and say why it can never change a
result — the reason is required when the class is defined.

The encoding is canonical and type-tagged: ``1``, ``1.0``, ``"1"`` and
``True`` differ; lists and tuples of equal items agree; dict keys are
sorted; floats are bit-exact; numpy arrays hash their dtype, shape and
bytes.  Anything without a canonical form — a set (hash-order
iteration), or an arbitrary object whose ``repr`` may carry an address —
raises :class:`TypeError` instead of producing a key that silently
differs per process.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Iterator, Tuple

__all__ = ["derive_key", "key_exempt"]

#: Field-metadata entry holding the reason a field is left out of keys.
_EXEMPT = "key_exempt"


def key_exempt(why: str, **kwargs: Any) -> Any:
    """A dataclass field that :func:`derive_key` leaves out.

    ``why`` must say why the field can never change a keyed result
    (e.g. a memoization handle); an empty reason raises
    :class:`ValueError` when the class body runs.  ``kwargs`` go to
    :func:`dataclasses.field` unchanged.
    """
    if not str(why).strip():
        raise ValueError(
            "key_exempt() needs a reason: say why this field can never "
            "change a cached result"
        )
    return dataclasses.field(metadata={_EXEMPT: str(why)}, **kwargs)


def derive_key(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical encoding."""
    h = hashlib.sha256()
    _encode(h, obj)
    return h.hexdigest()


def _keyed_fields(obj: Any) -> Iterator[Tuple[str, Any]]:
    """``(name, value)`` of every non-exempt field, in declaration order."""
    for f in dataclasses.fields(obj):
        if _EXEMPT not in f.metadata:
            yield f.name, getattr(obj, f.name)


def _encode(h, value: Any) -> None:
    """Feed ``value`` into the hash in a type-tagged canonical form."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, bool):
        h.update(b"B1" if value else b"B0")
    elif isinstance(value, int):
        h.update(b"I" + repr(value).encode() + b";")
    elif isinstance(value, float):
        # repr round-trips doubles exactly.  Coerced first: np.float64 is
        # a float subclass but reprs as "np.float64(…)".
        h.update(b"F" + repr(float(value)).encode() + b";")
    elif isinstance(value, str):
        data = value.encode("utf-8")
        h.update(b"S" + repr(len(data)).encode() + b":" + data)
    elif isinstance(value, bytes):
        h.update(b"Y" + repr(len(value)).encode() + b":" + value)
    elif isinstance(value, (list, tuple)):
        h.update(b"L" + repr(len(value)).encode() + b":")
        for item in value:
            _encode(h, item)
    elif isinstance(value, dict):
        h.update(b"D" + repr(len(value)).encode() + b":")
        for key in sorted(value, key=repr):
            _encode(h, key)
            _encode(h, value[key])
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        h.update(b"C")
        _encode(h, type(value).__qualname__)
        for name, item in _keyed_fields(value):
            _encode(h, name)
            _encode(h, item)
        h.update(b";")
    elif hasattr(value, "dtype") and hasattr(value, "tobytes"):
        # numpy array or scalar (duck-typed so this module never imports
        # numpy unless it is handed an array)
        import numpy as np

        h.update(b"A" + str(value.dtype).encode())
        h.update(repr(tuple(np.shape(value))).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        raise TypeError(
            f"derive_key: {type(value).__qualname__} has no canonical "
            "form (sets iterate in hash order; make it a frozen dataclass "
            "or pass a sorted tuple)"
        )
