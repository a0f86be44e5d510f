"""Fixture: keyed dataclasses that must pass cache-key-soundness."""

import hashlib
from dataclasses import dataclass, field, fields
from typing import Dict, Optional


@dataclass
class ExemptKeyed:
    """Complete key; `cache_handle` is exempted in the fixture config."""

    name: str
    scale: float
    cache_handle: Optional[object] = field(default=None, repr=False)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(repr(self.scale).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class FieldsEnumerated:
    """Complete by construction: to_dict() enumerates fields()."""

    alpha: float = 1.0
    beta: float = 2.0

    def to_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
