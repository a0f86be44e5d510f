"""Fixture: keyed dataclasses with incomplete keys (cache-key-soundness)."""

import hashlib
from dataclasses import dataclass, field


@dataclass(frozen=True)
class IncompleteKeyed:
    """`threshold` was added later and fingerprint() forgot it."""

    name: str
    scale: float
    threshold: float = 0.5  # NOT hashed below -> stale cache hits

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.name.encode())
        h.update(repr(self.scale).encode())
        return h.hexdigest()


@dataclass(frozen=True)
class HiddenReprField:
    """repr()-keyed, but one field opts out of repr."""

    name: str
    budget: int = field(default=0, repr=False)  # invisible to repr() keys
