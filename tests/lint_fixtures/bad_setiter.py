"""Fixture: set iteration inside key functions (unordered-iteration)."""

import hashlib


class Keyed:
    def __init__(self, tags, parts):
        self.tags = tags
        self.parts = parts

    def context_for(self):
        h = hashlib.sha256()
        for tag in {t.lower() for t in self.tags}:  # line 13: setcomp loop
            h.update(tag.encode())
        return h.hexdigest()

    def key_for(self):
        return "|".join({str(p) for p in self.parts})  # line 18: join(set)

    def to_dict(self):
        return {"parts": list(set(self.parts))}  # line 21: list(set)

    def as_dict(self):
        # sorted() restores deterministic order: must NOT fire.
        return {"parts": [str(p) for p in sorted(set(self.parts))]}

    def unrelated_helper(self):
        # Not a key function: set iteration here is fine.
        return [p for p in {1, 2, 3}]
