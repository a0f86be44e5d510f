"""Process-stable seed derivation from text.

``hash(str)`` is salted per interpreter process (``PYTHONHASHSEED``),
so a seed like ``hash(name) ^ base_seed`` draws *different* values in
every run and in every pool worker started under a different salt, so
``repro lint``'s ``wall-clock`` rule flags every ``hash()`` call.
These helpers are the sanctioned replacement: same text, same seed, in
every process, forever.
"""

from __future__ import annotations

import zlib

__all__ = ["stable_text_seed"]

#: Knuth's multiplicative constant, used to decorrelate the numeric salt
#: from the text digest (same mixing the call sites already used).
_GOLDEN = 0x9E3779B9


def stable_text_seed(text: str, salt: int = 0) -> int:
    """A 32-bit seed derived from ``text`` and ``salt``, process-stable.

    CRC-32 of the UTF-8 text, mixed with the salt; unlike ``hash()``
    it does not depend on the interpreter's per-process hash salt.
    """
    digest = zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF
    return digest ^ ((salt * _GOLDEN) & 0xFFFFFFFF)
