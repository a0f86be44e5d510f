"""Built-in whole-program analysis passes.

Importing this package registers every built-in pass with the analysis
registry (mirroring :mod:`repro.lint.passes`).
"""

from __future__ import annotations

from .base import AnalysisPass, register_analysis_pass, registered_analysis_passes

__all__ = [
    "AnalysisPass",
    "load_builtin_analysis_passes",
    "register_analysis_pass",
    "registered_analysis_passes",
]

_LOADED = False


def load_builtin_analysis_passes() -> None:
    """Import every built-in pass module exactly once."""
    global _LOADED
    if _LOADED:
        return
    from . import purity, seed_flow  # noqa: F401

    _LOADED = True
