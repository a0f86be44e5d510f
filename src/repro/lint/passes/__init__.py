"""Built-in lint passes and their registry.

Importing this package is side-effect free; :func:`load_builtin_passes`
imports every built-in rule module exactly once, which registers each
pass class via the :func:`~repro.lint.passes.base.register` decorator.
Third-party or test-local passes can call ``register`` directly.
"""

from __future__ import annotations

from .base import LintPass, register, registered_passes

__all__ = ["LintPass", "load_builtin_passes", "register", "registered_passes"]

_LOADED = False


def load_builtin_passes() -> None:
    """Import (and thereby register) every built-in rule module."""
    global _LOADED
    if _LOADED:
        return
    from . import (  # noqa: F401  (imported for registration side effect)
        global_rng,
        pool_safety,
        seed_flow,
        typed_errors,
        unordered_iter,
        wall_clock,
    )

    _LOADED = True
