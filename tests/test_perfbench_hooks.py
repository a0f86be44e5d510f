"""The traced benchmark's entry points still exist where it looks for them.

``perfbench.layers.installed()`` wraps each ``TARGETS`` entry by name: a
method through ``Class.__dict__[attr]`` (so it must be defined on that
class, not inherited), a function through ``getattr(module, attr)``.  A
refactor that moves one of them breaks traced benchmark runs only, which
the unit suite would not otherwise notice.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import layers  # noqa: E402


def _owner(owner_path):
    module_name, _, class_name = owner_path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _lookup(owner, attr):
    """The entry point exactly as ``installed()`` looks it up."""
    if isinstance(owner, type):
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


@pytest.mark.parametrize(
    "layer, owner_path, attr",
    [(layer, owner, attr) for layer, owner, attr, _ in layers.TARGETS],
    ids=[f"{owner}.{attr}" for _, owner, attr, _ in layers.TARGETS],
)
def test_target_resolves(layer, owner_path, attr):
    target = _lookup(_owner(owner_path), attr)
    assert callable(target), f"{layer}: {owner_path} defines no {attr}"


def test_installed_wraps_and_restores_every_target():
    targets = [(_owner(owner), attr) for _, owner, attr, _ in layers.TARGETS]
    originals = [_lookup(owner, attr) for owner, attr in targets]
    with layers.installed():
        for (owner, attr), original in zip(targets, originals):
            assert _lookup(owner, attr) is not original, attr
    for (owner, attr), original in zip(targets, originals):
        assert _lookup(owner, attr) is original, attr
