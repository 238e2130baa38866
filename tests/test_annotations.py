"""Every annotation in the package resolves to a defined type."""

import importlib
import inspect
import pkgutil
import typing

import pytest

import gupbell

MODULES = sorted(f"gupbell.{info.name}" for info in pkgutil.iter_modules(gupbell.__path__))


def _defined_in(module):
    """The functions and classes a module defines, and the classes' methods."""
    for value in vars(module).values():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) or inspect.isclass(value):
            yield value
        if inspect.isclass(value):
            for attr in vars(value).values():
                attr = getattr(attr, "__func__", attr)  # a classmethod or staticmethod
                if inspect.isfunction(attr):
                    yield attr


@pytest.mark.parametrize("name", ["gupbell"] + MODULES)
def test_every_annotation_resolves(name):
    # a name imported only for a type checker would raise NameError here
    module = importlib.import_module(name)
    unresolved = []
    for obj in _defined_in(module):
        try:
            typing.get_type_hints(obj)
        except NameError as exc:
            unresolved.append(f"{obj.__qualname__}: {exc}")
    assert unresolved == []
