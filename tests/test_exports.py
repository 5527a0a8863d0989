"""The export lists match what each module defines."""

import importlib
import inspect
import pkgutil

import pytest

import zpdistill

# A module without __all__ (errors) exports every public name through
# `import *` already, so there is no list to check.
_SUBMODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(zpdistill.__path__)
    if info.name != "__main__"
    and hasattr(importlib.import_module(f"zpdistill.{info.name}"), "__all__")
)


@pytest.mark.parametrize("name", _SUBMODULES)
def test_public_functions_and_classes_are_exactly_all(name):
    module = importlib.import_module(f"zpdistill.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    exported = [attr for attr in module.__all__ if not attr.startswith("__")]
    assert len(exported) == len(set(exported))
    assert all(hasattr(module, attr) for attr in exported)
    listed = {
        attr for attr in exported
        if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
    }
    assert listed == defined


def test_package_all_resolves():
    assert len(zpdistill.__all__) == len(set(zpdistill.__all__))
    for attr in zpdistill.__all__:
        assert hasattr(zpdistill, attr), attr


def test_package_all_is_exactly_its_public_bindings():
    # An export dropped from the import block or from __all__ but not the
    # other fails here.
    bound = {
        attr
        for attr, obj in vars(zpdistill).items()
        if not attr.startswith("_") and not inspect.ismodule(obj)
    }
    assert set(zpdistill.__all__) - {"__version__"} == bound
