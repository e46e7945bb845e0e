"""Every package under ``repro`` exports only names that exist."""

import importlib
import pkgutil

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    if info.ispkg
)


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    package = importlib.import_module(name)
    for export in package.__all__:
        if not hasattr(package, export):
            # A submodule, which ``from package import *`` imports.
            importlib.import_module(f"{name}.{export}")
