"""The frozen harness's import surface still resolves.

Tier-1 never runs ``bench/`` (it is not on ``testpaths`` and its files may
not change), so a PR that deletes or renames a name the harness imports
would break the benchmark silently. This walks ``bench/*.py`` and checks
every ``from repro.<pkg> import <name>`` against the live package.
"""

import ast
import importlib
import pathlib

import pytest

HARNESS_DIR = pathlib.Path(__file__).resolve().parents[2] / "bench"

def harness_imports():
    """Every ``(module, name)`` the harness takes from ``repro``.

    Hard ``from repro.<pkg> import <name>`` statements, and the soft
    ``soft_import("repro.<mod>", "<name>")`` probes: those may vanish (the
    metric then reads *unmeasured*), but a PR that drops one should do so
    knowingly.
    """
    found = set()
    for path in sorted(HARNESS_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.ImportFrom)
                and node.level == 0
                and (node.module or "").split(".")[0] == "repro"
            ):
                found.update((node.module, alias.name) for alias in node.names)
            elif (
                isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "soft_import"
            ):
                found.add(tuple(ast.literal_eval(arg) for arg in node.args))
    return sorted(found)


def test_the_walk_finds_the_harness():
    found = harness_imports()
    assert ("repro.emulation.columnar", "build_world") in found
    assert "repro.api" in {module for module, _ in found}


@pytest.mark.parametrize("module,name", harness_imports())
def test_name_resolves(module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"bench/ imports {name} from {module}, which no longer provides it"
    )
