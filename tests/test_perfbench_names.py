"""The benchmark harness's hold on the package: every name the files of
`perfbench/` import from `dqcemu`, and every attribute they read of a
`dqcemu` module (`engine.shot_rng`, `channel.establish`, ...), must
resolve, so deleting code the harness calls fails here and not only in a
benchmark run. The harness files are parsed, never imported or run."""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def resolve(module: str, name: str):
    """`from module import name`: a submodule, or else the module's
    attribute (None where it has none)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def package_names(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each name the file imports from a `dqcemu`
    module and each attribute it reads of a name bound to one."""
    tree, bound, names = ast.parse(path.read_text(), str(path)), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dqcemu":
            for alias in node.names:
                names.append((node.module, alias.name))
                value = resolve(node.module, alias.name)
                if isinstance(value, ModuleType):
                    bound[alias.asname or alias.name] = value.__name__
        elif isinstance(node, ast.Import):
            bound.update((alias.asname, alias.name) for alias in node.names
                         if alias.asname and alias.name.split(".")[0] == "dqcemu")
    names += [(bound[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return names


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_harness_uses_resolves(path):
    missing = [f"{module}.{name}" for module, name in package_names(path)
               if resolve(module, name) is None]
    assert not missing, f"{path.name} uses names the package no longer has: {missing}"


def test_the_harness_names_are_found():
    """The parse sees the names the layer rows pin, imported and read."""
    names = set(package_names(PERFBENCH / "layers.py"))
    assert {("dqcemu.statevector", "measure_qubit"), ("dqcemu.statevector", "StateVector"),
            ("dqcemu.engine", "shot_rng"), ("dqcemu.engine", "run_shot_loop"),
            ("dqcemu.channel", "establish"), ("dqcemu.executor", "execute_merged")} <= names
