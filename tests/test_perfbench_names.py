"""The benchmark harness's hold on the package: every name the files of
`perfbench/` import from `dqcemu`, and every attribute they read of a
`dqcemu` module (`engine.shot_rng`, `channel.establish`, ...), must
resolve, so deleting code the harness calls fails here and not only in a
benchmark run. The same holds for the Python scripts the CI workflow
feeds to `python3 - <<'EOF'`. The files and scripts are parsed, never
imported or run."""

import ast
import importlib
import itertools
import textwrap
from pathlib import Path
from types import ModuleType

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def resolve(module: str, name: str):
    """`from module import name`: a submodule, or else the module's
    attribute (None where it has none)."""
    try:
        return importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), name, None)


def package_names(source: str, filename: str) -> list[tuple[str, str]]:
    """(module, name) for each name the Python `source` imports from a
    `dqcemu` module and each attribute it reads of a name bound to one."""
    tree, bound, names = ast.parse(source, filename), {}, []
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


def heredoc_scripts(text: str) -> list[str]:
    """The Python scripts a workflow's steps feed to `python3 - <<'EOF'`,
    each the lines up to its `EOF`, dedented."""
    scripts, lines = [], iter(text.splitlines())
    for line in lines:
        if line.strip() == "python3 - <<'EOF'":
            body = itertools.takewhile(lambda line: line.strip() != "EOF", lines)
            scripts.append(textwrap.dedent("\n".join(body)))
    return scripts


SCRIPTS = heredoc_scripts(WORKFLOW.read_text())


def assert_names_resolve(source: str, filename: str) -> None:
    missing = [f"{module}.{name}" for module, name in package_names(source, filename)
               if resolve(module, name) is None]
    assert not missing, f"{filename} uses names the package no longer has: {missing}"


@pytest.mark.parametrize("path", sorted(PERFBENCH.glob("*.py")), ids=lambda p: p.name)
def test_every_package_name_the_harness_uses_resolves(path):
    assert_names_resolve(path.read_text(), path.name)


@pytest.mark.parametrize("index", range(len(SCRIPTS)))
def test_every_package_name_a_ci_script_uses_resolves(index):
    assert_names_resolve(SCRIPTS[index], f"{WORKFLOW.name} script {index}")


def test_the_ci_scripts_names_are_found():
    """The parse finds the workflow's scripts and the names they import."""
    names = {n for i, script in enumerate(SCRIPTS) for n in package_names(script, str(i))}
    assert len(SCRIPTS) >= 3
    assert {("dqcemu", "engine"), ("dqcemu.client", "get_qpus"),
            ("dqcemu.algorithms", "build_ipea_chain"), ("dqcemu.engine", "run_branched"),
            ("dqcemu.circuit", "Circuit")} <= names


def test_the_harness_names_are_found():
    """The parse sees the names the layer rows pin, imported and read."""
    path = PERFBENCH / "layers.py"
    names = set(package_names(path.read_text(), path.name))
    assert {("dqcemu.statevector", "measure_qubit"), ("dqcemu.statevector", "StateVector"),
            ("dqcemu.engine", "shot_rng"), ("dqcemu.engine", "run_shot_loop"),
            ("dqcemu.channel", "establish"), ("dqcemu.executor", "execute_merged")} <= names
