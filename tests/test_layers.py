"""The package's layers import only downward.

``docs/architecture.md`` stacks the package from technology up to the
CLI.  The model and measurement layers sit below the runtime, the
experiment registry and the CLI, so none of their modules may import
those packages — neither at module level nor lazily inside a function.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The model and measurement layers.
LOWER_LAYERS = ("technology", "devices", "analog", "core", "signal", "evaluation")

#: Packages above them.
UPPER = ("repro.runtime", "repro.experiments", "repro.cli")


def _imported_modules(path: Path, root: Path = PACKAGE) -> list[tuple[int, str]]:
    """Every module an import statement in ``path`` names, with its line.

    ``root`` is the ``repro`` package directory ``path`` lives under.
    """
    package = path.relative_to(root.parent).parent.parts
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package[: len(package) - node.level + 1]
                base = ".".join([*parent, base] if base else parent)
            # ``from repro import runtime`` names the submodule itself.
            found.extend((node.lineno, f"{base}.{alias.name}") for alias in node.names)
            found.append((node.lineno, base))
    return found


def _is_upper(module: str) -> bool:
    return any(module == top or module.startswith(f"{top}.") for top in UPPER)


@pytest.mark.parametrize("layer", LOWER_LAYERS)
def test_lower_layers_do_not_import_upward(layer):
    modules = sorted((PACKAGE / layer).rglob("*.py"))
    assert modules, layer
    upward = [
        f"{path.relative_to(PACKAGE)}:{line}: {module}"
        for path in modules
        for line, module in _imported_modules(path)
        if _is_upper(module)
    ]
    assert upward == []


def test_scan_sees_lazy_and_relative_imports(tmp_path):
    probe = tmp_path / "repro" / "core" / "probe.py"
    probe.parent.mkdir(parents=True)
    probe.write_text(
        "def late():\n"
        "    from repro.runtime.batch import BatchRunner\n"
        "    from ..experiments import registry\n"
        "    from repro import cli\n"
        "    import repro.signal\n"
    )
    upward = [
        module
        for _, module in _imported_modules(probe, tmp_path / "repro")
        if _is_upper(module)
    ]
    assert "repro.runtime.batch" in upward
    assert "repro.experiments.registry" in upward
    assert "repro.cli" in upward
    assert not any(module.startswith("repro.signal") for module in upward)
