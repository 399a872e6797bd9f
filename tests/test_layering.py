"""The package layering runs one way: the engine (kernels -> eigenbasis ->
lti -> lfm -> filtering -> learn) imports nothing from the applications, the
baselines, the CLI or the config schemas, and `filtering` does not import
`lfm`.  Checked on the source with `ast`, so no module is imported."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eigenlfm"
ENGINE = ("kernels", "eigenbasis", "lti", "lfm", "filtering", "learn")
OUTER = {"apps", "baselines", "cli", "config"}


def _imports(module: str) -> set[str]:
    """Top-level eigenlfm modules and packages that a top-level module imports,
    at any depth of its source (function-level imports included)."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        elif isinstance(node, ast.ImportFrom):
            # relative to the package itself: ".x" or "from . import x"
            names = [f"eigenlfm.{node.module}"] if node.module else [
                f"eigenlfm.{a.name}" for a in node.names
            ]
        else:
            continue
        found |= {n.split(".")[1] for n in names if n.startswith("eigenlfm.")}
    return found


def test_filtering_does_not_import_lfm():
    assert {"eigenbasis", "lti", "filtering"} <= _imports("lfm")  # the parser sees imports
    assert "lfm" not in _imports("filtering")


@pytest.mark.parametrize("module", ENGINE)
def test_engine_imports_no_outer_layer(module):
    assert not _imports(module) & OUTER
