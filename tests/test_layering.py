"""The package layering runs one way: the engine (kernels -> eigenbasis ->
lti -> lfm -> filtering -> learn) imports nothing from the applications, the
baselines, the CLI or the config schemas, and `filtering` does not import
`lfm`.  Every pass takes its transitions from a `lfm.step_cycle` through
`lfm.pass_steps`, so no pass bypasses the cycle.  Checked on the source with
`ast`, so no module is imported."""

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


STEP_BUILDERS = {"discretize", "constant_weight_transition", "make_constant_step_plan"}


def _step_builder_uses() -> set[tuple[str, str, str]]:
    """(file, enclosing top-level function, builder) for every reference to a
    step builder in the package, by bare name or as an attribute, so a call
    through an alias or `functools.partial` counts too."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name in STEP_BUILDERS:
                    where = getattr(top, "name", "<module>")
                    found.add((str(path.relative_to(PACKAGE)), where, name))
    return found


def test_only_step_cycle_builds_steps():
    uses = _step_builder_uses()
    assert ("lfm.py", "step_cycle", "discretize") in uses  # the walk sees references
    # a constant-weight batch builds its own plan when none is given
    allowed = {("lfm.py", "constant_weight_transition", "make_constant_step_plan")}
    assert {u for u in uses if u[:2] != ("lfm.py", "step_cycle")} <= allowed
