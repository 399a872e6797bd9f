"""The package layering runs one way: the engine (kernels -> eigenbasis ->
lti -> lfm -> filtering -> learn) imports nothing from the applications, the
baselines, the CLI or the config schemas, and `filtering` does not import
`lfm`.  Every pass takes its transitions from a `lfm.step_cycle` through
`lfm.pass_steps`, so no pass bypasses the cycle.  Only `apps/synth.py`
builds the applications' daily prior.  Every public name is
reached from the package itself or kept by a named oracle or paper claim.
Checked on the source with `ast`, so no module is imported."""

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
    # a constant-weight batch builds its own plan
    allowed = {("lfm.py", "constant_weight_transition", "make_constant_step_plan")}
    assert {u for u in uses if u[:2] != ("lfm.py", "step_cycle")} <= allowed


DAILY_PRIOR = {"PeriodicMatern", "build", "periodic_force", "cqm_force", "sqm_force", "wqm_force"}


def test_apps_build_the_daily_prior_once():
    # both applications take their daily basis and periodic roster from
    # `synth.daily_basis` and `synth.periodic_roster`, so no app module but
    # synth names the kernel, the basis builder or a periodic force builder
    uses = {}
    for path in sorted((PACKAGE / "apps").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in DAILY_PRIOR:
                uses.setdefault(path.name, set()).add(name)
    assert {f: names for f, names in uses.items() if f != "synth.py"} == {}
    assert uses["synth.py"] == DAILY_PRIOR  # the walk sees references


# public names that no src line uses, with the oracle or paper claim that keeps each
TEST_ONLY = {
    "DenseGp": "the dense-GP oracle that the state-space results are checked against",
    "gp_regress": "oracle posterior moments (test_hartikainen_equivalence_small)",
    "log_marginal_likelihood": "oracle evidence (test_force_only_loglik_matches_dense_gp)",
    "stationary_lfm_kernel": "oracle kernel of a non-periodic LFM (test_hartikainen_equivalence_small)",
    "periodic_force_row": "reads a force out of the state: the per-step H of the force-only oracle",
    "resonator_fit": "the rival resonator baseline (Sarkka 2012; Hartikainen 2012)",
}


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def _annotation_nodes(tree: ast.Module) -> set[int]:
    """ids of every node inside a type annotation: a hint is not a use."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            hints = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            args = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            hints = [node.returns] + [arg.annotation for arg in args if arg is not None]
        else:
            continue
        found |= {id(n) for hint in hints if hint is not None for n in ast.walk(hint)}
    return found


def _unreached() -> dict[str, list[str]]:
    """Names in some module's `__all__` that no src line uses, with the files
    that export them.  A use is a bare name or an attribute outside any type
    annotation and outside the name's own definition (recursion is not a
    use); imports and `__all__` strings re-export, they do not use."""
    exports, users = {}, {}
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = str(path.relative_to(PACKAGE))
        for name in _exports(tree):
            exports.setdefault(name, []).append(rel)
        hints = _annotation_nodes(tree)
        for top in tree.body:
            for node in ast.walk(top):
                if id(node) in hints:
                    continue
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                users.setdefault(name, set()).add(getattr(top, "name", None))
    return {
        name: files for name, files in exports.items()
        if not users.get(name, set()) - {name}
    }


def test_public_names_are_reached():
    unreached = _unreached()
    assert "log_marginal_likelihood" in unreached  # the walk sees test-only names
    assert set(TEST_ONLY) <= set(unreached)  # the list names only unused code
    assert {n: f for n, f in unreached.items() if n not in TEST_ONLY} == {}
