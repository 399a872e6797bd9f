"""The package layering runs one way: the engine (pade -> kernels ->
eigenbasis -> lti -> lfm -> filtering -> learn) imports nothing from the
applications, the baselines, the CLI or the config schemas, and `filtering`
does not import `lfm`.  Every pass takes its cycle slots and changepoint
steps from `lfm.pass_schedule` alone, and only `lfm` computes a changepoint
schedule or a cycle length.  Every pass over a fixed model reads its
transitions from the one `lfm.step_cycle(model, dt)` from t = 0 at those
slots, so no such pass bypasses the cycle, and only the cycle computes the
input term (`_input_response`); the queue, whose drift is relinearized
every step, reads its (G, Q) at the same slots from the one other builder
a pass may call, `lfm.relinearized_steps`.  Both step integrators take
their node rows from `lfm._node_rows`, only `lfm` builds the quadrature
rule, and no application but `synth` imports `eigenbasis`.  No
pass forms a covariance outside `filtering`: only `filtering.update` restores
its symmetry (`_symmetrize`), and the Kalman loop exists once: the queue
and thermal filters (the thermal roster holds the resonator baseline) are
calls to `filtering.kalman_pass`, and no module outside `filtering` calls `predict` or `update`.  Every name imported
into a module is used there.  Only `apps/synth.py` builds the applications'
daily prior.  The particle streams are drawn only by
`filtering.particle_draws`, which only the thermal prediction calls.  One
weight-space regression (`baselines.comparison.linear_regress`)
scores both linear bases, so the only Cholesky factor beside the Kalman
layer's is its own.  Kernel matrices are built only by `eigenbasis` (the
Gram and the bounded blocks of eigenfunction rows) and by the basis
comparison's true covariance.  Every public name is listed in its module's
`__all__` and used in the package itself, and every dataclass field of an
engine type is read there: what only a test reaches lives in `tests/`.
No module takes another module's underscore name, by import or as an
attribute of an imported module: a private name stays in its module.
Every engine dataclass is frozen: a model, a basis or a fit result is built
whole and never changed.  Only a fit
(`learn.fit`) and the basis comparison (`baselines.comparison.linear_regress`)
import scipy, inside the function, so `import eigenlfm.cli` loads no scipy
module and track, predict, simulate and eigenbasis never pay for it; nor
does it load jsonschema, which `config` no longer uses.  Only `apps/io`
imports csv, so the dataset and pass files have one dialect.  Checked
on the source with `ast`, so no module is imported, except the import pins,
which import the CLI in a fresh interpreter; each of the last seven pins
is also run over a small package that breaks its rule, to show it can fail."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "eigenlfm"
ENGINE = ("pade", "kernels", "eigenbasis", "lti", "lfm", "filtering", "learn")
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
    assert {"eigenbasis", "lti"} <= _imports("lfm")  # the parser sees imports
    assert "lfm" not in _imports("filtering")
    assert "filtering" not in _imports("lfm")  # a pass starts from plain (mean, cov)


@pytest.mark.parametrize("module", ENGINE)
def test_engine_imports_no_outer_layer(module):
    assert not _imports(module) & OUTER


STEP_BUILDERS = {
    "discretize", "constant_weight_transition", "make_constant_step_plan", "_input_response",
}


def _uses(names: set[str]) -> set[tuple[str, str, str]]:
    """(file, enclosing top-level function, name) for every reference to one
    of `names` in the package, by bare name or as an attribute, so a call
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
                if name in names:
                    where = getattr(top, "name", "<module>")
                    found.add((str(path.relative_to(PACKAGE)), where, name))
    return found


def test_only_step_cycle_builds_steps():
    uses = _uses(STEP_BUILDERS)
    assert ("lfm.py", "step_cycle", "discretize") in uses  # the walk sees references
    assert ("lfm.py", "step_cycle", "_input_response") in uses
    # a constant-weight batch builds its own plan; no builder reads the input
    allowed = {("lfm.py", "constant_weight_transition", "make_constant_step_plan")}
    assert {u for u in uses if u[:2] != ("lfm.py", "step_cycle")} <= allowed
    # the one builder besides the cycle steps a drift that moves every step
    assert _uses({"relinearized_steps"}) == {
        ("apps/queueing.py", "_run_queue_filter", "relinearized_steps"),
    }


def test_the_step_builders_share_one_quadrature():
    # one Gauss-Legendre rule, built once in lfm, and one evaluation of the
    # rows at its nodes serve both builders that integrate eigenfunctions
    assert _uses({"leggauss"}) == {("lfm.py", "<module>", "leggauss")}
    assert _uses({"_node_rows"}) == {
        ("lfm.py", "constant_weight_transition", "_node_rows"),
        ("lfm.py", "relinearized_steps", "_node_rows"),
    }


def test_no_application_evaluates_rows_for_a_step():
    # the applications take their steps from lfm; only synth, which builds
    # the daily prior and draws the synthetic forces, reads the basis
    apps = [path.stem for path in sorted((PACKAGE / "apps").glob("*.py"))]
    assert "queueing" in apps
    assert {m for m in apps if "eigenbasis" in _imports(f"apps/{m}")} == {"synth"}


def test_every_pass_takes_one_schedule():
    # the three passes read their slots and changepoints from one checked
    # function, so no pass keeps a second copy of the schedule, and the step
    # record type and its per-step rewrites are gone
    uses = _uses({"changepoint_steps", "cycle_steps"})
    assert ("lfm.py", "pass_schedule", "changepoint_steps") in uses  # the walk sees references
    assert {u[0] for u in uses} == {"lfm.py"}
    assert {
        ("apps/queueing.py", "_run_queue_filter", "pass_schedule"),
        ("apps/thermal.py", "_run_thermal_filter", "pass_schedule"),
        ("apps/thermal.py", "thermal_predict_day", "pass_schedule"),
    } <= _uses({"pass_schedule"})
    assert _uses({"PassStep", "pass_steps", "_replace"}) == set()


def test_only_predict_and_update_form_a_covariance():
    # no pass grows its own covariance algebra beside the Kalman layer, and
    # the layer restores symmetry once per observed step, in the update
    assert _uses({"_symmetrize"}) == {("filtering.py", "update", "_symmetrize")}


def test_every_filter_pass_predicts_through_the_kalman_layer():
    # no pass moves its state with its own loop: the applications' filters
    # call the one pass, and only it and the particle filter predict and
    # update (import aliases are not references)
    assert {
        ("apps/queueing.py", "_run_queue_filter", "kalman_pass"),
        ("apps/thermal.py", "_run_thermal_filter", "kalman_pass"),
    } <= _uses({"kalman_pass"})
    assert _uses({"predict", "update"}) == {
        ("filtering.py", "kalman_pass", "predict"), ("filtering.py", "kalman_pass", "update"),
        ("filtering.py", "rbpf_predict_day", "predict"),
        ("filtering.py", "rbpf_predict_day", "update"),
    }


# imports kept unused on purpose: bench/test_bench.py::test_tracer_patches_every_binding
# lists each of these bindings of `filtering.update` (ROADMAP item 2 drops them)
UNUSED_IMPORTS = {
    ("apps/queueing.py", "update"),
    ("apps/thermal.py", "update"),
    ("baselines/resonator.py", "update"),
}


def _unused_imports() -> set[tuple[str, str]]:
    """(file, bound name) of every import in the package whose name the
    module never reads: no bare name, attribute base or `__all__` entry (a
    re-export) refers to it."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        rel = str(path.relative_to(PACKAGE))
        found |= {(rel, name) for name in bound - read - set(_exports(tree) or [])}
    return found


def test_every_import_is_used():
    unused = _unused_imports()
    assert UNUSED_IMPORTS <= unused  # the walk sees unused imports
    assert unused - UNUSED_IMPORTS == set()


def test_one_weight_space_regression():
    # eigenfunction and sparse-spectrum features share one regression; a
    # second copy of it would factor its own precision matrix
    assert _uses({"cho_factor"}) == {("baselines/comparison.py", "linear_regress", "cho_factor")}


def test_particle_streams_are_drawn_in_one_place():
    # the particle streams are defined once, in `filtering.particle_draws`,
    # and the RBPF never draws for itself: it reads the block the thermal
    # prediction keeps on its dataset, which the methods predicted there share
    assert _uses({"Philox"}) == {("filtering.py", "particle_draws", "Philox")}
    assert _uses({"particle_draws"}) == {("apps/thermal.py", "thermal_predict_day",
                                          "particle_draws")}


def test_kernel_blocks_are_built_by_the_basis():
    # eigenfunction rows are evaluated in bounded blocks inside the basis, so
    # no pass builds an n x N kernel block of its own beside them; only the
    # Gram of a basis and the comparison's true covariance are whole matrices
    assert _uses({"eval_matrix"}) == {
        ("eigenbasis.py", "build", "eval_matrix"),
        ("eigenbasis.py", "eigenfunction_matrix", "eval_matrix"),
        ("baselines/comparison.py", "compare_linear_bases", "eval_matrix"),
    }


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


def _exports(tree: ast.Module) -> list[str] | None:
    """The names in a module's `__all__`, or None when it defines none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


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


def _unreached(root: Path) -> dict[str, list[str]]:
    """Names in some module's `__all__` under `root` that no module there
    uses, with the files that export them.  A use is a bare name or an
    attribute outside any type annotation and outside the name's own
    definition (recursion is not a use); imports and `__all__` strings
    re-export, they do not use."""
    exports, users = {}, {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = str(path.relative_to(root))
        for name in _exports(tree) or []:
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


def _package(root: Path, modules: dict[str, str]) -> Path:
    """A package of the engine's module names under `root`, each empty but
    for the source given in `modules`."""
    for module in ENGINE:
        (root / f"{module}.py").write_text(modules.get(module, ""))
    return root


def test_public_names_are_reached():
    # a name that only a test reaches lives in tests/, not in the package
    assert _unreached(PACKAGE) == {}


def test_public_names_walk_reports_an_unused_export(tmp_path):
    root = _package(tmp_path, {
        "kernels": '__all__ = ["used", "unused"]\n\n'
                   "def used(): pass\n\n"
                   "def unused(n): return unused(n - 1)\n",
        "lfm": "from . import kernels\n\ndef f(x: kernels.unused): return kernels.used()\n",
    })
    # recursion, an annotation and the export itself are not uses
    assert _unreached(root) == {"unused": ["kernels.py"]}


def _unlisted(root: Path) -> dict[str, list[str]]:
    """Public top-level functions and classes of each module under `root`
    that defines `__all__` but does not list them, by file."""
    found = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        listed = _exports(tree)
        if listed is None:
            continue
        unlisted = [
            node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_") and node.name not in listed
        ]
        if unlisted:
            found[str(path.relative_to(root))] = unlisted
    return found


def test_every_public_name_is_in_all():
    # a public name missing from __all__ escapes the public-name pin above
    assert _unlisted(PACKAGE) == {}


def test_all_walk_reports_an_unlisted_public_name(tmp_path):
    root = _package(tmp_path, {
        "kernels": '__all__ = ["listed"]\n\n'
                   "def listed(): pass\n\n"
                   "def _private(): pass\n\n"
                   "class Unlisted: pass\n\n"
                   "def unlisted(): pass\n",
        "lfm": "def no_all(): pass\n",  # a module without __all__ lists nothing
    })
    assert _unlisted(root) == {"kernels.py": ["Unlisted", "unlisted"]}


def _private_imports(root: Path) -> set[tuple[str, str]]:
    """(file, name) of every underscore name that a module under `root` takes
    from another module of the package: `from .m import _name`, or `m._name`
    on a name `m` that a package import binds in that module."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = str(path.relative_to(root))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "eigenlfm"
            ):
                found |= {(rel, a.name) for a in node.names if a.name.startswith("_")}
                bound |= {a.asname or a.name for a in node.names}
        found |= {
            (rel, n.attr) for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and n.attr.startswith("_")
            and isinstance(n.value, ast.Name) and n.value.id in bound
        }
    return found


def test_no_module_takes_another_modules_private_name():
    # `apps/io` rebuilt the service rate through queueing's `_omega_profile`;
    # a dataset now derives it, and what a module keeps private stays there
    assert _private_imports(PACKAGE) == set()


def test_private_import_walk_reports_an_underscore_name(tmp_path):
    root = _package(tmp_path, {
        "kernels": "def _gram(): pass\n\ndef gram(): return _gram()\n",  # its own use
        "lfm": "from .kernels import _gram, gram\n",
        "learn": "from . import kernels as k\n\ndef fit(): return k._gram(), k.gram()\n",
        "filtering": "import numpy as np\n\ndef f(): return np._NoValue\n",  # not the package
    })
    assert _private_imports(root) == {("lfm.py", "_gram"), ("learn.py", "_gram")}


def _engine_dataclasses(root: Path) -> dict[str, ast.ClassDef]:
    """Every dataclass of an engine module under `root`, by name."""
    return {
        node.name: node
        for module in ENGINE
        for node in ast.parse((root / f"{module}.py").read_text()).body
        if isinstance(node, ast.ClassDef)
        and any("dataclass" in ast.unparse(d) for d in node.decorator_list)
    }


def _unread_fields(root: Path) -> set[tuple[str, str]]:
    """(class, field) of every annotated dataclass field of an engine module
    under `root` that no module there reads: a read is an attribute load of
    its name, except from a name that an import binds in that module (a
    module's function, such as `np.trace`, is not a field)."""
    fields = {
        (name, s.target.id) for name, node in _engine_dataclasses(root).items()
        for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    }
    read = set()
    for path in root.rglob("*.py"):
        tree = ast.parse(path.read_text())
        imported = {
            (a.asname or a.name).split(".")[0] for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) for a in n.names
        }
        read |= {
            n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
            and not (isinstance(n.value, ast.Name) and n.value.id in imported)
        }
    return {f for f in fields if f[1] not in read}


def test_every_engine_field_is_read():
    # a field that the engine stores and nothing reads is code to delete
    assert _unread_fields(PACKAGE) == set()


def test_field_walk_reports_an_unread_field(tmp_path):
    root = _package(tmp_path, {
        "lti": "from dataclasses import dataclass\n\n"
               "@dataclass(frozen=True)\nclass Block:\n"
               "    drift: float\n    spare: float\n    gamma: float\n",
        "lfm": "import math\n\n"
               "def rate(block):\n    block.spare = 0.0  # a store is not a read\n"
               "    return block.drift * math.gamma(2.0)  # nor is a module's function\n",
    })
    assert _unread_fields(root) == {("Block", "spare"), ("Block", "gamma")}


def test_every_engine_dataclass_is_frozen():
    # an engine value is built whole and never changed afterwards, so a
    # model, a basis or a fit result can be shared by every pass that reads it
    classes = _engine_dataclasses(PACKAGE)
    assert {"AugmentedModel", "StepCycle", "FitResult"} <= set(classes)  # the walk sees them
    frozen = {
        name for name, node in classes.items() for d in node.decorator_list
        if isinstance(d, ast.Call) and any(
            k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
            for k in d.keywords
        )
    }
    assert set(classes) - frozen == set()


def _imports_of(root: Path, package: str) -> set[tuple[str, str]]:
    """(file, enclosing top-level function or "<module>") of every import of
    `package` or one of its modules in the package under `root`."""
    found = set()
    for path in sorted(root.rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module]
                else:
                    continue
                if any(n.split(".")[0] == package for n in names):
                    where = getattr(top, "name", "<module>")
                    found.add((str(path.relative_to(root)), where))
    return found


def test_only_a_fit_and_the_basis_comparison_import_scipy():
    # track and predict run on numpy alone (pade.expm, the closed-form
    # update); scipy is imported where the optimizer and the regression run
    assert _imports_of(PACKAGE, "scipy") == {
        ("learn.py", "fit"), ("baselines/comparison.py", "linear_regress"),
    }


def test_scipy_import_walk_reports_module_level_imports(tmp_path):
    root = _package(tmp_path, {
        "lfm": "import scipy.linalg\n\ndef step(a): return scipy.linalg.expm(a)\n",
        "learn": "def fit():\n    from scipy.optimize import minimize\n    return minimize\n",
        "filtering": "from scipy.linalg.lapack import dpotrf\n",
    })
    assert _imports_of(root, "scipy") == {
        ("lfm.py", "<module>"), ("learn.py", "fit"), ("filtering.py", "<module>"),
    }


def test_only_apps_io_imports_csv():
    # every CSV the package writes or reads goes through `apps/io`, which
    # holds the one dialect of the dataset and pass files
    assert _imports_of(PACKAGE, "csv") == {("apps/io.py", "<module>")}


def _loads(root: Path, module: str, packages: set[str]) -> list[str]:
    """The modules of `packages` that a fresh interpreter, with `root` on its
    path, has loaded after importing `module`."""
    probe = (f"import sys, {module}\n"
             f"print(*sorted(m for m in sys.modules if m.split('.')[0] in {sorted(packages)}))")
    env = dict(os.environ, PYTHONPATH=str(root))
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    return out.split()


# jsonschema and the packages it loads: the config walker replaced it
SCHEMA_VALIDATOR = {"jsonschema", "referencing", "rpds"}


def test_the_cli_loads_no_scipy_module():
    assert _loads(PACKAGE.parent, "eigenlfm.cli", {"scipy"}) == []


def test_the_cli_loads_no_schema_validator():
    assert _loads(PACKAGE.parent, "eigenlfm.cli", SCHEMA_VALIDATOR) == []


def test_scipy_load_probe_sees_a_module_level_import(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "lazy.py").write_text("def fit():\n    import scipy.optimize\n")
    (package / "eager.py").write_text("from . import lazy\nimport scipy\n")
    assert _loads(tmp_path, "pkg.lazy", {"scipy"}) == []
    assert "scipy" in _loads(tmp_path, "pkg.eager", {"scipy"})


def test_schema_validator_probe_sees_its_packages(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "walker.py").write_text("import json\n")
    (package / "config.py").write_text("import jsonschema\n")
    assert _loads(tmp_path, "pkg.walker", SCHEMA_VALIDATOR) == []
    # each of the three packages counts: jsonschema loads the other two
    assert {m.split(".")[0] for m in _loads(tmp_path, "pkg.config", SCHEMA_VALIDATOR)} == (
        SCHEMA_VALIDATOR)
