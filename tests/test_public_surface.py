"""The package exports no dead surface: every name tvprox/__init__.py imports
is used inside the package or kept on purpose. And every setting is checked
through tvprox.signal's checkers: no other module writes its own finite,
integer or choice check.

The checks read the sources with ast, so names that appear only in
docstrings, or local names that shadow an export, do not count as uses.
"""

import ast
import dataclasses
import importlib
import typing
from pathlib import Path

import tvprox

# Exports that no other part of the package runs, and why they stay.
KEEP = (
    ("w_adjoint", "the paper's synthesis W^T in S_tau = W^T T W; oracle of the fused prox"),
    ("threshold_stack", "the paper's T, the prox of tau*h_hat; oracle of the fused prox"),
    ("h_hat", "the lifted TV whose Moreau envelope makes S_tau a prox"),
    ("h_hat_subgradient", "the paper's eps-subgradient bound"),
    ("tautstring_prox_1d", "exact 1D reference that cross-validates FPG"),
    ("identity_operator", "the A = I operator of denoising checks"),
    ("prox_g_denoise", "closed-form data prox; reference of the solvers' in-place data step"),
    ("load_csv", "the reader of the recon_*.csv artifacts"),
)


def _relative_imports(tree):
    return [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]


def test_every_export_is_used_or_kept():
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(tvprox.__file__).parent.glob("*.py")}
    # {name: defining module} of the package-relative imports in __init__
    exports = {alias.asname or alias.name: node.module
               for node in _relative_imports(trees.pop("__init__")) for alias in node.names}
    imported = {alias.name for tree in trees.values() for node in _relative_imports(tree) for alias in node.names}
    names = {stem: {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} for stem, tree in trees.items()}

    def used(name):
        return name in imported or name in names[exports[name]]

    keep = {name for name, _ in KEEP}
    assert keep <= exports.keys()
    dead = sorted(name for name in exports if name not in keep and not used(name))
    assert not dead, f"exported but used nowhere in the package: {dead}"
    stale = sorted(name for name in keep if used(name))
    assert not stale, f"kept exports that the package now uses: {stale}"


# The messages of signal's check_positive / check_nonnegative, check_count
# and check_choice.
CHECK_MESSAGES = ("must be finite", "must be an integer", "must be one of")


def test_setting_checks_are_written_only_in_signal():
    for path in Path(tvprox.__file__).parent.glob("*.py"):
        if path.stem == "signal":
            continue
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and node.body
                      and isinstance(node.body[0], ast.Expr)}
        texts = [node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings]
        own = [text for text in texts if any(message in text for message in CHECK_MESSAGES)]
        assert not own, f"{path.name} writes its own setting check: {own}"


def test_public_dataclass_type_hints_resolve():
    # typing.get_type_hints evaluates each annotation in its module, as
    # dataclass-aware tools do; a name the module imports only inside a
    # function fails it with a NameError
    classes = []
    for path in sorted(Path(tvprox.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"tvprox.{path.stem}")
        classes += [obj for name, obj in vars(module).items()
                    if not name.startswith("_") and isinstance(obj, type) and dataclasses.is_dataclass(obj)
                    and obj.__module__ == module.__name__]
    assert tvprox.CtGeometry in classes
    for cls in classes:
        assert typing.get_type_hints(cls).keys() == {f.name for f in dataclasses.fields(cls)}, cls.__name__
