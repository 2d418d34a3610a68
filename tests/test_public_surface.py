"""The package exports no dead surface: every name tvprox/__init__.py imports
is used inside the package or kept on purpose. And every setting and array
argument is checked through tvprox.signal's checkers: no other module writes
its own finite, integer, choice or complex check, and every exported
function that takes an array rejects a complex or NaN one, naming it.

The checks read the sources with ast, so names that appear only in
docstrings, or local names that shadow an export, do not count as uses.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

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


# The messages of signal's check_positive / check_nonnegative, check_count,
# check_choice and check_array.
CHECK_MESSAGES = ("must be finite", "must be an integer", "must be one of", "values are not admitted")


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
        complex_tests = [node.lineno for node in ast.walk(tree)
                         if isinstance(node, ast.Attribute) and node.attr == "iscomplexobj"]
        assert not complex_tests, f"{path.name} tests for complex input itself, lines {complex_tests}"


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


SIG, IMG, LINE = np.arange(6.0).reshape(2, 3), np.ones((8, 8)), np.arange(5.0)
GEO = tvprox.CtGeometry(n_pixels=8, n_angles=4)
SINO = np.ones(GEO.sinogram_shape)
# Every exported function that takes an array, by name: one (call on one array
# argument and a directory, a valid array, the argument's name) per argument.
ARRAY_ARGUMENTS = {
    "save_csv": [(lambda a, path: tvprox.save_csv(path / "x.csv", a), SIG, "x")],
    "w_forward": [(lambda a, _: tvprox.w_forward(a), SIG, "z")],
    "tv": [(lambda a, _: tvprox.tv(a, "iso"), SIG, "x")],
    "shrink_aniso": [(lambda a, _: tvprox.shrink_aniso(a, 0.5), SIG, "t")],
    "shrink_iso": [(lambda a, _: tvprox.shrink_iso(a, 0.5), SIG, "v")],
    "approx_prox": [(lambda a, _: tvprox.approx_prox(a, tvprox.ProxParams(0.1)), SIG, "z")],
    "fpg_prox": [(lambda a, _: tvprox.fpg_prox(a, 0.1), SIG, "z")],
    "duality_gap": [(lambda a, _: tvprox.duality_gap(a, SIG, np.zeros((2, 2, 3)), 0.1), SIG, "z"),
                    (lambda a, _: tvprox.duality_gap(SIG, a, np.zeros((2, 2, 3)), 0.1), SIG, "x"),
                    (lambda a, _: tvprox.duality_gap(SIG, SIG, a, 0.1), np.zeros((2, 2, 3)), "p")],
    "tautstring_prox_1d": [(lambda a, _: tvprox.tautstring_prox_1d(a, 0.1), LINE, "z")],
    "radon_forward": [(lambda a, _: tvprox.radon_forward(a, GEO), IMG, "img")],
    "radon_adjoint": [(lambda a, _: tvprox.radon_adjoint(a, GEO), SINO, "sino")],
    "add_awgn": [(lambda a, _: tvprox.add_awgn(a, 0.1, 0), SIG, "x")],
    "prox_g_denoise": [(lambda a, _: tvprox.prox_g_denoise(a, 0.5, SIG), SIG, "v"),
                       (lambda a, _: tvprox.prox_g_denoise(SIG, 0.5, a), SIG, "y")],
    "prox_g_ct": [(lambda a, _: tvprox.prox_g_ct(a, 1e-2, SINO, tvprox.radon_operator(GEO)), IMG, "v"),
                  (lambda a, _: tvprox.prox_g_ct(IMG, 1e-2, a, tvprox.radon_operator(GEO)), SINO, "y")],
    "objective": [(lambda a, _: tvprox.objective(tvprox.Problem(data=SIG), tvprox.SolverConfig(), a), SIG, "x")],
    "apgm": [(lambda a, _: tvprox.apgm(tvprox.Problem(data=SIG), tvprox.SolverConfig(max_iter=2), a), SIG, "x0")],
    "admm": [(lambda a, _: tvprox.admm(tvprox.Problem(data=SIG), tvprox.SolverConfig(max_iter=2), a), SIG, "x0")],
    "psnr": [(lambda a, _: tvprox.psnr(a, SIG), SIG, "reference"), (lambda a, _: tvprox.psnr(SIG, a), SIG, "x")],
}
# Exported functions that take an array but are not held to the contract, and why.
COEFFS = "takes a CoeffStack, the frame coefficients that w_forward makes of a checked signal"
ARRAY_EXEMPT = (
    ("l2_norm", "inf or NaN in gives inf or NaN out by design: _stopped and ADMM's residuals read it"),
    ("w_adjoint", COEFFS),
    ("h_hat", COEFFS),
    ("h_hat_subgradient", COEFFS),
    ("threshold_stack", COEFFS),
)
# Exported functions that take no array argument.
NO_ARRAYS = ("load_csv", "check_mode", "identity_operator", "radon_operator", "lipschitz_power_iter",
             "fista_momentum", "gen_foam_phantom", "cost_accuracy", "run_sweep")


def test_every_exported_function_is_held_to_the_array_contract_or_exempt():
    functions = {name for name, obj in vars(tvprox).items() if inspect.isfunction(obj)}
    classified = [*ARRAY_ARGUMENTS, *(name for name, _ in ARRAY_EXEMPT), *NO_ARRAYS]
    assert len(classified) == len(set(classified)) and set(classified) == functions


@pytest.mark.parametrize("function, index, bad", [
    pytest.param(function, index, bad, id=f"{function}-{arguments[index][2]}-{bad}")
    for function, arguments in ARRAY_ARGUMENTS.items() for index in range(len(arguments))
    for bad in ("complex", "nan")])
def test_exported_functions_reject_complex_and_nan_arrays(tmp_path, function, index, bad):
    # a complex array is not cast to its real part with a warning, and a NaN
    # does not pass through: either raises a ValueError that names the argument
    call, good, name = ARRAY_ARGUMENTS[function][index]
    call(good, tmp_path)
    arg = good + 1j if bad == "complex" else good.copy()
    if bad == "nan":
        arg.flat[1] = np.nan
    message = f"{name}: {'complex' if bad == 'complex' else 'non-finite'} values are not admitted"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            call(arg, tmp_path)
