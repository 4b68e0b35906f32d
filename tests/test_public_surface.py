"""The package's public names are declared once.

Each layer module lists its public names in its __all__, and
spinorspace/__init__.py re-exports the seven layers with star imports, so a
new public name is added in one place.  The command line reads its two
registries, the generatable classes and the representation tags, from the
layers that define them rather than writing them out again.
"""

import ast
import importlib
import inspect
from pathlib import Path

import spinorspace
from spinorspace import cli, clifford, lounesto

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorspace"
LAYERS = ("bilinears", "classmap", "clifford", "fierz", "lounesto", "spinor_forms", "topology")

# the names the package exported when it listed them by hand
LISTED = {
    "BilinearSet", "bilinear_covariants", "dirac_adjoint", "euclidean_bilinears",
    "euclidean_components_closed_form", "quaternion_pair_to_c4", "quaternionic_euclidean_components",
    "MappingMatrix", "MappingParams", "build_M", "constraint_residuals", "hermitian_constrain",
    "map_to_class4", "no_inverse_witness",
    "DIRAC", "WEYL", "GammaRep", "Multivector", "Signature", "adjoint_dagger", "basis_vector", "blade",
    "geometric_product", "grade_projection", "idempotent_f", "pseudoscalar", "rep_matrix", "reversion",
    "scalar",
    "FpkResiduals", "SingularAggregateParams", "aggregate", "boomerang_residual",
    "build_singular_aggregate", "fpk_residuals", "generalized_fpk_residuals", "is_boomerang", "reconstruct",
    "ClassificationReport", "LounestoClass", "classify", "classify_bilinears", "generate",
    "rescale_class_invariance",
    "AlgebraicSpinor", "ClassicalSpinor", "Quaternion", "SpinorOperator", "algebraic_from_classical",
    "classical_from_algebraic", "classical_from_operator", "ideal_element_H2", "operator_from_classical",
    "operator_from_coeffs", "quaternion_rep_e",
    "fpk_membership", "project_regular", "regular_sphere_check", "winding_number", "winding_report",
}


def layer(name: str):
    return importlib.import_module(f"spinorspace.{name}")


def test_the_package_exports_the_union_of_the_layers_all():
    public = {name for name, value in vars(spinorspace).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    declared = set().union(*(layer(name).__all__ for name in LAYERS))
    assert public == declared
    assert len(LISTED) == 60 and LISTED <= public
    for name in LAYERS:
        for exported in layer(name).__all__:
            assert getattr(spinorspace, exported) is getattr(layer(name), exported)


def test_every_public_definition_of_a_layer_is_in_its_all():
    for name in LAYERS:
        tree = ast.parse((SRC / f"{name}.py").read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
        assert defined <= set(layer(name).__all__), f"{name}: {sorted(defined - set(layer(name).__all__))}"


def test_the_package_binds_only_its_version_itself():
    """Its body is the docstring, one star import per layer in import order,
    and __version__."""
    body = ast.parse((SRC / "__init__.py").read_text()).body
    assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
    imports = body[1:-1]
    assert all(isinstance(node, ast.ImportFrom) and node.level == 1
               and [alias.name for alias in node.names] == ["*"] for node in imports)
    assert tuple(node.module for node in imports) == LAYERS
    assert ast.unparse(body[-1]).startswith("__version__ = ")


def test_the_cli_reads_its_choices_from_their_registries():
    generate = cli.build_parser()._subparsers._group_actions[0].choices["generate"]
    choices = {action.dest: action.choices for action in generate._actions}
    assert choices["lounesto_class"] == [c.value for c in lounesto._DRAWERS]
    assert choices["rep"] == cli._REPS == tuple(clifford._REP_BY_TAG)
    # neither list is written out in the CLI's source
    restated = ({c.value for c in lounesto._DRAWERS}, set(clifford._REP_BY_TAG))
    for node in ast.walk(ast.parse((SRC / "cli.py").read_text())):
        if isinstance(node, (ast.List, ast.Tuple)) and node.elts:
            items = {getattr(item, "value", None) for item in node.elts}
            assert items not in restated, ast.unparse(node)
