"""One home per array primitive.

Underneath the multivector engine sit a few array primitives, each written
once in clifford: the fit check _fitting, which raises RowError for the
rows holding a non-finite entry; the row norm and the row max-abs, bound as
the norm and max_abs methods of the record types that have them; the
vector-space arithmetic _Linear (+, -, unary - and scaling) of the three
algebra records; the operand step Record._operand, through which every
binary operation reads its operand; the blade-slot constructor
_from_slots, from which every multivector constructor builds; and the
number rule _numbers, through which every public record constructor, every
scale factor, every helper constructor and array-taking kernel, and every
input file reads its numbers.  The bit code of a set of flags and the
default classification tolerance live in lounesto.  These tests read the
package's syntax trees and pin that no module writes one of them out again,
and that no module keeps an import it does not use.
"""

import ast
import functools
import importlib
import inspect
from pathlib import Path

import numpy as np

from spinorspace import classmap, clifford, fierz, lounesto, spinor_forms, topology

SRC = Path(__file__).resolve().parent.parent / "src" / "spinorspace"

CONSTRUCTORS = {
    "clifford:zero", "clifford:scalar", "clifford:blade", "clifford:from_blade_dict",
    "fierz:vector_multivector", "fierz:bivector_multivector", "spinor_forms:operator_to_even_multivector",
}


@functools.lru_cache(maxsize=None)
def modules() -> tuple:
    """(name, syntax tree) of every module of the package."""
    return tuple((path.stem, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py")))


def scopes_naming(name: str, calls_only: bool = False) -> set:
    """module:qualname of every scope in the package that names name (as a
    plain name or an attribute), or with calls_only that calls it."""
    found = set()

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_scope(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        visit_ClassDef = visit_FunctionDef = visit_scope

        def visit_Call(self, node):
            if calls_only and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                found.add(f"{self.module}:{'.'.join(self.scope)}")
            self.generic_visit(node)

        def visit_Name(self, node):
            if not calls_only and node.id == name:
                found.add(f"{self.module}:{'.'.join(self.scope)}")

        def visit_Attribute(self, node):
            if not calls_only and node.attr == name:
                found.add(f"{self.module}:{'.'.join(self.scope)}")
            self.generic_visit(node)

    for module, tree in modules():
        Visitor(module).visit(tree)
    return found


def test_isfinite_only_in_the_fit_check_and_the_input_checks():
    assert scopes_naming("isfinite") == {
        "clifford:_fitting",
        "clifford:Record.__init__",
        "jsonio:floats",
        "jsonio:_row_texts",
        "topology:_validate_path",
        "cli:_tolerance",
        "lounesto:rescale_class_invariance",
    }


def test_the_fit_check_is_the_one_raising_a_fit_error():
    """No scope but _fitting builds a "does not fit in float64" error of its own."""
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                assert "does not fit" not in ast.unparse(node), f"{module}: {ast.unparse(node)}"


def test_constructors_build_from_blade_slots():
    assert not CONSTRUCTORS & scopes_naming("zeros", calls_only=True)
    builders = set().union(*(scopes_naming(name, True) for name in ("_from_slots", "scalar", "from_blade_dict")))
    assert CONSTRUCTORS <= builders


def test_norm_and_max_abs_are_each_one_function():
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name not in ("norm", "max_abs"), f"{module}: def {node.name}"
    records = [cls for module in (clifford, spinor_forms, fierz, classmap, lounesto)
               for cls in vars(module).values() if inspect.isclass(cls) and issubclass(cls, clifford.Record)]
    has = {name: {cls.__name__ for cls in records if hasattr(cls, name)} for name in ("norm", "max_abs")}
    assert has == {"norm": {"Multivector", "ClassicalSpinor", "Quaternion"},
                   "max_abs": {"Multivector", "FpkResiduals"}}
    for cls in records:
        assert getattr(cls, "norm", clifford._row_norm) is clifford._row_norm
        assert getattr(cls, "max_abs", clifford._row_max_abs) is clifford._row_max_abs


def test_vector_space_arithmetic_is_written_once():
    for module, tree in modules():
        if module != "clifford":
            for node in ast.walk(tree):
                if isinstance(node, ast.FunctionDef):
                    assert node.name not in ("__add__", "__sub__", "__neg__", "__rmul__"), f"{module}: def {node.name}"
    for cls in (clifford.Multivector, spinor_forms.Quaternion, spinor_forms.QuatMatrix2):
        assert issubclass(cls, clifford._Linear) and not issubclass(clifford._Linear, clifford.Record)
        for name in ("__add__", "__sub__", "__neg__", "__rmul__"):
            assert getattr(cls, name) is getattr(clifford._Linear, name), f"{cls.__name__}.{name}"
    assert spinor_forms.QuatMatrix2.scale is clifford._Linear._scale
    assert not hasattr(clifford, "_scaled")
    assert not hasattr(clifford, "_SUM_UNFIT") and not hasattr(spinor_forms, "_SUM_UNFIT")


def test_every_binary_operation_reads_its_operand_through_one_step():
    assert not hasattr(clifford.Record, "_check_tags") and not scopes_naming("_check_tags")
    assert scopes_naming("_operand", calls_only=True) == {
        "clifford:_Linear.__add__", "clifford:geometric_product", "clifford:Record.isclose",
        "spinor_forms:Quaternion.dot", "spinor_forms:Quaternion.__mul__", "spinor_forms:QuatMatrix2.__matmul__",
    }


def test_quiet_is_only_a_decorator():
    """_quiet decorates the functions that compute quietly, and is called
    only at module level, to make _ldexp_quiet: no function body wraps a
    callee in it at its call site.  The mapping diagnostics take arrays,
    with no record-or-array branch."""
    assert scopes_naming("_quiet", calls_only=True) == {"clifford:"}
    assert "classmap:no_inverse_witness" not in scopes_naming("isinstance", calls_only=True)


def test_quaternion_norm_is_the_root_of_its_dot():
    q = spinor_forms.Quaternion(*np.random.default_rng(20).standard_normal((4, 7)) * 1e100)
    assert q.norm().tobytes() == np.sqrt(q.dot(q)).tobytes()


def test_one_bit_code_and_one_default_tolerance():
    assert not scopes_naming("packbits")
    defaults = set()
    for module, tree in modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                values = node.args.defaults + [d for d in node.args.kw_defaults if d is not None]
                if any(isinstance(v, ast.Constant) and v.value == 1e-8 for v in values):
                    defaults.add(f"{module}:{node.name}")
    # the unit-norm tolerance of the sphere check is no classification default
    assert defaults == {"topology:regular_sphere_check"}
    for function in (classmap.map_to_class4, topology.fpk_membership, lounesto.classify):
        assert inspect.signature(function).parameters["tol"].default is lounesto.DEFAULT_TOL


def test_no_module_keeps_an_unused_import():
    """Every name a module imports is read in it; the package's __init__,
    whose imports are its public names, is exempt."""
    for module, tree in modules():
        if module == "__init__":
            continue
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= read, f"{module} imports {sorted(imported - read)} unused"


def scopes_where(predicate) -> set:
    """module:qualname of every scope in the package, module level included,
    that holds, outside its nested functions and classes, a node for which
    predicate is true."""
    found = set()

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, module, scope + [child.name])
                continue
            if predicate(child):
                found.add(f"{module}:{'.'.join(scope)}")
            walk(child, module, scope)

    for module, tree in modules():
        walk(tree, module, [])
    return found


def calls(node, name: str) -> bool:
    return isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_no_module_writes_a_norm_of_its_own():
    """The row norm is clifford._row_norm: no module calls numpy's."""
    assert not scopes_where(lambda node: isinstance(node, ast.Attribute) and node.attr == "norm"
                            and getattr(node.value, "attr", None) == "linalg")
    assert not scopes_where(lambda node: isinstance(node, ast.ImportFrom) and "linalg" in (node.module or ""))


def test_flag_code_tables_are_built_once():
    """One builder allocates a table of one entry per flag code, and
    map_to_class4's degenerate names are one such table."""
    assert scopes_where(lambda node: calls(node, "empty") and isinstance(node.args[0], ast.BinOp)
                        and isinstance(node.args[0].op, ast.Pow)
                        and getattr(node.args[0].left, "value", None) == 2) == {"lounesto:_code_table"}
    assert classmap._DEGENERATE.tolist() == [(), ("J",), ("K",), ("J", "K"), ("S",), ("J", "S"), ("K", "S"),
                                             ("J", "K", "S")]
    assert not classmap._DEGENERATE.flags.writeable


def test_one_scope_spells_a_complex_normal():
    """The scopes that draw normals and build complex numbers: only
    lounesto._complex_vector, through which every complex normal is drawn."""
    normals = scopes_where(lambda node: calls(node, "standard_normal"))
    complexes = scopes_where(lambda node: calls(node, "complex")
                             or isinstance(node, ast.Constant) and isinstance(node.value, complex))
    assert normals & complexes == {"lounesto:_complex_vector"}


# the public record constructors, the helper constructors and the
# array-taking kernels: each reads the numbers it is given through the number
# rule, clifford._numbers, as the scale factors and the command line's files
# (jsonio.floats) do.  topology._validate_path reads winding_report's path.
NUMBER_READERS = {
    "clifford:Multivector.__init__", "spinor_forms:Quaternion.__init__", "spinor_forms:ClassicalSpinor.__init__",
    "spinor_forms:AlgebraicSpinor.__init__", "bilinears:BilinearSet.__init__", "bilinears:BilinearSet.from_stack",
    "fierz:FpkResiduals.__init__", "fierz:SingularAggregateParams.__init__", "classmap:MappingParams.__init__",
    "classmap:MappingMatrix.__init__",
    "clifford:scalar", "clifford:from_blade_dict", "fierz:vector_multivector", "fierz:bivector_multivector",
    "bilinears:euclidean_bilinears", "bilinears:euclidean_components_closed_form", "bilinears:minkowski_square",
    "bilinears:minkowski_dot", "spinor_forms:operator_from_coeffs", "classmap:constraint_residuals",
    "classmap:no_inverse_witness", "topology:_validate_path", "lounesto:rescale_class_invariance",
}

# public functions that convert values they computed themselves, not a
# caller's numbers: build_M divides as Python complexes (astype(object) and
# back), map_to_class4 holds its classes as objects and its flags as bools
OWN_CONVERSIONS = {"classmap:build_M", "classmap:map_to_class4"}


def coerces(node) -> bool:
    """Whether node converts numbers on its own: np.array or np.asarray with
    a dtype, np.fromiter, or an astype call."""
    return calls(node, "astype") or calls(node, "fromiter") or (
        (calls(node, "array") or calls(node, "asarray")) and any(k.arg == "dtype" for k in node.keywords))


def test_constructors_coerce_only_through_the_number_rule():
    """No constructor of a record type, nor the scaling, nor a public
    function of a layer (its __all__), nor the path reader, converts its
    input but through _numbers, and every number they read goes through it."""
    records = {f"{module}:{node.name}" for module, tree in modules() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and any(getattr(b, "id", None) == "Record" for b in node.bases)}
    assert len(records) == 11
    constructors = {f"{scope}.{name}" for scope in records for name in ("__init__", "from_stack")}
    layers = [importlib.import_module(f"spinorspace.{module}") for module, _ in modules() if module != "__init__"]
    functions = {f"{layer.__name__.split('.')[-1]}:{name}" for layer in layers for name in getattr(layer, "__all__", ())
                 if inspect.isfunction(getattr(layer, name))}
    assert OWN_CONVERSIONS <= functions and "clifford:scalar" in functions
    readers = constructors | (functions - OWN_CONVERSIONS) | {"clifford:_Linear._scale", "topology:_validate_path"}
    assert not readers & scopes_where(coerces)
    assert scopes_naming("_numbers", calls_only=True) == NUMBER_READERS | {"clifford:_Linear._scale", "jsonio:floats"}
