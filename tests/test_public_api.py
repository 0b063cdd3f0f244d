"""Guards on what code outside the package reads of it."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import unisplit

MODULES = [m.name for m in pkgutil.iter_modules(unisplit.__path__)]
SOURCE = Path(unisplit.__path__[0])
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("short", MODULES)
def test_every_exported_name_exists(short):
    # the benchmark's tracer looks up each name of __all__ with getattr
    module = importlib.import_module(f"unisplit.{short}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert not missing, f"unisplit.{short}.__all__ names missing {missing}"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_reads(path: Path) -> tuple[set[str], list[str]]:
    """(the local names bound to unisplit and its modules, the private names
    of them that the file at ``path`` imports or reads)."""
    tree = ast.parse(path.read_text())
    bound = set()
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names
                         if a.name.split(".")[0] == "unisplit")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "unisplit":
            private += [a.name for a in node.names if _is_private(a.name)]
            bound.update(a.asname or a.name for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in bound:
                private.append(f"{root.id}...{node.attr} (line {node.lineno})")
    return bound, private


def test_acceptance_suite_reads_no_private_names():
    bound, private = _private_reads(Path(__file__).with_name("test_acceptance.py"))
    assert bound, "no unisplit import found"
    assert not private, f"the acceptance suite reads private names: {private}"


@pytest.mark.parametrize("short", sorted(p.stem for p in SOURCE.glob("*.py")))
def test_module_reads_no_private_names_of_another(short):
    # a module's own private names are bare names, so every read found here
    # is of another unisplit module
    _, private = _private_reads(SOURCE / f"{short}.py")
    assert not private, f"unisplit.{short} reads private names: {private}"


def _names_read(tree: ast.AST) -> set[str]:
    """Every name read under ``tree``, bare or as an attribute."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def test_every_public_function_has_a_caller_outside_the_tests():
    """A function in a module's ``__all__`` is read by the package or by the
    benchmark, not only by the tests; classes and exceptions are exempt."""
    files = [*SOURCE.glob("*.py"), *PERFBENCH.glob("*.py")]
    assert any(p.parent == PERFBENCH for p in files), "perfbench/ not found"
    read = set().union(*(_names_read(ast.parse(p.read_text())) for p in files))
    unread = []
    for short in MODULES:
        module = importlib.import_module(f"unisplit.{short}")
        unread += [f"{short}.{name}" for name in getattr(module, "__all__", [])
                   if inspect.isfunction(getattr(module, name)) and name not in read]
    assert not unread, f"public functions only the tests call: {unread}"


def _functions_without_a_case(test_file: str, test_prefix: str, params: set[str],
                              exempt: tuple[str, ...] = ()) -> list[str]:
    """Each function in a module's ``__all__`` with a parameter in
    ``params``, other than those ``exempt``, that no case of the test of
    ``test_file`` named ``test_prefix...`` names."""
    tree = ast.parse(Path(__file__).with_name(test_file).read_text())
    test = next(node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                and node.name.startswith(test_prefix))
    cases = set().union(*map(_names_read, test.decorator_list))
    takes = []
    for short in MODULES:
        module = importlib.import_module(f"unisplit.{short}")
        takes += [f"{short}.{name}" for name in getattr(module, "__all__", [])
                  if inspect.isfunction(f := getattr(module, name))
                  and params & inspect.signature(f).parameters.keys()]
    assert set(exempt) < set(takes), f"{exempt} not among the functions {takes}"
    return [q for q in takes if q not in exempt and q.split(".")[1] not in cases]


def _h_functions_without_a_case(test_prefix: str) -> list[str]:
    """Each function of an ``h``, ``h_grid`` or ``h_values`` without a case
    in the test of ``test_propagator.py`` named ``test_prefix...``.
    ``propagator.step_matrix`` is exempt: it takes a complex or a negative
    step, which criterion 5b's Taylor check and ``reversibility_report``
    use."""
    return _functions_without_a_case("test_propagator.py", test_prefix,
                                     {"h", "h_grid", "h_values"},
                                     exempt=("propagator.step_matrix",))


def test_every_public_function_of_a_real_h_refuses_a_complex_one():
    """Every public function of a real h has a case in the complex-h
    refusal test, so that it reads its h by the one rule."""
    missing = _h_functions_without_a_case("test_a_complex_h_is_refused")
    assert not missing, f"no complex-h refusal case for {missing}"


def test_every_public_function_of_a_real_h_refuses_one_not_finite_and_positive():
    """Every public function of a real h has a case in the test of an h of
    nan, inf, 0 or -0.1, so that it refuses such an h with the one reader's
    ValueError."""
    missing = _h_functions_without_a_case("test_an_h_that_is_not_finite_and_positive")
    assert not missing, f"no case of an h not finite and > 0 for {missing}"


def test_every_public_function_of_a_real_h_refuses_one_of_the_wrong_shape():
    """Every public function of a real h has a case in the test of an h of
    the wrong shape, so that it refuses one with the one reader's
    DimensionError."""
    missing = _h_functions_without_a_case("test_an_h_of_the_wrong_shape")
    assert not missing, f"no wrong-shape case for {missing}"


def test_every_public_function_of_a_potential_refuses_a_complex_one():
    """Every public function of a potential ``v_pot`` has a case in the
    complex- and string-V refusal test, so that it reads V by the one
    float64 rule."""
    missing = _functions_without_a_case(
        "test_spectral.py", "test_a_complex_or_string_potential_is_refused",
        {"v_pot"})
    assert not missing, f"no complex-V refusal case for {missing}"
