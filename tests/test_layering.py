"""The package's modules import one way: each only from lower layers."""

import ast
import inspect
import types
from pathlib import Path

import qbound
from qbound.measurement import ELEMENT_NAMES

RANK = {
    "qubit": 0,
    "quadrature": 1,
    "phasespace": 2,
    "derivatives": 3,
    "metrics": 4,
    "measurement": 4,
    "bounds": 5,
    "selftest": 6,
    "cli": 7,
}

# __init__ re-exports the public names of every layer; it is no layer itself
MODULES = sorted(p for p in Path(qbound.__file__).parent.glob("*.py") if p.stem != "__init__")


def package_imports(path):
    """Names of the sibling modules a module imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_every_module_has_a_rank():
    assert sorted(p.stem for p in MODULES) == sorted(RANK)


def test_imports_point_to_lower_layers():
    upward = [
        f"{path.stem} -> {target}"
        for path in MODULES
        for target in package_imports(path)
        if RANK[target] >= RANK[path.stem]
    ]
    assert upward == []


def angle_reads(path):
    """Lines where a module reads a `.theta` or `.phi` attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr in ("theta", "phi")
    ]


def test_only_qubit_spells_out_the_bloch_angles():
    # phasespace and derivatives build everything from rho and d_rho
    reads = {
        stem: angle_reads(Path(qbound.__file__).parent / f"{stem}.py")
        for stem in ("phasespace", "derivatives")
    }
    assert reads == {"phasespace": [], "derivatives": []}


def element_calls(path):
    """Lines where a module calls `.x11(`, `.d_y12(` or another of the six
    names of the arrays PovmFamily.elements returns."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in ELEMENT_NAMES
    ]


def test_families_are_evaluated_through_elements_only():
    # one evaluation path: a family's six arrays come from one elements(u) call
    package = Path(qbound.__file__).parent
    calls = {path.stem: element_calls(path) for path in sorted(package.glob("*.py"))}
    assert {stem: lines for stem, lines in calls.items() if lines} == {}


def test_all_lists_exactly_the_public_names_init_binds():
    # a name deleted from its module cannot stay exported
    init = Path(qbound.__file__)
    bound = set()
    for node in ast.parse(init.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom):
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.update(t.id for t in node.targets if isinstance(t, ast.Name))
    public = sorted(
        name for name in bound
        if not name.startswith("_") and not isinstance(getattr(qbound, name), types.ModuleType)
    )
    assert qbound.__all__ == sorted(set(qbound.__all__))
    assert qbound.__all__ == public


def imported_names(path):
    """Names a module imports with `from ... import`, at any depth."""
    return {
        alias.name
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_the_sphere_side_takes_no_quadrature_spec():
    # the sphere rule is fixed; only 1-D integrals over a POVM window take a QuadSpec
    from qbound import derivatives, metrics, phasespace, quadrature

    package = Path(qbound.__file__).parent
    assert [stem for stem in ("phasespace", "derivatives")
            if "QuadSpec" in imported_names(package / f"{stem}.py")] == []
    functions = [
        fn for mod in (phasespace, derivatives)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]
    functions += [quadrature.sphere_integrate, quadrature.doubling_residual_sphere,
                  metrics.husimi_classical_metric]
    with_spec = [fn.__qualname__ for fn in functions if "spec" in inspect.signature(fn).parameters]
    assert with_spec == []


def tensordot_uses(path):
    """`module.function` for every reference to tensordot in a module, the
    function being the top-level definition that holds it."""
    return [
        f"{path.stem}.{getattr(top, 'name', '<module>')}"
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if "tensordot" in (getattr(node, "attr", None), getattr(node, "id", None),
                           getattr(node, "name", None))
    ]


def test_the_kernel_is_the_only_tensordot():
    # sphere fields are contracted with one dot, and inverse_weyl builds its
    # operator from the entries through qubit.pauli_operator
    package = Path(qbound.__file__).parent
    uses = [use for path in sorted(package.glob("*.py")) for use in tensordot_uses(path)]
    assert uses == ["phasespace.sw_kernel"]
