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


def grid_reads(path):
    """Lines where a module calls `.grid()`, `.moment(`, `moment_integrals` or
    `require_unit_mass`, by attribute or by name."""
    names = ("grid", "moment", "moment_integrals", "require_unit_mass")
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in names
    ]


def test_cli_reads_no_grid():
    # a command reads a family through the API, whose grid readers check its mass
    assert grid_reads(Path(qbound.__file__).parent / "cli.py") == []


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


def test_a_povm_family_carries_its_own_quadrature_spec():
    # a family's window rule is its `spec` field, resized by dataclasses.replace;
    # only the two functions that build their own Gaussian family take a spec
    from qbound import bounds, measurement, metrics

    functions = [
        fn for mod in (measurement, metrics, bounds)
        for name, fn in vars(mod).items()
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_")
    ]
    functions += [fn for name, fn in vars(measurement.PovmFamily).items()
                  if inspect.isfunction(fn) and not name.startswith("_")]
    with_spec = [fn.__qualname__ for fn in functions if "spec" in inspect.signature(fn).parameters]
    assert sorted(with_spec) == ["bounds_sweep", "metric_report"]


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


def weight_contractions(path):
    """Lines where a module contracts a `.w` weight array: `X.w @ ...` or
    `np.dot(X.w, ...)`."""
    def left_operand(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return node.left
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "dot" and node.args:
            return node.args[0]
        return None

    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(left_operand(node), ast.Attribute) and left_operand(node).attr == "w"
    ]


def test_only_quadrature_contracts_weights():
    # every quadrature sum is quadrature._weighted_sum, which holds the
    # non-finite contract once
    sums = {path.stem: weight_contractions(path) for path in MODULES if path.stem != "quadrature"}
    assert {stem: lines for stem, lines in sums.items() if lines} == {}


def private_definitions(tree):
    """(name, statement) for every private top-level function, class and
    constant of a module; dunders such as __all__ are not private."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [top.name]
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            targets = top.targets if isinstance(top, ast.Assign) else [top.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, top) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def name_reads(tree):
    """(name, top-level statement) for every name or attribute a module reads."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield node.id, top
            elif isinstance(node, ast.Attribute):
                yield node.attr, top


def test_every_private_definition_is_used_outside_itself():
    # a private name that only its own definition reads is dead code; a read
    # counts from any module of the package, matched by name
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
             for p in Path(qbound.__file__).parent.glob("*.py")}
    reads = {}
    for stem, tree in trees.items():
        for name, top in name_reads(tree):
            reads.setdefault(name, set()).add((stem, id(top)))
    unused = sorted(
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name, top in private_definitions(tree)
        if not reads.get(name, set()) - {(stem, id(top))}
    )
    assert unused == []


# quadrature shares its non-finite check, weighted sum and sphere rule with
# the modules that integrate; every other name crossing a module line is public
SHARED_PRIVATE = {"quadrature._check_finite", "quadrature._weighted_sum",
                  "quadrature._omega", "quadrature._sphere_nodes"}


def private_imports(path):
    """`module._name` for every private name a module imports from a sibling,
    or reads as an attribute of a sibling it imports whole."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import a, b
                siblings.update(alias.asname or alias.name for alias in node.names)
            else:
                yield from (f"{node.module}.{alias.name}" for alias in node.names
                            if alias.name.startswith("_"))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and node.attr.startswith("_")):
            yield f"{node.value.id}.{node.attr}"


def test_modules_meet_at_public_names():
    crossing = sorted(f"{path.stem} <- {name}" for path in MODULES
                      for name in private_imports(path) if name not in SHARED_PRIVATE)
    assert crossing == []
