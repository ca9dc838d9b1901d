"""The package's shape: what it imports and what it exports."""

import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kobstruct
import kobstruct.catalog
import kobstruct.fgab
import kobstruct.kinv
import kobstruct.obstruct
from kobstruct import (
    FgAbGroup,
    GroupElement,
    GroupHom,
    IntMatrix,
    KInvariant,
    KPair,
    ObstructionWitness,
    Verdict,
)
from kobstruct.catalog import Atom, FreeProd, Literal, Tensor, UnitalFreeProd
from kobstruct.obstruct import OBSTRUCTED, TOR_NONZERO

ROOT = Path(__file__).resolve().parent.parent
MODULES = (kobstruct.fgab, kobstruct.kinv, kobstruct.obstruct, kobstruct.catalog)


def _absolute_imports(path):
    """The top-level module of every absolute import in a source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "kobstruct").glob("*.py"))
    assert sources
    for path in sources:
        outside = set(_absolute_imports(path)) - sys.stdlib_module_names
        assert not outside, (path.name, outside)


def test_bench_oracle_shares_no_code_with_the_package():
    # the tests' determinant comes from here, so it must not come from
    # the code it judges
    imports = set(_absolute_imports(ROOT / "bench" / "oracle.py"))
    assert "kobstruct" not in imports
    assert imports <= sys.stdlib_module_names, imports


def test_exports_resolve_to_their_home_modules():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
    names = kobstruct.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(kobstruct, name)
        home = sys.modules[obj.__module__]
        assert home in MODULES and name in home.__all__, name
    star = {}
    exec("from kobstruct import *", star)
    assert set(star) - {"__builtins__"} == set(names)


def _package_modules():
    """Every module of kobstruct, the command line included."""
    names = [info.name for info in pkgutil.iter_modules(kobstruct.__path__)]
    assert "cli" in names
    return [kobstruct] + [importlib.import_module(f"kobstruct.{name}") for name in names]


def test_no_state_between_calls():
    # a memo (functools.cache, lru_cache) carries results from one call
    # to the next; none is allowed
    allowed = set()
    memos = [
        (module.__name__, name)
        for module in _package_modules()
        for name, obj in vars(module).items()
        if callable(obj) and hasattr(obj, "cache_info")
    ]
    assert set(memos) == allowed, memos


def test_kinvariant_from_json_is_the_only_json_reader():
    readers = [
        f"{module.__name__}.{name}"
        for module in _package_modules()
        for name, obj in vars(module).items()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and "from_json" in vars(obj)
    ]
    assert readers == ["kobstruct.kinv.KInvariant"]
    assert not [name for name in vars(kobstruct.fgab) if name.startswith("_json")]


def test_only_kinv_builds_tensor_and_tor_groups():
    # the Kunneth summands of a pair are built once, by PairAnalysis in
    # kinv; every other module reads them from there
    for path in sorted((ROOT / "src" / "kobstruct").glob("*.py")):
        if path.stem in ("fgab", "kinv"):
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) in ("tensor", "tor")
        ]
        assert not calls, (path.name, calls)


def test_only_presentation_lays_out_relations():
    # fgab._presentation writes [m | R_g] for every Smith-form system;
    # stacking a relation matrix by hand would be a second layout
    for path in sorted((ROOT / "src" / "kobstruct").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) in ("hstack", "relation_matrix")
        ]
        assert not calls, (path.name, calls)


def test_the_command_line_loads_no_introspection_modules():
    # the value types are plain records, so importing the command line
    # pulls in neither dataclasses nor what it imports, nor typing, and
    # argparse loads only for a command line the direct reader leaves to
    # it; -S keeps site hooks from importing any of them first
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import kobstruct.cli; "
        "print(' '.join(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize', 'typing', 'argparse'} & set(sys.modules))))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code, str(ROOT / "src")], capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == [], out.stdout



def _values():
    """Each value type, two separately built equal instances of it and
    the name of one of its fields."""

    def group():
        return FgAbGroup(0, (2,))

    def inv():
        return KInvariant(group(), FgAbGroup(), group().element((1,)))

    def witness():
        return ObstructionWitness(TOR_NONZERO, (("tor", "Z/2"),), "nonzero Tor")

    builders = [
        (IntMatrix, lambda: IntMatrix([[1, 2], [3, 4]]), "data"),
        (FgAbGroup, group, "torsion"),
        (GroupElement, lambda: group().element((3,)), "coords"),
        (GroupHom, lambda: GroupHom(group(), group(), IntMatrix([[3]])), "matrix"),
        (KInvariant, inv, "unit"),
        (KPair, lambda: KPair(group(), FgAbGroup(1), {"K0A": GroupHom.identity(group())}, group().zero()), "k0"),
        (ObstructionWitness, witness, "detail"),
        (Verdict, lambda: Verdict(OBSTRUCTED, witness=witness()), "witness"),
        (Atom, lambda: Atom("O", 2), "param"),
        (Tensor, lambda: Tensor(Atom("O", 2), Atom("M", 3)), "left"),
        (FreeProd, lambda: FreeProd(Atom("O", 2), Atom("M", 3)), "right"),
        (UnitalFreeProd, lambda: UnitalFreeProd(Atom("C"), Literal(inv())), "right"),
        (Literal, lambda: Literal(inv()), "invariant"),
    ]
    return [pytest.param(cls, build(), build(), name, id=cls.__name__) for cls, build, name in builders]


VALUES = _values()


def test_every_value_type_is_checked():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    public = {cls for cls in subclasses(kobstruct.fgab._Value) if not cls.__name__.startswith("_")}
    assert public == {param.values[0] for param in VALUES}


@pytest.mark.parametrize("cls, value, twin, name", VALUES)
def test_values_are_immutable_records(cls, value, twin, name):
    assert type(value) is cls and value is not twin
    assert value == twin and not value != twin
    if cls is not KPair:  # its summands are a dict
        assert hash(value) == hash(twin)
    field = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, field)
    with pytest.raises(AttributeError):
        delattr(value, name)
    with pytest.raises(AttributeError):
        value.other = field
    assert getattr(value, name) is field and not hasattr(value, "__dict__")


def test_value_equality_is_by_type_and_fields():
    x, y = Atom("O", 2), Atom("M", 3)
    assert Atom("O", 2) == Atom("O", 2) and Atom("O", 2) != Atom("O", 3)
    assert Tensor(x, y) != FreeProd(x, y) and Tensor(x, y) != Tensor(y, x)
    assert Tensor(x, y) != (x, y) and Atom("O", 2) != ("O", 2)
    assert repr(Tensor(x, y)) == "Tensor(left=Atom(kind='O', param=2), right=Atom(kind='M', param=3))"
    # a KPair's summands default to a dict of its own
    a, b = KPair(FgAbGroup(1), FgAbGroup()), KPair(FgAbGroup(1), FgAbGroup())
    assert a == b and a.summands == {} and a.summands is not b.summands
    with pytest.raises(TypeError):
        hash(a)
