"""The package's shape: what it imports and what it exports."""

import ast
import sys
from pathlib import Path

import kobstruct
import kobstruct.catalog
import kobstruct.fgab
import kobstruct.kinv
import kobstruct.obstruct

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
