"""Keep the docstring examples and the README's Python examples honest."""

import doctest
import re
from pathlib import Path

import kobstruct.catalog
import kobstruct.fgab
import kobstruct.kinv
import kobstruct.obstruct

README = Path(__file__).resolve().parent.parent / "README.md"


def test_module_doctests():
    for module in (
        kobstruct.fgab,
        kobstruct.kinv,
        kobstruct.obstruct,
        kobstruct.catalog,
    ):
        result = doctest.testmod(module)
        assert result.attempted > 0, f"no doctests found in {module.__name__}"
        assert result.failed == 0, f"doctest failures in {module.__name__}"


def test_readme_python_examples():
    # every ```python block, in order, in one namespace: later blocks
    # read the names earlier ones define
    text = README.read_text()
    blocks = list(re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S))
    assert len(blocks) >= 3
    namespace = {}
    for block in blocks:
        # pad with the lines before the block, so a traceback names its README line
        source = "\n" * text.count("\n", 0, block.start(1)) + block[1]
        exec(compile(source, str(README), "exec"), namespace)
