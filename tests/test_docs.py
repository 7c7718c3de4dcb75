"""The README's code runs, and every exported name exists."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import calbounds

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python blocks"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    capsys.readouterr()


@pytest.mark.parametrize(
    "module",
    ["calbounds"] + [f"calbounds.{m.name}" for m in pkgutil.iter_modules(calbounds.__path__)],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
