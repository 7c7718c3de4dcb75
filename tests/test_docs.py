"""The README's code runs, every exported name exists, and no module has an unused import."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import calbounds

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(calbounds.__file__).resolve().parent


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
        for alias in node.names
    }
    module = importlib.import_module(f"calbounds.{path.stem}".removesuffix(".__init__"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= set(getattr(module, "__all__", ()))  # a re-export counts as a use
    assert sorted(imported - used) == []
