"""README code and command lines run, its flags exist, every exported name exists, no module
has an unused import."""

import argparse
import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

import calbounds
from calbounds.cli import build_parser, main

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(calbounds.__file__).resolve().parent


def test_readme_python_blocks_run_in_order(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks, "README has no python blocks"
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    capsys.readouterr()


def test_readme_command_lines_exit_0(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.S | re.M)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    commands = [argv[1:] for argv in lines if argv[:1] == ["calbounds"]]
    assert len(commands) == 10
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(0)
    for name in ("scores.csv", "train_scores.csv", "test_scores.csv"):
        scores = rng.uniform(size=300)
        calbounds.save_scores(calbounds.ScoredDataset(scores, rng.uniform(size=300) < scores), name)
    for i, argv in enumerate(commands):
        assert main([*argv, "--out", str(tmp_path / f"out{i}")]) == 0, shlex.join(argv)
    capsys.readouterr()


def _option_strings(parser) -> set[str]:
    """Every option string of a parser and of all its subcommand parsers."""
    found = set()
    for action in parser._actions:
        found.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                found |= _option_strings(sub)
    return found


def test_readme_command_line_flags_exist():
    section = README.read_text().split("\n## Command line\n")[1].split("\n## ")[0]
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert flags, "README's Command line section names no flag"
    assert sorted(flags - _option_strings(build_parser())) == []


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


def test_src_calls_no_np_unique():
    # np.unique's first call imports numpy.ma; binning._unique is np.unique without it.
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "unique"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert calls == []


def _numbers_bins(node) -> bool:
    """Whether an AST node blocks scores by ``binning._BLOCK`` or searches a scheme's edges."""
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").endswith("binning") and any(a.name == "_BLOCK" for a in node.names)
    if isinstance(node, ast.Attribute):
        return node.attr == "_BLOCK" and isinstance(node.value, ast.Name) and node.value.id == "binning"
    if isinstance(node, ast.Call) and node.args:
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        return name == "searchsorted" and any(
            isinstance(n, ast.Attribute) and n.attr == "edges" for n in ast.walk(node.args[0])
        )
    return False


def test_only_binning_numbers_bins():
    # binning._blocks is the one pass that numbers bins; models._BLOCK is the
    # descent's own block size and is not binning's.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "binning.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if _numbers_bins(node)
    ]
    assert found == []
