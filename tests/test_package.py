import argparse
import ast
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import gridtopo
from gridtopo import cli


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # ``from gridtopo.<module> import *`` and misleads readers of the API
    checked, stale = [], []
    for info in pkgutil.iter_modules(gridtopo.__path__):
        module = importlib.import_module(f"gridtopo.{info.name}")
        for name in getattr(module, "__all__", ()):
            checked.append(f"{info.name}.{name}")
            if not hasattr(module, name):
                stale.append(f"{info.name}.{name}")
    assert "topology.learn_sign_rule" in checked
    assert stale == []


def _has_path(obj, parts):
    """Whether ``obj`` has the attribute path ``parts``."""
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _resolves(name, module):
    """Whether ``name`` is an attribute path in ``module``, else in the
    ``gridtopo`` namespace, else a fully qualified name."""
    parts = name.split(".")
    if _has_path(module, parts) or _has_path(gridtopo, parts):
        return True
    for k in range(len(parts), 0, -1):
        try:
            return _has_path(importlib.import_module(".".join(parts[:k])), parts[k:])
        except ImportError:
            continue
    return False


def test_docstring_references_resolve():
    # a docstring that names a deleted or renamed function misleads its reader
    pattern = re.compile(r":(?:func|class|meth|attr|mod):`~?([\w.]+)`")
    checked, dangling = 0, []
    for path in sorted(Path(gridtopo.__file__).parent.glob("*.py")):
        name = "gridtopo" if path.stem == "__init__" else f"gridtopo.{path.stem}"
        module = importlib.import_module(name)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                for ref in pattern.findall(ast.get_docstring(node, clean=False) or ""):
                    checked += 1
                    if not _resolves(ref, module):
                        dangling.append(f"{path.name}: {ref}")
    assert checked > 0
    assert dangling == []


def _readme_commands():
    """Each ``gridtopo`` command in README's ``sh`` blocks, continuation lines
    joined, as its argument list."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["gridtopo"]:
                commands.append(words[1:])
    return commands


def test_readme_commands_parse():
    parser = cli.build_parser()
    commands = _readme_commands()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append(" ".join(argv))
    assert rejected == []
    # the README shows every subcommand at least once
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in commands} == set(subparsers.choices)
