"""The package runs on the standard library and numpy alone."""

from __future__ import annotations

import ast
import os
import re
import sys

import pytest

import minprompt
from conftest import fresh_interpreter

PACKAGE_DIR = os.path.dirname(minprompt.__file__)
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "minprompt"}


def _foreign_imports(source: str) -> list[tuple[int, str]]:
    """(line, top-level module) of each absolute import of a module that is
    neither in the standard library nor numpy nor minprompt."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in ALLOWED:
                found.append((node.lineno, top))
    return found


def test_package_imports_only_stdlib_and_numpy():
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "r", encoding="utf-8") as handle:
                foreign = _foreign_imports(handle.read())
            if foreign:
                found[name] = foreign
    assert found == {}, f"imports outside the standard library and numpy: {found}"


def test_import_scan_sees_each_form():
    source = (
        "import requests\nimport yaml.loader as y\nfrom scipy import sparse\n"
        "import os, attr\n"
        "import json\nimport numpy as np\nfrom urllib import request\n"
        "from . import fileio\nfrom .errors import ParseError\nfrom minprompt import cli\n"
    )
    assert _foreign_imports(source) == [(1, "requests"), (2, "yaml"), (3, "scipy"), (4, "attr")]


def _file_opens(source: str) -> list[int]:
    """Lines that name the builtin open or gzip.open, called or not."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Name) and node.id == "open")
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "open"
            and isinstance(node.value, ast.Name)
            and node.value.id == "gzip"
        )
    )


def test_only_fileio_opens_files():
    # one module owns reading and writing, so every file gets the same
    # UTF-8 and gzip handling and every write the same atomic rename
    found = {}
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py") and name != "fileio.py":
            with open(os.path.join(PACKAGE_DIR, name), "r", encoding="utf-8") as handle:
                opens = _file_opens(handle.read())
            if opens:
                found[name] = opens
    assert found == {}, f"files opened outside fileio.py, by line: {found}"


def test_open_scan_sees_each_form():
    source = (
        "open(p)\nwith gzip.open(p, 'rt') as f:\n    pass\nopener = open\n"
        "urllib.request.urlopen(r)\nos.open(p, 0)\nhandle.open\n"
    )
    assert _file_opens(source) == [1, 2, 4]


def _unnamed_definitions(sources: list[str]) -> set[str]:
    """Functions and classes that no other line of the sources names, and
    methods (properties too) that none reads as an attribute. A function or
    class counts as used by any identifier, attribute or import that spells
    its name; a method only by an attribute, so a local variable of the same
    name does not hide it. Dunder methods are called implicitly and never
    listed."""
    tree = ast.Module(body=[ast.parse(s) for s in sources], type_ignores=[])
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined, methods, named, read = set(), set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            methods.update(item.name for item in node.body if isinstance(item, functions))
        if isinstance(node, (*functions, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Name):
            named.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            named.add(node.name)
    unused = (defined - methods - named - read) | (methods - read)
    return {name for name in unused if not re.fullmatch(r"__\w+__", name)}


def test_package_holds_no_code_only_tests_use():
    sources = []
    for name in sorted(os.listdir(PACKAGE_DIR)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE_DIR, name), "r", encoding="utf-8") as handle:
                sources.append(handle.read())
    # perfbench reads both: its check calls is_dominating_set and its tracer
    # reads SentenceGraph.postings; ROADMAP item 3 moves the first to
    # tests/oracles.py and perfbench and drops the second
    assert _unnamed_definitions(sources) == {"is_dominating_set", "postings"}


def test_unnamed_definition_scan_sees_each_form():
    sources = [
        "def called(): pass\ndef unused(): pass\nclass Annotation: pass\n"
        "class Lonely:\n    def __init__(self): pass\n    def method(self): pass\n"
        "    def orphan(self): pass\n    async def waited(self): pass\n"
        "    @property\n    def shadowed(self): pass\n"
        "def imported(): pass\ndef referenced(): pass\n",
        "from .a import imported\nx: Annotation = called()\nobj.method()\n"
        "await obj.waited()\nhandlers = [referenced]\n"
        "orphan = shadowed = len(handlers)\nprint(orphan, shadowed)\n",
    ]
    assert _unnamed_definitions(sources) == {"unused", "Lonely", "orphan", "shadowed"}


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.\-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_cli_import_loads_no_http_modules():
    # only the service recognizer needs HTTP, and it imports it when it runs
    code = "import sys, minprompt.cli; print('http.client' in sys.modules)"
    assert fresh_interpreter(code) == "False"


def test_text_modules_load_no_numpy():
    # numpy serves the graph, the greedy and retrieval; the package root,
    # ingest, recognition and sample assembly do without it
    code = (
        "import sys, minprompt, minprompt.corpus, minprompt.entities, minprompt.qgen, "
        "minprompt.fileio; print('numpy' in sys.modules)"
    )
    assert fresh_interpreter(code) == "False"


def test_readme_library_imports_run():
    with open(README, "r", encoding="utf-8") as handle:
        readme = handle.read()
    section = readme[readme.index("\n## Library\n") :]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
