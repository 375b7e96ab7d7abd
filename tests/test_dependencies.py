"""The package runs on the standard library and numpy alone."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys

import pytest

import minprompt

PACKAGE_DIR = os.path.dirname(minprompt.__file__)
PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
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


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as handle:
        dependencies = tomllib.load(handle)["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.\-]+", dep).group() for dep in dependencies] == ["numpy"]


def test_cli_import_loads_no_http_modules():
    # a fresh interpreter: the test session itself has loaded http.server;
    # only the service recognizer needs HTTP, and it imports it when it runs
    code = "import sys, minprompt.cli; print('http.client' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.path.dirname(PACKAGE_DIR)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"
