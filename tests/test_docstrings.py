"""Every Sphinx-style cross-reference in the package's docstrings names
something that exists.

A reference is ``:func:``, ``:class:`` or ``:mod:`` with its target in
backquotes.  A dotted target (``eqpart.distributions.recurrence_rows``) is
looked up from the package down; a bare one (``recurrence_rows``) in the
module whose docstring holds it, then in the package's public names.  When
a function moves between modules, the references to its old home fail
here.
"""
import ast
import importlib
import re
from pathlib import Path

import pytest

import eqpart

SRC = Path(eqpart.__file__).resolve().parent
REFERENCE = re.compile(r":(func|class|mod):`([^`]+)`")


def docstrings(tree: ast.Module):
    """The module's docstring and those of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc:
                yield doc


def references():
    for path in sorted(SRC.glob("*.py")):
        module = "eqpart" if path.stem == "__init__" else f"eqpart.{path.stem}"
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for doc in docstrings(tree):
            for role, target in REFERENCE.findall(doc):
                yield module, role, target


def exists(dotted: str) -> bool:
    """Whether the dotted name, from ``eqpart`` down, is a module or an
    attribute (a submodule is imported on the way, as Sphinx would)."""
    head, *parts = dotted.split(".")
    obj, name = importlib.import_module(head), head
    for part in parts:
        name = f"{name}.{part}"
        if not hasattr(obj, part):
            try:
                importlib.import_module(name)
            except ModuleNotFoundError:
                return False
        obj = getattr(obj, part, None)
        if obj is None:
            return False
    return True


def resolves(module: str, target: str) -> bool:
    if target == "eqpart" or target.startswith("eqpart."):
        return exists(target)
    return exists(f"{module}.{target}") or exists(f"eqpart.{target}")


REFERENCES = sorted(set(references()))


def test_the_docstrings_hold_references():
    assert len(REFERENCES) > 20


@pytest.mark.parametrize("module,role,target", REFERENCES,
                         ids=[f"{m}:{t}" for m, _, t in REFERENCES])
def test_a_docstring_reference_names_an_existing_attribute(module, role, target):
    assert resolves(module, target), f"{module}: :{role}:`{target}` names nothing"
