"""Static checks on the package source, by its syntax tree.

- Every factorization that can fail is a LAPACK call in `gptensor.linalg`:
  no module, `linalg` included, calls a `numpy.linalg` routine but `norm` or
  names `LinAlgError`, so every such failure is a `NumericalError`.
- Every import is used: a name an import binds is read somewhere in its
  module, or listed in the module's `__all__`.
- The command line names no diagnostic: `cli.py` subscripts no
  `.diagnostics`, so the report writes every key a solve records.
"""

import ast
from pathlib import Path

import pytest

import gptensor

SOURCES = sorted(Path(gptensor.__file__).parent.glob("*.py"))


def dotted(node) -> str:
    """'np.linalg.eigh' for the attribute chain np.linalg.eigh; '' for any other expression."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


def factorization_uses(tree) -> list[str]:
    """Every `numpy.linalg` name but `norm`, and every `LinAlgError`, that the module refers to."""
    imports = [a for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    numpy = {a.asname or a.name for a in imports if a.name == "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name == "numpy.linalg"]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            found += [f"numpy.{a.name}" for a in node.names if a.name in ("linalg", "LinAlgError")]
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [f"numpy.linalg.{a.name}" for a in node.names if a.name != "norm"]
        elif isinstance(node, ast.Attribute):
            name = dotted(node)
            parts = name.split(".")
            if len(parts) == 3 and parts[0] in numpy and parts[1] == "linalg" and parts[2] != "norm":
                found.append(name)
        elif isinstance(node, ast.Name) and node.id == "LinAlgError":
            found.append(node.id)
    return found


def unused_imports(tree) -> list[str]:
    """Names bound by an import (but `from __future__`) that the module neither reads nor lists in `__all__`."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(name for name in bound if name not in read)


def diagnostics_subscripts(tree) -> list[int]:
    """The lines of every subscript of a `.diagnostics` attribute, such as `res.diagnostics["fit_cond"]`."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "diagnostics"
    ]


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_failing_factorizations_only_in_linalg(path):
    found = factorization_uses(ast.parse(path.read_text()))
    assert not found, f"{path.name} reaches {found}; call LAPACK through gptensor.linalg instead"


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_every_import_is_used(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_cli_names_no_diagnostic():
    path = Path(gptensor.__file__).parent / "cli.py"
    assert diagnostics_subscripts(ast.parse(path.read_text())) == []


def test_the_scan_sees_what_it_forbids():
    source = """
import numpy as np
import os
import scipy.linalg
from numpy.linalg import LinAlgError
from numpy import linalg as la

try:
    np.linalg.eigh(np.linalg.norm(scipy.linalg.blas))
except np.linalg.LinAlgError:
    pass
"""
    tree = ast.parse(source)
    assert sorted(factorization_uses(tree)) == [
        "np.linalg.LinAlgError",
        "np.linalg.eigh",
        "numpy.linalg",
        "numpy.linalg.LinAlgError",
    ]
    assert unused_imports(tree) == ["LinAlgError", "la", "os"]
    tree = ast.parse('gain = res.diagnostics["outside_gain"]\nres.diagnostics["x"] = 1\nkeys = list(res.diagnostics)\n')
    assert diagnostics_subscripts(tree) == [1, 2]
