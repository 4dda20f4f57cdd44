import importlib
import pkgutil
import re
from pathlib import Path

import gptensor

README = Path(__file__).resolve().parents[1] / "README.md"


def entry_point_names():
    """Names called or named in the first column of README's entry-point table."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("Key entry points:") :].split("\n\n")[1]
    names = set()
    for row in table.splitlines()[2:]:
        first_cell = row.split("|")[1]
        for span in re.findall(r"`([^`]*)`", first_cell):
            names.update(re.findall(r"([A-Za-z_]\w*)(?=\(|$)", span))
    return names


def test_readme_entry_points_resolve():
    names = entry_point_names()
    assert {"approx_sym", "approx_nonsym", "run_experiment", "InstanceSpec", "parse_report"} <= names
    assert [n for n in sorted(names) if not hasattr(gptensor, n)] == []


def test_all_names_resolve():
    assert [n for n in gptensor.__all__ if not hasattr(gptensor, n)] == []
    # every module's export list too: a deleted helper left in one fails here
    for info in pkgutil.iter_modules(gptensor.__path__):
        module = importlib.import_module(f"gptensor.{info.name}")
        assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == [], info.name
    # the public API is README's table: a new export needs a README row
    assert set(gptensor.__all__) == entry_point_names()
