import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gptensor
from gptensor.generate import gen_random_ns, gen_random_sym

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


def diagnostics_keys():
    """Keys in the first column of README's `diagnostics` table."""
    text = README.read_text(encoding="utf-8")
    table = text[text.index("| key | meaning |") :].split("\n\n")[0]
    return {re.search(r"`([^`]*)`", row.split("|")[1]).group(1) for row in table.splitlines()[2:]}


@pytest.fixture(scope="module")
def exact_results():
    F, _, _ = gen_random_sym(15, 4, 10, 0.0, seed=1)
    G, _, _ = gen_random_ns((20, 20, 20), 10, 0.0, seed=1)
    return gptensor.approx_sym(F, 10), gptensor.approx_nonsym(G, 10)


def test_readme_diagnostics_table_lists_every_key(exact_results):
    sym, dense = exact_results
    assert diagnostics_keys() == set(sym.diagnostics) | set(dense.diagnostics)


@pytest.mark.parametrize("kind", [0, 1], ids=["sym", "dense"])
def test_exact_inputs_have_rounding_level_schur_defect(exact_results, kind):
    diagnostics = exact_results[kind].diagnostics
    assert diagnostics["schur_defect"] <= 1e-12 and not diagnostics["low_confidence"]


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
