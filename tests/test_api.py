import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gptensor
from gptensor import refine
from gptensor.generate import gen_random_ns, gen_random_sym
from gptensor.nonsymapprox import solve_generating_matrix_ns
from gptensor.symapprox import solve_generating_matrix

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


def refinement_step_constants():
    """Upper-case names in backticks in README's pipeline step 4, prefix dropped."""
    text = README.read_text(encoding="utf-8")
    step = text[text.index("4. **Refinement (optional).**") :].split("\n\n")[0]
    return set(re.findall(r"`(?:gptensor\.refine\.)?([A-Z][A-Z_]+)`", step))


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


@pytest.mark.parametrize("refine", [True, False], ids=["refined", "unrefined"])
@pytest.mark.parametrize("case", ["sym", "dense_compressed", "dense_whole"])
def test_diagnostics_are_python_scalars(case, refine):
    # 10^3 at r = 5 compresses every mode before LM; 4^3 at r = 4 compresses none
    if case == "sym":
        res = gptensor.approx_sym(gen_random_sym(6, 3, 3, 1e-2, seed=1)[0], 3, refine=refine)
    else:
        dims, r = ((10, 10, 10), 5) if case == "dense_compressed" else ((4, 4, 4), 4)
        res = gptensor.approx_nonsym(gen_random_ns(dims, r, 1e-2, seed=1)[0], r, refine=refine)
    assert res.refined == refine
    assert {k: type(v) for k, v in res.diagnostics.items() if type(v) not in (float, int, bool)} == {}


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


def test_readme_refinement_step_names_every_lm_rule():
    """A rule deleted from `refine` cannot stay documented, nor a new one go undocumented."""
    exported = {name for name in refine.__all__ if name.isupper()}
    assert refinement_step_constants() == exported
    assert exported == {"SKIP_REFINE_TOL", "MAX_ITERATIONS", "FTOL", "STEP_TOL", "INIT_DAMPING", "FULL_FINISH_GAIN"}


def test_array_holding_objects_compare_by_identity():
    """Results, spectra and generating matrices of one input are distinct objects, never an error."""
    F, _, _ = gen_random_sym(5, 3, 2, 1e-2, seed=3)
    G, _, _ = gen_random_ns((4, 3, 3), 2, 1e-2, seed=3)
    makers = [
        lambda: gptensor.approx_sym(F, 2, seed=1),
        lambda: gptensor.approx_nonsym(G, 2, seed=1),
        lambda: gptensor.spectrum_sym(F),
        lambda: gptensor.spectrum_ns(G),
        lambda: solve_generating_matrix(F, 2),
        lambda: solve_generating_matrix_ns(G, 2),
    ]
    for make in makers:
        a, b = make(), make()
        assert a == a and not a == b and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2
