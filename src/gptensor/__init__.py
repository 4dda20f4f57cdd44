"""Low-rank approximation and decomposition of complex tensors.

Symmetric and nonsymmetric tensors are approximated by sums of rank-1 terms
through a linear-algebra pipeline: least-squares fitting of generating
polynomials, Schur-based point extraction, coefficient fitting, and optional
nonlinear refinement.
"""

from .experiments import InstanceSpec, RunReport, bench_preset, relerr, run_experiment
from .generate import NAMED_TENSORS, gen_random_ns, gen_random_sym, named_tensor
from .linalg import DEFAULT_RCOND, NumericalError, SchurPair, lstsq_min_norm, schur, svd
from .monomials import monomials_exact, monomials_upto, multiindex_to_power, multiplicity
from .nonsymapprox import NsApproxResult, approx_nonsym, rank1_closed_form_ns, reconstruct_ns
from .rank import (
    SpectrumReport,
    catalecticant_ns,
    catalecticant_sym,
    default_split,
    estimate_rank,
    spectrum_ns,
    spectrum_sym,
)
from .refine import RefineOptions, refine_nonsym, refine_sym
from .symapprox import SymApproxResult, approx_sym, rank1_closed_form, reconstruct_sym
from .tensorio import FormatError, parse_report, read_tensor, write_report, write_tensor
from .tensors import DenseTensor, SymTensor, outer_product, sym_power

__version__ = "0.1.0"

__all__ = [
    "DenseTensor",
    "SymTensor",
    "outer_product",
    "sym_power",
    "approx_sym",
    "approx_nonsym",
    "SymApproxResult",
    "NsApproxResult",
    "rank1_closed_form",
    "rank1_closed_form_ns",
    "reconstruct_sym",
    "reconstruct_ns",
    "RefineOptions",
    "refine_sym",
    "refine_nonsym",
    "SpectrumReport",
    "catalecticant_sym",
    "catalecticant_ns",
    "default_split",
    "estimate_rank",
    "spectrum_sym",
    "spectrum_ns",
    "gen_random_sym",
    "gen_random_ns",
    "named_tensor",
    "NAMED_TENSORS",
    "InstanceSpec",
    "RunReport",
    "run_experiment",
    "bench_preset",
    "relerr",
    "read_tensor",
    "write_tensor",
    "parse_report",
    "write_report",
    "FormatError",
    "NumericalError",
    "SchurPair",
    "lstsq_min_norm",
    "svd",
    "schur",
    "DEFAULT_RCOND",
    "monomials_exact",
    "monomials_upto",
    "multiindex_to_power",
    "multiplicity",
]
