"""Low-rank approximation and decomposition of complex tensors.

Symmetric and nonsymmetric tensors are approximated by sums of rank-1 terms
through a linear-algebra pipeline: least-squares fitting of generating
polynomials, Schur-based point extraction, coefficient fitting, and optional
nonlinear refinement.
"""

from .experiments import InstanceSpec, RunReport, run_experiment
from .generate import NAMED_TENSORS, gen_random_ns, gen_random_sym, named_tensor
from .linalg import NumericalError
from .nonsymapprox import NsApproxResult, approx_nonsym, rank1_closed_form_ns
from .rank import SpectrumReport, estimate_rank, spectrum_ns, spectrum_sym
from .refine import RefineOptions, refine_nonsym, refine_sym
from .symapprox import SymApproxResult, approx_sym, rank1_closed_form
from .tensorio import FormatError, parse_report, read_tensor, write_tensor
from .tensors import DenseTensor, SymTensor

__version__ = "0.1.0"

# README's entry-point table lists exactly these names; other helpers are
# imported from their modules.
__all__ = [
    "approx_sym",
    "approx_nonsym",
    "spectrum_sym",
    "spectrum_ns",
    "estimate_rank",
    "rank1_closed_form",
    "rank1_closed_form_ns",
    "refine_sym",
    "refine_nonsym",
    "gen_random_sym",
    "gen_random_ns",
    "named_tensor",
    "NAMED_TENSORS",
    "run_experiment",
    "InstanceSpec",
    "read_tensor",
    "write_tensor",
    "parse_report",
    "DenseTensor",
    "SymTensor",
    "SymApproxResult",
    "NsApproxResult",
    "SpectrumReport",
    "RunReport",
    "RefineOptions",
    "FormatError",
    "NumericalError",
]
