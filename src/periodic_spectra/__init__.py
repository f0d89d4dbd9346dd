"""Spectra of periodic lattice graphs and their non-compact perturbations.

The package computes band spectra of Z^d-periodic graph Laplacians through
their quasimomentum fiber matrices, and certifies numerically that those
spectra survive perturbations (vertex/edge removals and additions, possibly
infinitely many) whenever arbitrarily large lattice boxes stay untouched: it
constructs normalized test states parked on such boxes and measures how fast
their Laplacian residuals decay.
"""

__version__ = "0.1.0"

from .catalog import (
    CatalogEntry,
    clear_box_monte_carlo,
    clear_box_probability,
    get_entry,
    make_cone,
    make_counterexample,
    make_g11,
    make_g21,
    make_half_plane,
    make_lattice,
    make_random_pendant,
)
from .floquet import (
    SpectrumApprox,
    band_eigensystem,
    band_values,
    essential_spectrum,
    fiber_matrices,
    locate_band_value,
)
from .graphs import (
    FundEdge,
    GraphOracle,
    PeriodicGraph,
    Vertex,
    build_periodic,
    periodic_oracle,
    propagation_length,
    vert,
)
from .perturbation import (
    Patch,
    PerturbedGraph,
    PredicatePatch,
    WindowReport,
    find_unperturbed_box,
)
from .region import Region
from .truncation import (
    BlochVectors,
    BoxGraph,
    SectorVectors,
    TruncationReport,
    compare_spectra,
    spectrum_of_box,
    truncate,
    zero_mode_count,
)
from .weyl import (
    ResidualRow,
    WeylState,
    build_weyl_state,
    fit_loglog_slope,
    residual,
    residual_bound,
    residual_row,
    residual_sweep,
    shifted_tent_diff_parts,
    shifted_tent_diff_sum,
    tent_norm_sq,
)

__all__ = [
    "__version__",
    "BlochVectors",
    "BoxGraph",
    "CatalogEntry",
    "FundEdge",
    "GraphOracle",
    "Patch",
    "PeriodicGraph",
    "PerturbedGraph",
    "PredicatePatch",
    "Region",
    "ResidualRow",
    "SectorVectors",
    "SpectrumApprox",
    "TruncationReport",
    "Vertex",
    "WeylState",
    "WindowReport",
    "band_eigensystem",
    "band_values",
    "build_periodic",
    "build_weyl_state",
    "clear_box_monte_carlo",
    "clear_box_probability",
    "compare_spectra",
    "essential_spectrum",
    "fiber_matrices",
    "find_unperturbed_box",
    "fit_loglog_slope",
    "get_entry",
    "locate_band_value",
    "make_cone",
    "make_counterexample",
    "make_g11",
    "make_g21",
    "make_half_plane",
    "make_lattice",
    "make_random_pendant",
    "periodic_oracle",
    "propagation_length",
    "residual",
    "residual_bound",
    "residual_row",
    "residual_sweep",
    "shifted_tent_diff_parts",
    "shifted_tent_diff_sum",
    "spectrum_of_box",
    "tent_norm_sq",
    "truncate",
    "vert",
    "zero_mode_count",
]
