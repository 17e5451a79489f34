"""Magnetic lattice models, Landau-level numerics, and their spectral checks."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateBandsError,
    FluxlabError,
    InfeasibleModelError,
    NumericalCheckError,
)
from .lattice import (
    NEAREST_NEIGHBOR,
    BlochFiberFamily,
    RationalFlux,
    add_onsite_disorder,
    conjugate_paired,
    hofstadter_family,
    peierls_quantize,
    symmetric_gauge_box,
    weyl_translation,
)
from .spectra import (
    band_intervals,
    check_hermitian,
    chern_numbers,
    default_gap_tol,
    distance_to_intervals,
    dos,
    eigenvalues_hermitian,
    eigh_hermitian,
    exact_bands,
    fiber_eigenvalues,
    hausdorff,
    sample_values,
    spectrum_union,
    tknn_cherns,
)
from .continuum import (
    ContinuumHamiltonian,
    FourierPotential,
    LandauBasisSpec,
    StrongFieldRow,
    cluster_gap,
    continuum_hamiltonian,
    coset_count,
    coset_eigh,
    field_operator,
    level_form_factor,
    lll_effective,
    next_level_coupling,
    plane_wave_element,
    strong_field_report,
    torus_basis,
)
from .dynamics import (
    DefectRow,
    defect_curve,
    defect_scaling,
    fit_slope_through_origin,
    nagy_intertwiner,
    projector_distance,
    random_packet,
)
from .disorder import (
    anderson_realization,
    ensemble_dos,
    gap_fill_fraction,
    hashed_bits,
    hashed_normal,
    hashed_uniform,
)

__all__ = [name for name in dir() if not name.startswith("_")]
