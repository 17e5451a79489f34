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
    box_flux,
    conjugate_paired,
    hofstadter_family,
    peierls_quantize,
    symmetric_gauge_box,
    weyl_translation,
)
from .spectra import (
    band_intervals,
    band_quantiles,
    check_hermitian,
    chern_numbers,
    distance_to_intervals,
    dos,
    eigenvalues_hermitian,
    exact_bands,
    fiber_eigenvalues,
    hausdorff,
    spectrum_union,
    tknn_cherns,
)
from .continuum import (
    C2_DEVIATION_ULPS,
    FourierPotential,
    LandauBasisSpec,
    Sector,
    StrongFieldRow,
    coset_count,
    coset_eigh,
    guiding_bands,
    inversion_even,
    level_form_factor,
    next_level_coupling,
    orbit_rows,
    sector_blocks,
    sector_plan,
    separated_cluster,
    strong_field_report,
    torus_basis,
)
from .dynamics import (
    DefectRow,
    defect_curve,
    defect_scaling,
    fit_slope_through_origin,
    nagy_intertwiner,
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

import types as _types
__all__ = [name for name, value in globals().items()  # the submodules left out
           if name[0] != "_" and not isinstance(value, _types.ModuleType)]
