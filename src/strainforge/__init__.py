"""strainforge: strain engineering of SiV centers in stressed nanostructures.

Maps thin-film-induced and intrinsic strain to the SiV ground-state
splitting, builds calibrated Monte Carlo ensembles, extrapolates
phonon-limited operating temperatures, and analyzes photoluminescence
spectra. See the ``strainforge`` CLI for the end-to-end pipeline.
"""

from .core import (
    DefectOrientation,
    EgCouplings,
    Frame,
    ORIENTATIONS,
    SivParameters,
    StrainTensor,
    defect_frame_strain,
    eg_couplings,
    ground_state_splitting,
    rotate_strain,
)
from .mechanics import (
    CrossSection,
    Layer,
    LayerStack,
    StrainField,
    beam_to_crystal,
    solve_beam_state,
    strain_at,
)
from .population import (
    Ensemble,
    PositionDistribution,
    calibrate_film_stress,
    calibrate_sigma,
    draw_ensemble,
    sample_chunks,
    sample_post_deposition,
    summarize,
)
from .thermal import (
    ThermalReference,
    gamma_up_relative,
    operability_curve,
    operational_temperature,
    thermal_occupation,
)
from .spectra import (
    EmitterAssignment,
    Peak,
    Spectrum,
    batch_gss_stats,
    detect_peaks,
    load_spectrum,
    pool_transitions,
)
from .config import Config, default_config, load_config

__version__ = "0.1.0"
