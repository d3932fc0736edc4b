"""Multi-mode ultrastrong light-matter coupling on a magnetically tuned
two-dimensional electron gas.

Several cavity modes share one cyclotron transition; because every mode
couples through its spatial overlap with the same electron distribution, the
coupling matrix is overlap-parametrized rather than diagonal. The package
assembles the resulting bosonic Hamiltonian, diagonalizes it exactly, sweeps
the cyclotron frequency to produce polariton dispersions, computes overlap
parameters from sampled near-field profiles, and fits coupling constants to
measured peak positions.
"""

from .bogoliubov import (EigenSolution, build_dynamical_matrix, diagonalize,
                         hopfield_fractions)
from .dispersion import (DispersionFeatures, SpectrumConfig, SweepResult,
                         detect_features, spectrum_from_branches, sweep,
                         synthesize_spectrum, write_branch_csv)
from .errors import (ConvergenceError, DataCoverageError, FitConfigError,
                     InstabilityError, NumericalError, ProfileFormatError)
from .fit import (FitConfig, FitParams, FitResult, PeakDataset, PeakRecord,
                  fit, load_peaks, record_residuals, residual, save_peaks)
from .model import (CouplingSet, MaterialParams, PhotonMode,
                    QuadraticHamiltonian, assemble_hamiltonian,
                    couplings_from_overlap, couplings_from_ratios,
                    cyclotron_frequency,
                    diamagnetic_matrix, field_for_cyclotron,
                    mode_volume_for_coupling, rabi_microscopic,
                    rescale_coupling, single_mode_coupling)
from .overlap import (DomainMask, FieldProfile, central_square_mask,
                      effective_mode_volume, full_mask, load_mask,
                      load_profile, overlap_integral, overlap_parameter,
                      save_mask, save_profile, synthetic_profile)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "CouplingSet", "DataCoverageError",
    "DispersionFeatures", "DomainMask", "EigenSolution", "FieldProfile",
    "FitConfig", "FitConfigError", "FitParams", "FitResult",
    "InstabilityError", "MaterialParams", "NumericalError", "PeakDataset",
    "PeakRecord", "PhotonMode", "ProfileFormatError", "QuadraticHamiltonian",
    "SpectrumConfig", "SweepResult",
    "assemble_hamiltonian", "build_dynamical_matrix", "central_square_mask",
    "couplings_from_overlap", "couplings_from_ratios", "cyclotron_frequency",
    "detect_features", "diagonalize", "diamagnetic_matrix",
    "effective_mode_volume", "field_for_cyclotron", "fit", "full_mask",
    "hopfield_fractions", "load_mask", "load_peaks", "load_profile",
    "mode_volume_for_coupling", "overlap_integral", "overlap_parameter",
    "rabi_microscopic", "record_residuals", "rescale_coupling", "residual",
    "save_mask", "save_peaks", "save_profile",
    "single_mode_coupling", "spectrum_from_branches", "sweep",
    "synthesize_spectrum", "synthetic_profile", "write_branch_csv",
]
