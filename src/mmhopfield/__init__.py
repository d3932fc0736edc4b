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

import importlib
import sys
import types

# public name -> the submodule that defines it; each submodule loads on the
# first use of one of its names, so a CLI call loads only what it runs
_SOURCES = {
    "bogoliubov": ("hopfield_coefficients", "normal_modes"),
    "dispersion": ("DispersionFeatures", "SpectrumConfig", "SweepResult",
                   "detect_features", "spectrum_from_branches", "sweep",
                   "write_branch_csv"),
    "errors": ("ConvergenceError", "DataCoverageError", "InstabilityError",
               "NumericalError", "OverlapError", "ProfileFormatError",
               "cyclotron_frequency"),
    "fit": ("FitConfig", "FitResult", "PeakDataset", "PeakRecord", "fit",
            "load_peaks", "save_peaks"),
    "model": ("PhotonMode", "assemble_batch", "couplings_from_ratios",
              "rabi_from_gram", "single_mode_coupling"),
    "overlap": ("DomainMask", "FieldProfile", "central_square_mask",
                "full_mask", "gram", "load_mask",
                "load_profile", "overlap_parameters", "save_mask",
                "save_profile", "synthetic_profile"),
}
_MODULE_OF = {name: module for module, names in _SOURCES.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """mmhopfield.fit is the fit() function, also once the submodule of that
    name is loaded: the import system then binds the submodule on the
    package, and the setter of this property drops that binding."""

    fit = property(lambda self: __getattr__("fit"), lambda self, module: None)


sys.modules[__name__].__class__ = _Package
