"""Material parameters, coupling sets, and multi-mode Hamiltonian assembly.

Internally every computation runs in angular frequency (rad/s). Public
inputs and outputs are ordinary frequencies in THz; the 2*pi*1e12 conversion
happens exactly once, at this module's boundary (RAD_PER_SEC_PER_THZ).

The quadratic Hamiltonian of N_ph photon modes a_nu and an equal number of
cyclotron (matter) modes b_mu is, with hbar = 1,

    H = sum_nu w_nu a+_nu a_nu + sum_mu w_c b+_mu b_mu
        + sum_{nu,mu} W_{nu,mu} (b_mu + b+_mu)(a_nu + a+_nu)
        + sum_{nu,mu} h_{nu,mu} (a_nu + a+_nu)(a_mu + a+_mu),

where W is the Rabi coupling matrix and h = W W^T / w_c the diamagnetic
matrix. Because each Rabi entry scales as sqrt(w_c), h is independent of the
cyclotron frequency.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

# CODATA 2018
ELEMENTARY_CHARGE = 1.602176634e-19     # C (exact)
ELECTRON_MASS = 9.1093837015e-31        # kg
VACUUM_PERMITTIVITY = 8.8541878128e-12  # F/m
REDUCED_PLANCK = 1.054571817e-34        # J s

RAD_PER_SEC_PER_THZ = 2.0 * math.pi * 1e12

# Matter-oscillator floor (THz): keeps the dynamical matrix regular at zero
# field without shifting any branch by more than the floor itself.
MATTER_FREQ_FLOOR_THZ = 1e-6


def _frozen_array(obj, name, value, dtype=float):
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed CODATA constants; not meant to be overridden."""

    elementary_charge: float = ELEMENTARY_CHARGE
    electron_mass: float = ELECTRON_MASS
    vacuum_permittivity: float = VACUUM_PERMITTIVITY
    reduced_planck: float = REDUCED_PLANCK

    def __post_init__(self):
        for name in ("elementary_charge", "electron_mass",
                     "vacuum_permittivity", "reduced_planck"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")


CODATA = PhysicalConstants()


@dataclass(frozen=True)
class MaterialParams:
    """Two-dimensional electron gas hosting the cyclotron transition.

    Defaults describe a GaAs triple quantum well stack:
    m*/m_e = 0.07, 1.25e12 cm^-2 per well, eps_r = 12.9.
    """

    effective_mass_ratio: float = 0.07
    sheet_density: float = 1.25e16       # electrons per m^2 per well
    qw_count: int = 3
    background_permittivity: float = 12.9

    def __post_init__(self):
        if not 0.0 < self.effective_mass_ratio:
            raise ValueError("effective_mass_ratio must be positive")
        if self.sheet_density < 0.0:
            raise ValueError("sheet_density must be non-negative")
        if self.qw_count < 1:
            raise ValueError("qw_count must be at least 1")
        if self.background_permittivity < 1.0:
            raise ValueError("background_permittivity must be >= 1")

    @property
    def effective_mass(self):
        """Effective electron mass in kg."""
        return self.effective_mass_ratio * ELECTRON_MASS


@dataclass(frozen=True)
class PhotonMode:
    """One resonator mode. frequency in THz; effective_mode_volume in m^3
    (already divided by the self-overlap of the mode profile), only needed
    for the microscopic coupling route."""

    index: int
    frequency: float
    effective_mode_volume: float | None = None
    label: str = ""

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("mode index must be >= 1")
        if self.frequency <= 0.0:
            raise ValueError("photon frequency must be positive")
        if self.effective_mode_volume is not None and self.effective_mode_volume <= 0.0:
            raise ValueError("effective mode volume must be positive")

    @property
    def omega(self):
        """Angular frequency in rad/s."""
        return self.frequency * RAD_PER_SEC_PER_THZ


@dataclass(frozen=True)
class CouplingSet:
    """Rabi couplings W[nu, mu] (rad/s) between photon mode nu and matter
    mode mu, quoted at cyclotron frequency reference_cyclotron (THz).

    In the canonical basis the matrix is lower triangular: the second matter
    mode is constructed orthogonal to the first, so W[0, 1] = 0. overlap is
    the spatial overlap parameter eta that splits the second-row coupling.
    """

    n_photon: int
    n_matter: int
    rabi: np.ndarray
    overlap: float
    reference_cyclotron: float

    def __post_init__(self):
        if self.n_photon < 1:
            raise ValueError("need at least one photon mode")
        if self.n_matter != self.n_photon:
            raise ValueError("matter mode count must equal photon mode count")
        rabi = _frozen_array(self, "rabi", self.rabi)
        if rabi.shape != (self.n_photon, self.n_matter):
            raise ValueError(
                f"rabi shape {rabi.shape} does not match "
                f"({self.n_photon}, {self.n_matter})")
        if not np.all(np.isfinite(rabi)):
            raise ValueError("rabi entries must be finite")
        if np.any(rabi < 0.0):
            raise ValueError("rabi entries must be non-negative")
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError("overlap must lie in [0, 1]")
        if not np.isfinite(self.reference_cyclotron) or self.reference_cyclotron < 0.0:
            raise ValueError("reference_cyclotron must be non-negative")


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """Bosonic quadratic form in the quadrature convention.

    diag_freqs are the bare angular frequencies (photon modes first, then
    matter modes). interaction is the symmetric matrix G in

        H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_{ij} G_ij x_i x_j,

    i.e. G[nu, N_ph + mu] = W[nu, mu] and G[nu, mu] = 2 h[nu, mu] on the
    photon block; the matter block vanishes.
    """

    n_photon: int
    n_matter: int
    diag_freqs: np.ndarray
    interaction: np.ndarray

    def __post_init__(self):
        freqs = _frozen_array(self, "diag_freqs", self.diag_freqs)
        inter = _frozen_array(self, "interaction", self.interaction)
        n = self.n_photon + self.n_matter
        if freqs.shape != (n,):
            raise ValueError(f"diag_freqs must have length {n}")
        if np.any(freqs <= 0.0) or not np.all(np.isfinite(freqs)):
            raise ValueError("diagonal frequencies must be positive and finite")
        if inter.shape != (n, n):
            raise ValueError(f"interaction must be {n}x{n}")
        if not np.all(np.isfinite(inter)):
            raise ValueError("interaction entries must be finite")
        if not np.array_equal(inter, inter.T):
            raise ValueError("interaction matrix must be symmetric")

    @property
    def n_modes(self):
        return self.n_photon + self.n_matter


def cyclotron_frequency(field_tesla, material=MaterialParams()):
    """Cyclotron frequency nu_c = e B / (2 pi m*) in THz."""
    if field_tesla < 0.0:
        raise ValueError("magnetic field must be non-negative")
    nu_hz = ELEMENTARY_CHARGE * field_tesla / (2.0 * math.pi * material.effective_mass)
    return nu_hz / 1e12


def field_for_cyclotron(nu_c, material=MaterialParams()):
    """Magnetic field (T) producing cyclotron frequency nu_c (THz)."""
    if nu_c < 0.0:
        raise ValueError("cyclotron frequency must be non-negative")
    return 2.0 * math.pi * material.effective_mass * nu_c * 1e12 / ELEMENTARY_CHARGE


def couplings_from_overlap(omega_r_11, omega_r_2_tilde, eta, reference_cyclotron):
    """Two-mode coupling set from the overlap decomposition.

    The second photon mode couples to the full cyclotron excitation of its
    own near field with strength omega_r_2_tilde (rad/s); the overlap eta
    with the first mode's matter excitation splits it as

        W[1, 0] = eta * omega_r_2_tilde,
        W[1, 1] = sqrt(1 - eta^2) * omega_r_2_tilde,

    so that W[1, 0]^2 + W[1, 1]^2 = omega_r_2_tilde^2. Both coupling inputs
    are quoted at reference_cyclotron (THz).
    """
    if omega_r_11 < 0.0 or omega_r_2_tilde < 0.0:
        raise ValueError("Rabi couplings must be non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    rabi = np.array([
        [omega_r_11, 0.0],
        [eta * omega_r_2_tilde, math.sqrt(1.0 - eta * eta) * omega_r_2_tilde],
    ])
    return CouplingSet(n_photon=2, n_matter=2, rabi=rabi, overlap=eta,
                       reference_cyclotron=reference_cyclotron)


def couplings_from_ratios(photons, ratio_11, ratio_2_tilde, eta):
    """Coupling set from normalized ratios quoted at the respective resonance.

    ratio_11 = W_11 / w_1 at nu_c = nu_1 and ratio_2_tilde = Wt_2 / w_2 at
    nu_c = nu_2, the convention in which fitted couplings are reported. The
    returned set is stored at the common reference nu_1; the second row picks
    up sqrt(nu_1 / nu_2) from the sqrt(w_c) scaling law.
    """
    if len(photons) != 2:
        raise ValueError("ratio constructor expects exactly two photon modes")
    nu1, nu2 = photons[0].frequency, photons[1].frequency
    w11 = ratio_11 * photons[0].omega
    wt2 = ratio_2_tilde * photons[1].omega * math.sqrt(nu1 / nu2)
    return couplings_from_overlap(w11, wt2, eta, reference_cyclotron=nu1)


def single_mode_coupling(photon, ratio):
    """1+1 coupling set with W/w = ratio quoted at nu_c = photon.frequency."""
    rabi = np.array([[ratio * photon.omega]])
    return CouplingSet(n_photon=1, n_matter=1, rabi=rabi, overlap=1.0,
                       reference_cyclotron=photon.frequency)


def rabi_microscopic(mode, material, nu_c, constants=CODATA):
    """Microscopic vacuum Rabi frequency (rad/s) of one photon mode.

        W = sqrt( w_c n_qw rho e^2 / (2 m* eps0 eps_r w_nu V_nu) )

    with w_c = 2 pi nu_c and V_nu the effective mode volume."""
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive")
    if mode.effective_mode_volume is None:
        raise ValueError(f"photon mode {mode.index} has no effective mode volume")
    w_c = nu_c * RAD_PER_SEC_PER_THZ
    num = (w_c * material.qw_count * material.sheet_density
           * constants.elementary_charge ** 2)
    den = (2.0 * material.effective_mass * constants.vacuum_permittivity
           * material.background_permittivity * mode.omega
           * mode.effective_mode_volume)
    return math.sqrt(num / den)


def mode_volume_for_coupling(mode, material, nu_c, omega_r, constants=CODATA):
    """Effective mode volume (m^3) that reproduces Rabi coupling omega_r at
    cyclotron frequency nu_c. Inverse of rabi_microscopic."""
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive")
    if omega_r <= 0.0:
        raise ValueError("omega_r must be positive")
    w_c = nu_c * RAD_PER_SEC_PER_THZ
    num = (w_c * material.qw_count * material.sheet_density
           * constants.elementary_charge ** 2)
    den = (2.0 * material.effective_mass * constants.vacuum_permittivity
           * material.background_permittivity * mode.omega)
    return num / den / omega_r ** 2


def rescale_coupling(coupling, nu_c):
    """Coupling set re-quoted at cyclotron frequency nu_c (THz).

    Every Rabi entry scales as sqrt(nu_c / reference_cyclotron); the overlap
    is a geometric property and stays put.
    """
    if nu_c < 0.0:
        raise ValueError("nu_c must be non-negative")
    if coupling.reference_cyclotron <= 0.0:
        raise ValueError("coupling set has no positive reference cyclotron frequency")
    factor = math.sqrt(nu_c / coupling.reference_cyclotron)
    return CouplingSet(n_photon=coupling.n_photon, n_matter=coupling.n_matter,
                       rabi=coupling.rabi * factor, overlap=coupling.overlap,
                       reference_cyclotron=nu_c)


def diamagnetic_matrix(coupling, nu_c):
    """Diamagnetic (A^2) matrix h = W W^T / w_c in rad/s, with the couplings
    of the given set interpreted at cyclotron frequency nu_c (THz).

    Under the sqrt(w_c) rescaling of the couplings this matrix is the same
    for every nu_c > 0, which is how the zero-field limit stays finite.
    """
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive; use the reference-quoted "
                         "couplings for the zero-field limit")
    w_c = nu_c * RAD_PER_SEC_PER_THZ
    gram = coupling.rabi @ coupling.rabi.T / w_c
    # BLAS products are not bit-exactly symmetric; the assembled form must be
    return 0.5 * (gram + gram.T)


def assemble_batch(photons, nu_c_values, coupling):
    """Quadratic forms of the coupled system on a grid of cyclotron
    frequencies (THz), with couplings rescaled from their reference by
    sqrt(w_c).

    Returns the stacked bare angular frequencies, shape (T, n), and
    interaction matrices G, shape (T, n, n), in the layout of
    QuadraticHamiltonian, for n = n_photon + n_matter and T grid points.

    The diamagnetic block is evaluated in its nu_c-independent closed form
    from the reference-quoted couplings, so nu_c = 0 is legal: the matter
    oscillators then sit at the MATTER_FREQ_FLOOR_THZ regularization floor
    with vanishing Rabi coupling while the diamagnetic blue shift survives.
    """
    if len(photons) != coupling.n_photon:
        raise ValueError(
            f"{len(photons)} photon modes but coupling set has {coupling.n_photon}")
    nu_c = np.asarray(nu_c_values, dtype=float)
    if nu_c.ndim != 1:
        raise ValueError("nu_c values must form a one-dimensional grid")
    if not np.all(np.isfinite(nu_c)) or np.any(nu_c < 0.0):
        raise ValueError("nu_c must be finite and non-negative")
    if coupling.reference_cyclotron <= 0.0:
        raise ValueError(
            "coupling set has no positive reference cyclotron frequency")
    blueshift = diamagnetic_matrix(coupling, coupling.reference_cyclotron)
    rabi = (coupling.rabi[None]
            * np.sqrt(nu_c / coupling.reference_cyclotron)[:, None, None])

    n_ph = coupling.n_photon
    n = n_ph + coupling.n_matter
    freqs = np.empty((len(nu_c), n))
    freqs[:, :n_ph] = [m.omega for m in photons]
    freqs[:, n_ph:] = (np.maximum(nu_c, MATTER_FREQ_FLOOR_THZ)
                       * RAD_PER_SEC_PER_THZ)[:, None]

    inter = np.zeros((len(nu_c), n, n))
    inter[:, :n_ph, :n_ph] = 2.0 * blueshift
    inter[:, :n_ph, n_ph:] = rabi
    inter[:, n_ph:, :n_ph] = np.swapaxes(rabi, 1, 2)
    return freqs, inter


def assemble_hamiltonian(photons, nu_c, coupling):
    """Quadratic Hamiltonian of the coupled system at one cyclotron
    frequency nu_c (THz); the single-point case of assemble_batch."""
    freqs, inter = assemble_batch(photons, [nu_c], coupling)
    return QuadraticHamiltonian(n_photon=coupling.n_photon,
                                n_matter=coupling.n_matter,
                                diag_freqs=freqs[0], interaction=inter[0])
