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
        if not 0.0 < self.effective_mass_ratio < math.inf:
            raise ValueError("effective_mass_ratio must be finite and positive")
        if not 0.0 <= self.sheet_density < math.inf:
            raise ValueError("sheet_density must be finite and non-negative")
        if self.qw_count < 1:
            raise ValueError("qw_count must be at least 1")
        if not 1.0 <= self.background_permittivity < math.inf:
            raise ValueError("background_permittivity must be finite and >= 1")

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
        if not 0.0 < self.frequency < math.inf:
            raise ValueError("photon frequency must be finite and positive")
        if (self.effective_mode_volume is not None
                and not 0.0 < self.effective_mode_volume < math.inf):
            raise ValueError("effective mode volume must be finite and positive")

    @property
    def omega(self):
        """Angular frequency in rad/s."""
        return self.frequency * RAD_PER_SEC_PER_THZ


@dataclass(frozen=True)
class CouplingSet:
    """Rabi couplings W[nu, mu] (rad/s) between photon mode nu and matter
    mode mu, quoted at cyclotron frequency reference_cyclotron (THz).

    W is square. In the canonical basis it is lower triangular: the second
    matter mode is constructed orthogonal to the first, so W[0, 1] = 0.
    """

    rabi: np.ndarray
    reference_cyclotron: float

    def __post_init__(self):
        rabi = _frozen_array(self, "rabi", self.rabi)
        if rabi.ndim != 2 or rabi.shape[0] != rabi.shape[1] or rabi.size == 0:
            raise ValueError(f"rabi must be square and non-empty, not {rabi.shape}")
        if not np.all(np.isfinite(rabi)):
            raise ValueError("rabi entries must be finite")
        if np.any(rabi < 0.0):
            raise ValueError("rabi entries must be non-negative")
        if not np.isfinite(self.reference_cyclotron) or self.reference_cyclotron < 0.0:
            raise ValueError("reference_cyclotron must be non-negative")

    @property
    def n_photon(self):
        """Number of photon modes, and of matter modes."""
        return self.rabi.shape[0]


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


def two_mode_rabi(strengths, eta):
    """Two-mode Rabi matrices W = diag(strengths) F(eta), shape (..., 2, 2),
    with the overlap factor F = [[1, 0], [eta, sqrt(1 - eta^2)]].

    strengths (..., 2) are (omega_r_11, omega_r_2_tilde) in rad/s and eta
    (...) the overlap in [0, 1]; leading axes broadcast. The second photon
    mode couples to the full cyclotron excitation of its own near field,
    which eta splits so that W[1, 0]^2 + W[1, 1]^2 = omega_r_2_tilde^2.
    """
    eta = np.asarray(eta, dtype=float)
    factor = np.zeros(eta.shape + (2, 2))
    factor[..., 0, 0] = 1.0
    factor[..., 1, 0] = eta
    factor[..., 1, 1] = np.sqrt(1.0 - eta * eta)
    return np.asarray(strengths, dtype=float)[..., :, None] * factor


def strengths_from_ratios(photons, ratios):
    """Strengths (omega_r_11, omega_r_2_tilde) in rad/s, quoted at nu_c =
    nu_1, of the ratios (..., 2) = (W_11 / w_1 at nu_1, Wt_2 / w_2 at nu_2)
    that fits report; the second picks up sqrt(nu_1 / nu_2) from the
    sqrt(w_c) scaling law."""
    if len(photons) != 2:
        raise ValueError("ratio constructor expects exactly two photon modes")
    nu1, nu2 = photons[0].frequency, photons[1].frequency
    return (np.asarray(ratios, dtype=float)
            * [photons[0].omega, photons[1].omega]
            * [1.0, math.sqrt(nu1 / nu2)])


def couplings_from_overlap(omega_r_11, omega_r_2_tilde, eta, reference_cyclotron):
    """Two-mode coupling set of two_mode_rabi: strengths omega_r_11 and
    omega_r_2_tilde (rad/s) split by the overlap eta, both quoted at
    reference_cyclotron (THz)."""
    for strength in (omega_r_11, omega_r_2_tilde):
        if not 0.0 <= strength < math.inf:
            raise ValueError("Rabi couplings must be finite and non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return CouplingSet(rabi=two_mode_rabi([omega_r_11, omega_r_2_tilde], eta),
                       reference_cyclotron=reference_cyclotron)


def couplings_from_ratios(photons, ratio_11, ratio_2_tilde, eta):
    """Coupling set from normalized ratios quoted at the respective resonance
    (see strengths_from_ratios), stored at the common reference nu_1."""
    w11, wt2 = strengths_from_ratios(photons, [ratio_11, ratio_2_tilde]).tolist()
    return couplings_from_overlap(w11, wt2, eta,
                                  reference_cyclotron=photons[0].frequency)


def single_mode_coupling(photon, ratio):
    """1+1 coupling set with W/w = ratio quoted at nu_c = photon.frequency."""
    return CouplingSet(rabi=[[ratio * photon.omega]],
                       reference_cyclotron=photon.frequency)


def rabi_microscopic(mode, material, nu_c):
    """Microscopic vacuum Rabi frequency (rad/s) of one photon mode.

        W = sqrt( w_c n_qw rho e^2 / (2 m* eps0 eps_r w_nu V_nu) )

    with w_c = 2 pi nu_c and V_nu the effective mode volume."""
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive")
    if mode.effective_mode_volume is None:
        raise ValueError(f"photon mode {mode.index} has no effective mode volume")
    w_c = nu_c * RAD_PER_SEC_PER_THZ
    num = (w_c * material.qw_count * material.sheet_density
           * ELEMENTARY_CHARGE ** 2)
    den = (2.0 * material.effective_mass * VACUUM_PERMITTIVITY
           * material.background_permittivity * mode.omega
           * mode.effective_mode_volume)
    return math.sqrt(num / den)


def mode_volume_for_coupling(mode, material, nu_c, omega_r):
    """Effective mode volume (m^3) that reproduces Rabi coupling omega_r at
    cyclotron frequency nu_c. Inverse of rabi_microscopic."""
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive")
    if omega_r <= 0.0:
        raise ValueError("omega_r must be positive")
    w_c = nu_c * RAD_PER_SEC_PER_THZ
    num = (w_c * material.qw_count * material.sheet_density
           * ELEMENTARY_CHARGE ** 2)
    den = (2.0 * material.effective_mass * VACUUM_PERMITTIVITY
           * material.background_permittivity * mode.omega)
    return num / den / omega_r ** 2


def rescale_coupling(coupling, nu_c):
    """Coupling set re-quoted at cyclotron frequency nu_c (THz): every Rabi
    entry scales as sqrt(nu_c / reference_cyclotron)."""
    if nu_c < 0.0:
        raise ValueError("nu_c must be non-negative")
    if coupling.reference_cyclotron <= 0.0:
        raise ValueError("coupling set has no positive reference cyclotron frequency")
    factor = math.sqrt(nu_c / coupling.reference_cyclotron)
    return CouplingSet(rabi=coupling.rabi * factor, reference_cyclotron=nu_c)


def _gram(rabi, w_c):
    """W W^T / w_c of each matrix in a stack of Rabi matrices (..., N, N)."""
    gram = rabi @ np.swapaxes(rabi, -1, -2) / w_c
    # BLAS products are not bit-exactly symmetric; the assembled form must be
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def diamagnetic_matrix(coupling, nu_c):
    """Diamagnetic (A^2) matrix h = W W^T / w_c in rad/s, with the couplings
    of the given set interpreted at cyclotron frequency nu_c (THz).

    Under the sqrt(w_c) rescaling of the couplings this matrix is the same
    for every nu_c > 0, which is how the zero-field limit stays finite.
    """
    if nu_c <= 0.0:
        raise ValueError("nu_c must be positive; use the reference-quoted "
                         "couplings for the zero-field limit")
    return _gram(coupling.rabi, nu_c * RAD_PER_SEC_PER_THZ)


def assemble_batch(photons, nu_c_values, rabi, reference_cyclotron):
    """Quadratic forms of the coupled system on a grid of cyclotron
    frequencies (THz), for one Rabi matrix or a stack of them.

    rabi (..., N, N) holds Rabi matrices W (rad/s) quoted at
    reference_cyclotron (THz), as CouplingSet.rabi, with N the number of
    photon modes; each is rescaled from the reference by sqrt(w_c). Returns
    the bare angular frequencies, shape (T, n), shared by every matrix of
    the stack, and the interaction matrices G, shape (..., T, n, n), in the
    layout of QuadraticHamiltonian, for n = 2 N and T grid points.

    The diamagnetic block is evaluated in its nu_c-independent closed form
    from the reference-quoted couplings, so nu_c = 0 is legal: the matter
    oscillators then sit at the MATTER_FREQ_FLOOR_THZ regularization floor
    with vanishing Rabi coupling while the diamagnetic blue shift survives.
    """
    rabi = np.asarray(rabi, dtype=float)
    n_ph = len(photons)
    if rabi.shape[-2:] != (n_ph, n_ph):
        raise ValueError(
            f"{n_ph} photon modes but Rabi matrices of shape {rabi.shape[-2:]}")
    nu_c = np.asarray(nu_c_values, dtype=float)
    if nu_c.ndim != 1:
        raise ValueError("nu_c values must form a one-dimensional grid")
    if not np.all(np.isfinite(nu_c)) or np.any(nu_c < 0.0):
        raise ValueError("nu_c must be finite and non-negative")
    if not reference_cyclotron > 0.0:
        raise ValueError(
            "coupling set has no positive reference cyclotron frequency")
    blueshift = _gram(rabi, reference_cyclotron * RAD_PER_SEC_PER_THZ)
    scaled = (rabi[..., None, :, :]
              * np.sqrt(nu_c / reference_cyclotron)[:, None, None])

    n = 2 * n_ph
    freqs = np.empty((len(nu_c), n))
    freqs[:, :n_ph] = [m.omega for m in photons]
    freqs[:, n_ph:] = (np.maximum(nu_c, MATTER_FREQ_FLOOR_THZ)
                       * RAD_PER_SEC_PER_THZ)[:, None]

    inter = np.zeros(scaled.shape[:-2] + (n, n))
    inter[..., :n_ph, :n_ph] = 2.0 * blueshift[..., None, :, :]
    inter[..., :n_ph, n_ph:] = scaled
    inter[..., n_ph:, :n_ph] = np.swapaxes(scaled, -1, -2)
    return freqs, inter


def assemble_hamiltonian(photons, nu_c, coupling):
    """Quadratic Hamiltonian of the coupled system at one cyclotron
    frequency nu_c (THz); the single-point case of assemble_batch."""
    freqs, inter = assemble_batch(photons, [nu_c], coupling.rabi,
                                  coupling.reference_cyclotron)
    return QuadraticHamiltonian(n_photon=coupling.n_photon,
                                n_matter=coupling.n_photon,
                                diag_freqs=freqs[0], interaction=inter[0])
