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

# depth, relative to Gamma_jj, of the negative pivots of a singular Gamma
GRAM_PIVOT_TOL = 1e-12


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

    W is square and its entries finite, of either sign: the physics sees W
    only through W W^T. rabi_from_gram makes it lower triangular, each
    matter mode orthogonal to those of the photon modes before it.
    """

    rabi: np.ndarray
    reference_cyclotron: float

    def __post_init__(self):
        rabi = _frozen_array(self, "rabi", self.rabi)
        if rabi.ndim != 2 or rabi.shape[0] != rabi.shape[1] or rabi.size == 0:
            raise ValueError(f"rabi must be square and non-empty, not {rabi.shape}")
        if not np.all(np.isfinite(rabi)):
            raise ValueError("rabi entries must be finite")
        if not np.isfinite(self.reference_cyclotron) or self.reference_cyclotron < 0.0:
            raise ValueError("reference_cyclotron must be non-negative")

    @property
    def n_photon(self):
        """Number of photon modes, and of matter modes."""
        return self.rabi.shape[0]


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


def rabi_from_gram(strengths, gram):
    """Rabi matrices W = diag(strengths) F (..., N, N) of strengths (..., N)
    in rad/s and real overlap Gram matrices Gamma = F F^T (..., N, N) of unit
    diagonal, leading axes broadcast; N - rank(Gamma) matter modes stay bare.

    F is lower triangular, built column by column: the pivot is Gamma_jj -
    sum_k F_jk^2 and the entries below it (Gamma_ij - sum_k F_ik F_jk) /
    sqrt(pivot); a pivot in [-GRAM_PIVOT_TOL Gamma_jj, 0] leaves its column
    zero. A lower pivot, an entry below a zero pivot above
    sqrt(GRAM_PIVOT_TOL Gamma_ii Gamma_jj) (Cauchy-Schwarz) and a complex
    Gamma raise ValueError. N = 2 gives [[1, 0], [eta, sqrt(1 - eta*eta)]]."""
    if np.iscomplexobj(gram):
        raise ValueError("overlap Gram matrix must be real")
    strengths, gram = (np.asarray(a, dtype=float) for a in (strengths, gram))
    n = strengths.shape[-1]
    if gram.shape[-2:] != (n, n):
        raise ValueError(f"Gram matrices of shape {gram.shape[-2:]} for {n} modes")
    factor = np.zeros(gram.shape)
    for j in range(n):
        column = gram[..., j:, j]
        if j:  # column 0 has nothing to subtract
            column = column - np.add.reduce(
                factor[..., j:, :j] * factor[..., j, None, :j], axis=-1)
        pivot, below = column[..., 0], column[..., 1:]
        kept = pivot > 0.0
        if not np.logical_and.reduce(kept, axis=None):
            # too deep or NaN, or beyond Cauchy-Schwarz below a zero pivot
            diag = gram.diagonal(axis1=-2, axis2=-1)
            deep = ~(pivot >= -GRAM_PIVOT_TOL * diag[..., j])
            loose = ~kept[..., None] & ~(below * below <= GRAM_PIVOT_TOL
                                         * diag[..., j, None] * diag[..., j + 1:])
            if deep.any() or loose.any():
                raise ValueError("overlap Gram matrix is not positive semidefinite")
        root = np.sqrt(pivot, out=factor[..., j, j], where=kept)
        if j + 1 < n:
            np.divide(below, root[..., None], out=factor[..., j + 1:, j],
                      where=kept[..., None])
    return strengths[..., :, None] * factor


def strengths_from_ratios(photons, ratios):
    """Strengths (rad/s), quoted at nu_c = nu_1, of the ratios (..., N) that
    fits report, each quoted at its own mode's resonance: ratio_j w_j
    sqrt(nu_1 / nu_j), the root from the sqrt(w_c) scaling law."""
    return (np.asarray(ratios, dtype=float) * [m.omega for m in photons]
            * [math.sqrt(photons[0].frequency / m.frequency) for m in photons])


def couplings_from_ratios(photons, ratio_11, ratio_2_tilde, eta):
    """Two-mode coupling set of the ratios of strengths_from_ratios and the
    overlap eta in [0, 1], Gamma = [[1, eta], [eta, 1]], quoted at nu_1."""
    if len(photons) != 2:
        raise ValueError("ratio constructor expects exactly two photon modes")
    strengths = strengths_from_ratios(photons, [ratio_11, ratio_2_tilde])
    if not np.all((0.0 <= strengths) & (strengths < math.inf)):
        raise ValueError("Rabi couplings must be finite and non-negative")
    if not 0.0 <= eta <= 1.0:
        raise ValueError("eta must lie in [0, 1]")
    return CouplingSet(rabi=rabi_from_gram(strengths, [[1.0, eta], [eta, 1.0]]),
                       reference_cyclotron=photons[0].frequency)


def single_mode_coupling(photon, ratio):
    """1+1 coupling set with W/w = ratio quoted at nu_c = photon.frequency."""
    return CouplingSet(
        rabi=rabi_from_gram(strengths_from_ratios([photon], [ratio]), [[1.0]]),
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


def _gram(rabi, w_c):
    """W W^T / w_c of each matrix in a stack of Rabi matrices (..., N, N)."""
    gram = rabi @ np.swapaxes(rabi, -1, -2) / w_c
    # BLAS products are not bit-exactly symmetric; the assembled form must be
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def assemble_batch(photons, nu_c_values, rabi, reference_cyclotron):
    """Quadratic forms of the coupled system on a grid of cyclotron
    frequencies (THz), for one Rabi matrix or a stack of them.

    rabi (..., N, N) holds Rabi matrices W (rad/s) quoted at
    reference_cyclotron (THz), as CouplingSet.rabi, with N the number of
    photon modes; each is rescaled from the reference by sqrt(w_c). Returns
    the bare angular frequencies w, shape (T, n), photon modes first, then
    matter modes, shared by every matrix of the stack, and the symmetric
    interaction matrices G, shape (..., T, n, n), for n = 2 N and T grid
    points, of the quadrature form

        H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_{ij} G_ij x_i x_j,

    i.e. G[nu, N + mu] = W[nu, mu] and G[nu, mu] = 2 h[nu, mu] on the
    photon block; the matter block vanishes. A single operating point is
    the grid [nu_c], T = 1.

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

