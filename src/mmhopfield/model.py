"""Photon modes, Rabi couplings, and multi-mode Hamiltonian assembly.

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

A coupling is a plain (N, N) array W in rad/s, quoted at w_c = w_1 of
photons[0], with finite entries of either sign: the physics sees W only
through W W^T.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import fault

RAD_PER_SEC_PER_THZ = 2.0 * math.pi * 1e12

# Matter-oscillator floor (THz): keeps the dynamical matrix regular at zero
# field without shifting any branch by more than the floor itself.
MATTER_FREQ_FLOOR_THZ = 1e-6

# depth, relative to Gamma_jj, of the negative pivots of a singular Gamma
GRAM_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class PhotonMode:
    """One resonator mode; frequency in THz."""

    index: int
    frequency: float

    def __post_init__(self):
        if not (self.index >= 1 and self.index % 1 == 0):
            raise ValueError("mode index must be an integer >= 1")
        if found := fault(frequency=self.frequency):
            raise ValueError(": ".join(found))

    @property
    def omega(self):
        """Angular frequency in rad/s."""
        return self.frequency * RAD_PER_SEC_PER_THZ


def rabi_from_gram(strengths, gram):
    """Rabi matrices W = diag(strengths) F (..., N, N) of strengths (..., N)
    in rad/s and real overlap Gram matrices Gamma = F F^T (..., N, N) of unit
    diagonal, leading axes broadcast; N - rank(Gamma) matter modes stay bare.

    F is built one column per pivot: column j takes the remaining row of
    largest diagonal in the Schur complement of the pivots before it (the
    first on a tie), and holds sqrt(pivot) there and the complement's
    entries of the other remaining rows divided by it, so F is lower
    triangular once its rows are put in pivot order. A pivot within
    GRAM_PIVOT_TOL Gamma_pp of zero leaves its column zero. A lower pivot,
    a remaining entry beside a zero pivot above sqrt(GRAM_PIVOT_TOL Gamma_ii
    Gamma_pp) (Cauchy-Schwarz) and a complex Gamma raise ValueError. A unit
    diagonal takes row 0 first, so N = 2 gives
    [[1, 0], [eta, sqrt(1 - eta*eta)]]."""
    if np.iscomplexobj(gram):
        raise ValueError("overlap Gram matrix must be real")
    strengths, gram = (np.asarray(a, dtype=float) for a in (strengths, gram))
    n = strengths.shape[-1]
    if gram.shape[-2:] != (n, n):
        raise ValueError(f"Gram matrices of shape {gram.shape[-2:]} for {n} modes")
    shape = gram.shape
    gram = gram.reshape(-1, n, n)  # a flat stack, for fancy indexing
    sets = np.arange(len(gram))
    factor = np.zeros(gram.shape)
    rest = gram.copy()  # the Schur complement of the pivots so far
    diag = gram.diagonal(axis1=1, axis2=2)
    free = np.ones(diag.shape, dtype=bool)  # rows not pivoted yet
    for j in range(n):
        left = np.where(free, rest.diagonal(axis1=1, axis2=2), -np.inf)
        p = np.argmax(left, axis=1)
        free[sets, p] = False
        column, scale = rest[sets, :, p], diag[sets, p]
        pivot = column[sets, p]
        kept = pivot > GRAM_PIVOT_TOL * scale
        if not kept.all():
            # too deep or NaN, or beyond Cauchy-Schwarz beside a zero pivot
            deep = ~(pivot >= -GRAM_PIVOT_TOL * scale)
            loose = free & ~kept[:, None] & ~(column * column <= GRAM_PIVOT_TOL
                                              * scale[:, None] * diag)
            if deep.any() or loose.any():
                raise ValueError("overlap Gram matrix is not positive semidefinite")
        root = np.sqrt(pivot, out=np.zeros(len(pivot)), where=kept)
        np.divide(column, root[:, None], out=factor[:, :, j],
                  where=free & kept[:, None])
        factor[sets, p, j] = root
        rest -= factor[:, :, j, None] * factor[:, None, :, j]
    return strengths[..., :, None] * factor.reshape(shape)


def strengths_from_ratios(photons, ratios):
    """Strengths (rad/s), quoted at nu_c = nu_1, of the ratios (..., N) that
    fits report, each quoted at its own mode's resonance: ratio_j w_j
    sqrt(nu_1 / nu_j), the root from the sqrt(w_c) scaling law."""
    return (np.asarray(ratios, dtype=float) * [m.omega for m in photons]
            * [math.sqrt(photons[0].frequency / m.frequency) for m in photons])


def _from_ratios(photons, ratios, gram, **fields):
    """Rabi matrix, quoted at nu_1, of the ratios of strengths_from_ratios
    and an overlap Gram matrix, once fields, keyed by their rule, pass."""
    if found := fault(**fields):
        raise ValueError(": ".join(found))
    return rabi_from_gram(strengths_from_ratios(photons, ratios), gram)


def couplings_from_ratios(photons, ratio_11, ratio_2_tilde, eta):
    """Two-mode Rabi matrix of the ratios of strengths_from_ratios and the
    overlap eta in [0, 1], Gamma = [[1, eta], [eta, 1]], quoted at nu_1."""
    if len(photons) != 2:
        raise ValueError("ratio constructor expects exactly two photon modes")
    return _from_ratios(photons, [ratio_11, ratio_2_tilde],
                        [[1.0, eta], [eta, 1.0]], ratio_11=ratio_11,
                        ratio_2_tilde=ratio_2_tilde, eta=eta)


def single_mode_coupling(photon, ratio):
    """1+1 Rabi matrix with W/w = ratio quoted at nu_c = photon.frequency;
    the ratio is W_11/w_1, checked by the ratio_11 rule."""
    return _from_ratios([photon], [ratio], [[1.0]], ratio_11=ratio)


def _gram(rabi, w_c):
    """W W^T / w_c of each matrix in a stack of Rabi matrices (..., N, N)."""
    gram = rabi @ np.swapaxes(rabi, -1, -2) / w_c
    # BLAS products are not bit-exactly symmetric; the assembled form must be
    return 0.5 * (gram + np.swapaxes(gram, -1, -2))


def assemble_batch(photons, nu_c_values, rabi):
    """Quadratic forms of the coupled system on a grid of cyclotron
    frequencies (THz), for one Rabi matrix or a stack of them.

    rabi (..., N, N) holds Rabi matrices W (rad/s) quoted at nu_c = nu_1,
    with N the number of photon modes; each is rescaled from nu_1 by
    sqrt(w_c). Returns
    the bare angular frequencies w, shape (T, n), photon modes first, then
    matter modes, shared by every matrix of the stack, and the symmetric
    interaction matrices G, shape (..., T, n, n), for n = 2 N and T grid
    points, of the quadrature form

        H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_{ij} G_ij x_i x_j,

    i.e. G[nu, N + mu] = W[nu, mu] and G[nu, mu] = 2 h[nu, mu] on the
    photon block; the matter block vanishes. A single operating point is
    the grid [nu_c], T = 1.

    The diamagnetic block is evaluated in its nu_c-independent closed form
    from the nu_1-quoted couplings, so nu_c = 0 is legal: the matter
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
    nu_1 = photons[0].frequency
    blueshift = _gram(rabi, nu_1 * RAD_PER_SEC_PER_THZ)
    scaled = rabi[..., None, :, :] * np.sqrt(nu_c / nu_1)[:, None, None]

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

