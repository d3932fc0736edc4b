"""Bosonic Bogoliubov diagonalization of the quadratic form.

The Hamiltonian H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_ij G_ij x_i x_j of
QuadraticHamiltonian couples the modes through their x quadratures only.
Its equations of motion xdot = D p, pdot = -(D + 2G) x with D = diag(w)
make the squared polariton frequencies the eigenvalues of the real
symmetric matrix

    S = D^(1/2) (D + 2G) D^(1/2)

(Hopfield, Phys. Rev. 112, 1555 (1958); Colpa, Physica A 93, 327 (1978)
treats the general Bogoliubov form, with p-p and x-p terms, that does not
arise here). The form is stable exactly when S is positive definite, so
the smallest eigenvalue of S is the stability margin. With e_k the unit
eigenvector of S at Omega_k^2, the polariton annihilation operator
p_k = sum_j X_kj c_j + Y_kj c+_j has the real Hopfield coefficients

    X_kj, Y_kj = (sqrt(Omega_k / w_j) +/- sqrt(w_j / Omega_k)) e_jk / 2,

so the bare-mode weights |X_kj|^2 - |Y_kj|^2 = e_jk^2 sum to one branch by
branch. normal_modes solves a whole stack of forms, such as every point of
a bias sweep, with one eigh (or eigvalsh) call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, NumericalError
from .model import RAD_PER_SEC_PER_THZ

# relative frequency window treated as degenerate when ordering branches
DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class EigenSolution:
    """Positive-frequency normal modes of one quadratic form.

    frequencies are in THz, ascending; rows of hopfield_x / hopfield_y hold
    the real annihilation / creation coefficients of one polariton branch,
    and fractions[k, j] = X_kj^2 - Y_kj^2 is the weight of bare mode j in
    branch k (photon modes first).
    """

    frequencies: np.ndarray
    hopfield_x: np.ndarray
    hopfield_y: np.ndarray
    fractions: np.ndarray
    n_photon: int

    def __post_init__(self):
        for name in ("frequencies", "hopfield_x", "hopfield_y", "fractions"):
            arr = np.array(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self):
        return len(self.frequencies)

    @property
    def photon_fractions(self):
        """Total photon weight of each branch."""
        return self.fractions[:, :self.n_photon].sum(axis=1)

    @property
    def matter_fractions(self):
        """Total matter weight of each branch."""
        return self.fractions[:, self.n_photon:].sum(axis=1)


def _branch_order(freqs, fractions, n_photon):
    """Ascending order; within degenerate groups photon-heavy branches come
    first, then lower dominant bare-mode index."""
    order = list(np.argsort(freqs, kind="stable"))
    i = 0
    while i < len(order):
        j = i + 1
        while (j < len(order)
               and freqs[order[j]] - freqs[order[i]]
               <= DEGENERACY_TOL * max(abs(freqs[order[i]]), abs(freqs[order[j]]))):
            j += 1
        if j - i > 1:
            group = order[i:j]
            photon = fractions[:, :n_photon].sum(axis=1)
            group.sort(key=lambda k: (-photon[k], int(np.argmax(fractions[k]))))
            order[i:j] = group
        i = j
    return np.array(order)


def normal_modes(diag_freqs, interaction, n_photon, vectors=True):
    """Polariton modes of a stack of quadratic forms.

    diag_freqs (T, n) and interaction (..., T, n, n) are in rad/s, laid out
    as in QuadraticHamiltonian; leading axes stack several forms per point.
    Returns (frequencies, vecs): frequencies (..., T, n) in THz, ascending
    per row, and vecs[..., t, k] the unit eigenvector e_k of S at
    frequencies[..., t, k], so vecs ** 2 are the bare-mode fractions. With
    vectors=False only eigenvalues are computed and vecs is None. eigh picks
    arbitrary vectors inside a degenerate subspace, so at points with
    frequencies degenerate within DEGENERACY_TOL the branches are reordered
    deterministically, photon-heavy (counting the first n_photon modes)
    first. Raises InstabilityError, with the flat index of the first failing
    form as its entry, unless every S is positive definite.
    """
    root = np.sqrt(diag_freqs)
    s = 2.0 * np.asarray(interaction, dtype=float)
    diag = np.arange(s.shape[-1])
    s[..., diag, diag] += diag_freqs
    s *= root[..., :, None]
    s *= root[..., None, :]
    try:
        if vectors:
            squared, evecs = np.linalg.eigh(s)
        else:
            squared, evecs = np.linalg.eigvalsh(s), None
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed to converge: {exc}") from exc

    lowest = squared[..., 0].ravel()
    unstable = np.flatnonzero(~(lowest > 0.0))
    if unstable.size:
        t = int(unstable[0])
        raise InstabilityError(
            "quadratic form is not positive definite: smallest squared "
            f"frequency {lowest[t] / RAD_PER_SEC_PER_THZ ** 2:.6e} THz^2",
            entry=t)
    freqs = np.sqrt(squared) / RAD_PER_SEC_PER_THZ
    if evecs is None:
        return freqs, None

    vecs = np.swapaxes(evecs, -1, -2)
    degenerate = np.diff(freqs, axis=-1) <= DEGENERACY_TOL * freqs[..., 1:]
    for t in zip(*np.nonzero(degenerate.any(axis=-1))):
        order = _branch_order(freqs[t], vecs[t] ** 2, n_photon)
        freqs[t] = freqs[t][order]
        vecs[t] = vecs[t][order]
    return freqs, vecs


def diagonalize(ham):
    """Diagonalize a stable quadratic form into its polariton modes."""
    freqs, vecs = normal_modes(ham.diag_freqs[None], ham.interaction[None],
                               ham.n_photon)
    freqs, vecs = freqs[0], vecs[0]
    ratio = np.sqrt(freqs[:, None] * RAD_PER_SEC_PER_THZ / ham.diag_freqs)
    x = 0.5 * (ratio + 1.0 / ratio) * vecs
    y = 0.5 * (ratio - 1.0 / ratio) * vecs
    return EigenSolution(frequencies=freqs, hopfield_x=x, hopfield_y=y,
                         fractions=vecs ** 2, n_photon=ham.n_photon)
