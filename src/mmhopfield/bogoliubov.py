"""Bosonic Bogoliubov diagonalization of the quadratic form.

The Hamiltonian H = sum_i w_i (x_i^2 + p_i^2)/2 + sum_ij G_ij x_i x_j of
model.assemble_batch couples the modes through their x quadratures only.
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
a bias sweep, with one eigh (or eigvalsh) call, and hopfield_coefficients
turns its output into the stacked X and Y; a single operating point is the
stack of one.
"""

from __future__ import annotations

import numpy as np

from .errors import InstabilityError, NumericalError
from .model import RAD_PER_SEC_PER_THZ


def normal_modes(diag_freqs, interaction, vectors=True):
    """Polariton modes of a stack of quadratic forms.

    diag_freqs (T, n) and interaction (..., T, n, n) are in rad/s, laid out
    as model.assemble_batch returns them; leading axes stack several forms
    per point. Only the lower triangle of interaction is read, and no
    symmetry or finiteness check is made: every form the package builds is
    exactly symmetric, and a NaN fails the stability test below.
    Returns (frequencies, vecs): frequencies (..., T, n) in THz, ascending
    per row, and vecs[..., t, k] the unit eigenvector e_k of S at
    frequencies[..., t, k], so vecs ** 2 are the bare-mode fractions. With
    vectors=False only eigenvalues are computed and vecs is None. This is
    eigh's output as it is: inside a degenerate subspace its vectors are
    arbitrary, so a caller that knows the form's exact blocks solves each
    block alone (dispersion.sweep does). Raises InstabilityError, with the
    flat index of the first failing form as its entry, unless every S is
    positive definite.
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
    return freqs, None if evecs is None else np.swapaxes(evecs, -1, -2)


def hopfield_coefficients(diag_freqs, freqs, vecs):
    """Real Hopfield coefficients (X, Y), each of shape (..., T, n, n), of
    the modes normal_modes returns for the bare angular frequencies
    diag_freqs (T, n): X[..., t, k, j] and Y[..., t, k, j] weigh the bare
    annihilation and creation operators of mode j in branch k, and
    X^2 - Y^2 = vecs ** 2."""
    ratio = np.sqrt(freqs[..., :, None] * RAD_PER_SEC_PER_THZ
                    / diag_freqs[..., None, :])
    x = 0.5 * (ratio + 1.0 / ratio) * vecs
    y = 0.5 * (ratio - 1.0 / ratio) * vecs
    return x, y
