"""Spatial overlap of resonator near-field profiles.

The overlap integrals F_ij = int_S conj(f_i) f_j dA of n profiles form their
Gram matrix, evaluated by the midpoint rule on a uniform grid (cell area
dx*dy, lengths in micrometers). The normalized overlap parameter

    eta_ij = |F_ij| / sqrt(F_ii * F_jj)

is bounded by 1 through Cauchy-Schwarz and measures how much of one mode's
matter excitation lives inside the other's.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import OverlapError, ProfileFormatError, read_ascii


def _check_grid(nx, ny, dx, dy):
    if nx < 1 or ny < 1:
        raise ValueError("grid must contain at least one cell per axis")
    if not (0.0 < dx < math.inf and 0.0 < dy < math.inf):
        raise ValueError("grid spacing must be finite and positive")


# eq=False: == and hash by identity, as an array == gives no single bool
@dataclass(frozen=True, eq=False)
class FieldProfile:
    """Complex in-plane mode profile sampled on a uniform nx x ny grid.

    dx, dy are the cell sizes in micrometers; values[i, j] is the sample in
    row i, column j (row-major)."""

    nx: int
    ny: int
    dx: float
    dy: float
    values: np.ndarray

    def __post_init__(self):
        _check_grid(self.nx, self.ny, self.dx, self.dy)
        values = np.array(self.values, dtype=complex)
        if values.shape != (self.nx, self.ny):
            raise ValueError(
                f"values shape {values.shape} does not match ({self.nx}, {self.ny})")
        if not np.all(np.isfinite(values)):
            raise ValueError("profile values must be finite")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)


# eq=False: == and hash by identity, as an array == gives no single bool
@dataclass(frozen=True, eq=False)
class DomainMask:
    """Boolean integration domain on the same grid as a profile; dx, dy, if
    given, are the cell sizes (um) that gram requires the profiles to have."""

    nx: int
    ny: int
    inside: np.ndarray
    dx: float | None = None
    dy: float | None = None

    def __post_init__(self):
        inside = np.array(self.inside, dtype=bool)
        if inside.shape != (self.nx, self.ny):
            raise ValueError(
                f"mask shape {inside.shape} does not match ({self.nx}, {self.ny})")
        if not inside.any():
            raise ValueError("mask selects no cells")
        inside.flags.writeable = False
        object.__setattr__(self, "inside", inside)


def gram(profiles, mask):
    """Overlap Gram matrix F_ij = int_S conj(f_i) f_j dA (um^2, complex) of
    the profiles over the mask; an OverlapError names a profile whose grid is
    not the first one's by its index, or the mask (entry None) when its
    shape, or its spacing if it has one, is not the profiles'."""
    first = profiles[0]
    grid = (first.nx, first.ny, first.dx, first.dy)
    for i, p in enumerate(profiles):
        if (p.nx, p.ny, p.dx, p.dy) != grid:
            raise OverlapError(f"grid (nx, ny, dx, dy) = {(p.nx, p.ny, p.dx, p.dy)}"
                               f" differs from the first profile's {grid}", i)
    if (mask.nx, mask.ny) != grid[:2]:
        raise OverlapError(f"mask grid (nx, ny) = {(mask.nx, mask.ny)} differs "
                           f"from the profiles' {grid[:2]}")
    if mask.dx is not None and (mask.dx, mask.dy) != grid[2:]:
        raise OverlapError(f"mask spacing (dx, dy) = {(mask.dx, mask.dy)} "
                           f"differs from the profiles' {grid[2:]}")
    stack = np.stack([p.values[mask.inside] for p in profiles])
    # each entry sums its pair's products in the order np.sum takes for that
    # pair alone, so F has the bits of the integrals taken pair by pair
    return (np.conj(stack)[:, None] * stack).sum(axis=-1) * first.dx * first.dy


def overlap_parameters(gram):
    """Normalized overlaps eta_ij = |F_ij| / sqrt(F_ii F_jj), in [0, 1], of a
    Gram matrix; the diagonal is exactly one. |F_ij| is np.hypot of its parts,
    rounded as abs() of one complex is, which np.abs need not be. An
    OverlapError names the first profile that vanishes (F_ii <= 0)."""
    gram = np.asarray(gram)
    diag = gram.diagonal().real
    if np.any(diag <= 0.0):
        raise OverlapError("profile vanishes on the mask; overlap undefined",
                           int(np.argmax(diag <= 0.0)))
    root = np.sqrt(diag)
    eta = np.minimum(np.hypot(gram.real, gram.imag) / (root[:, None] * root), 1.0)
    np.fill_diagonal(eta, 1.0)
    return eta


def full_mask(nx, ny):
    """Mask covering the whole grid."""
    return DomainMask(nx=nx, ny=ny, inside=np.ones((nx, ny), dtype=bool))


def central_square_mask(nx, ny, dx, dy, half_width):
    """Square mask |x|, |y| <= half_width (um) about the grid center."""
    if half_width <= 0.0:
        raise ValueError("half_width must be positive")
    x = (np.arange(nx) - (nx - 1) / 2.0) * dx
    y = (np.arange(ny) - (ny - 1) / 2.0) * dy
    inside = (np.abs(x)[:, None] <= half_width) & (np.abs(y)[None, :] <= half_width)
    if not inside.any():
        raise ValueError("half_width smaller than one grid cell")
    return DomainMask(nx=nx, ny=ny, inside=inside, dx=dx, dy=dy)


# Synthetic near-field fixtures. The lc profile is the single positive lobe
# of the lumped-element mode; the dipolar profile shares the central lobe
# but adds four opposite-sign corner lobes, so the two are proportional near
# the center and nearly orthogonal over the full plane.
def synthetic_profile(kind, nx=192, ny=192, dx=0.3125, dy=0.3125,
                      center_width=5.0, corner_offset=18.0, corner_width=7.0,
                      corner_amplitude=2.0):
    """Analytic stand-ins for the two resonator near fields, by default on a
    60 um square; lengths in um.

    kind "lc": exp(-r^2 / (2 w^2)) with w = center_width.
    kind "dipolar": the same central lobe minus corner_amplitude times four
    corner lobes of width corner_width centered at (+-corner_offset,
    +-corner_offset).
    """
    if center_width <= 0.0 or corner_width <= 0.0:
        raise ValueError("gaussian widths must be positive")
    x = (np.arange(nx) - (nx - 1) / 2.0) * dx
    y = (np.arange(ny) - (ny - 1) / 2.0) * dy
    xx, yy = np.meshgrid(x, y, indexing="ij")
    center = np.exp(-(xx ** 2 + yy ** 2) / (2.0 * center_width ** 2))
    if kind == "lc":
        values = center
    elif kind == "dipolar":
        corners = np.zeros_like(center)
        for sx in (-1.0, 1.0):
            for sy in (-1.0, 1.0):
                corners += np.exp(-((xx - sx * corner_offset) ** 2
                                    + (yy - sy * corner_offset) ** 2)
                                  / (2.0 * corner_width ** 2))
        values = center - corner_amplitude * corners
    else:
        raise ValueError(f"unknown profile kind {kind!r}")
    return FieldProfile(nx=nx, ny=ny, dx=dx, dy=dy, values=values)


# --- plain-text file format -------------------------------------------------
# header line: "nx ny dx dy" (dx, dy in um), then nx*ny whitespace-separated
# entries in row-major order; profiles store complex samples as "re,im",
# masks store 0 or 1.

def _parse_header(path, line):
    parts = line.split()
    if len(parts) != 4:
        raise ProfileFormatError(
            f"{path}:1: header must be 'nx ny dx dy', got {line.strip()!r}")
    try:
        nx, ny = int(parts[0]), int(parts[1])
        dx, dy = float(parts[2]), float(parts[3])
        _check_grid(nx, ny, dx, dy)
    except ValueError as exc:
        raise ProfileFormatError(f"{path}:1: bad header value: {exc}") from exc
    return nx, ny, dx, dy


def _fault(path, body, size, entry_fault):
    """The line-anchored error of the first fault of a body that the bulk
    parse refused; entry_fault(token) names a bad entry, or returns None."""
    count = 0
    for lineno, line in enumerate(body.split("\n"), start=2):
        for token in line.split():
            if count == size:
                return ProfileFormatError(
                    f"{path}:{lineno}: more than nx*ny = {size} entries")
            problem = entry_fault(token)
            if problem:
                return ProfileFormatError(f"{path}:{lineno}: {problem}")
            count += 1
    return ProfileFormatError(
        f"{path}: expected nx*ny = {size} entries, found {count}")


def _profile_entry_fault(token):
    re_im = token.split(",")
    if len(re_im) != 2:
        return f"entry {token!r} is not 're,im'"
    try:
        list(map(float, re_im))
    except ValueError as exc:
        return f"bad entry {token!r}: {exc}"


def _mask_entry_fault(token):
    return None if token in ("0", "1") else f"mask entry {token!r} is not 0 or 1"


# every byte except ',' and ' ': what is left of a well-formed, single-space
# joined profile body is ", , ... ,", one comma per entry
_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b", ")


def _parse_profile(path, body, size):
    """All entries of a profile body at once: exactly size entries with one
    comma each, every half a float(); otherwise the line-anchored error of
    the first fault."""
    tokens = body.split()
    if len(tokens) == size:
        joined = " ".join(tokens)
        skeleton = joined.encode("ascii").translate(None, _NOT_SEPARATORS)
        if skeleton == b", " * (size - 1) + b",":
            halves = joined.replace(" ", ",").split(",")
            try:
                return np.fromiter(map(float, halves), dtype=float,
                                   count=2 * size).view(complex)
            except ValueError:
                pass
    raise _fault(path, body, size, _profile_entry_fault)


def load_profile(path):
    """Read a FieldProfile from the plain-text format."""
    header, body = read_ascii(path)
    nx, ny, dx, dy = _parse_header(path, header)
    flat = _parse_profile(path, body, nx * ny)
    try:
        return FieldProfile(nx=nx, ny=ny, dx=dx, dy=dy,
                            values=flat.reshape(nx, ny))
    except ValueError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from exc


def save_profile(path, profile):
    """Write a FieldProfile in the plain-text format, one grid row per line."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{profile.nx} {profile.ny} "
                 f"{float(profile.dx)!r} {float(profile.dy)!r}\n")
        # one template per row over its interleaved real and imaginary parts
        # (a row-major copy when the values are not), a row at a time so no
        # more than a row of Python floats is alive; %r of a float is its
        # repr, the shortest exact form
        template = " ".join(["%r,%r"] * profile.ny) + "\n"
        for row in np.ascontiguousarray(profile.values).view(float):
            fh.write(template % tuple(row.tolist()))


def load_mask(path):
    """Read a DomainMask, with the spacing of its header, from the
    plain-text format (entries 0 or 1)."""
    header, body = read_ascii(path)
    nx, ny, dx, dy = _parse_header(path, header)
    tokens = body.split()
    digits = "".join(tokens)
    # nx*ny tokens of one character each, every one of them 0 or 1
    if not (len(tokens) == len(digits) == nx * ny and not digits.strip("01")):
        raise _fault(path, body, nx * ny, _mask_entry_fault)
    flat = np.frombuffer(digits.encode("ascii"), dtype=np.uint8) == ord("1")
    try:
        return DomainMask(nx=nx, ny=ny, inside=flat.reshape(nx, ny),
                          dx=dx, dy=dy)
    except ValueError as exc:
        raise ProfileFormatError(f"{path}: {exc}") from exc


def save_mask(path, mask, dx=None, dy=None):
    """Write a DomainMask in the plain-text format. The header spacing is
    dx, dy (um) where given, else the mask's own, else 1.0."""
    if dx is None:
        dx = 1.0 if mask.dx is None else mask.dx
    if dy is None:
        dy = 1.0 if mask.dy is None else mask.dy
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{mask.nx} {mask.ny} {float(dx)!r} {float(dy)!r}\n")
        for row in np.where(mask.inside, "1", "0"):
            fh.write(" ".join(row.tolist()) + "\n")
