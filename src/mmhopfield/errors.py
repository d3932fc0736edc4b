"""Exception types shared across the package, the value rules of its inputs,
the ASCII reader of the input files whose errors are a ProfileFormatError,
and the tesla-to-THz conversion. Nothing here imports numpy: the CLI checks
a config with these rules, and converts a tesla grid, before it loads
numpy."""

import math
import re


class InstabilityError(RuntimeError):
    """The quadratic form is not positive definite: S = D^(1/2) (D + 2G)
    D^(1/2) has an eigenvalue (a squared mode frequency) that is not
    positive. entry is the index of the first such form in a stacked batch,
    or None when the error is not tied to one."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class NumericalError(RuntimeError):
    """Eigensolver non-convergence or a violated numerical sanity check."""


class ConvergenceError(RuntimeError):
    """No optimizer restart reached the convergence tolerance."""


class DataCoverageError(ValueError):
    """Input data insufficient to constrain the requested estimate."""


class OverlapError(ValueError):
    """Undefined overlaps; entry indexes the profile at fault, None the mask."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class ProfileFormatError(ValueError):
    """Malformed field-profile, mask, or peak-list file. The message names the
    offending file and line; fit() names a record's nu_c instead."""


def read_ascii(path):
    """Header line and body text of a profile, mask or peak-list file; a
    non-ASCII byte is a ProfileFormatError naming its line."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            header = fh.readline()
            if not header.strip():
                raise ProfileFormatError(f"{path}:1: empty header line")
            return header, fh.read()
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        pos = re.search(rb"[\x80-\xff]", data).start()
        lineno = data.count(b"\n", 0, pos) + 1
        raise ProfileFormatError(
            f"{path}:{lineno}: non-ASCII byte 0x{data[pos]:02x}") from None


# range caps, where the arithmetic (or the model) stops making sense. MAX_RATIO
# bounds the arithmetic, not the stable range: at ratio 1e7 rounding turns
# structured.cfg's smallest squared frequency negative. At eta = 0 sweep
# solves each photon's 1+1 block alone and stays positive up to the cap, but
# fit's one solve of the whole form turns negative from about 2e3 (from about
# 10 at nu_c = 1e-6 THz).
MAX_RATIO = 1e6
MAX_LINEWIDTH_THZ = 1e150  # squared in every dip, which overflows near 1.3e154
MAX_RESTARTS = 1000  # the restarts run in lockstep, as one stack
MIN_MASS_RATIO = 1e-3  # under any band mass (InSb: 0.014); nu_c per tesla divides by it
FEATURE_SPAN_THZ = (0.05, 2.0)  # the nu_c span that feature detection needs


def feature_span_fault(first, last):
    """(end, problem) if a grid from first to last (THz) starts above (end
    0) or stops below (end 1) FEATURE_SPAN_THZ, else None."""
    lo, hi = FEATURE_SPAN_THZ
    for end, bad in enumerate((first > lo + 1e-12, last < hi - 1e-12)):
        if bad:
            return end, (f"sweep range [{first:.6g}, {last:.6g}] THz too narrow "
                         f"for feature detection; need it to span [{lo}, {hi}]")
    return None


def ratio_cap(problem, of=lambda v: v):
    """The check (ok, problem text and cap) that of(value) <= MAX_RATIO."""
    return lambda v: of(v) <= MAX_RATIO, f"{problem} {MAX_RATIO:g}"


_INTEGER = (lambda v: v % 1 == 0, "must be an integer")
_BOUNDS = ((lambda v: len(v) == 2, lambda v: f"needs exactly two values, got {len(v)}"),
           (lambda v: v[0] < v[1], "must satisfy lo < hi"))

# field -> checks: each value rule of the package, written once, for the
# fields of the library's types and functions and the CLI keys that give
# them. A check is (ok, problem): ok() must hold for the value, or for every
# item of a list (a tuple is checked whole); problem is the text, or gives it
# from the value.
RULES = {
    "frequency": ((lambda v: 0.0 < v < math.inf,
                   "frequencies must be finite and positive"),),
    **dict.fromkeys(("ratio_11", "ratio_2_tilde"), (
        (lambda v: not v < 0.0, "ratios must be non-negative"),
        (lambda v: v < math.inf, "ratios must be finite"),
        ratio_cap("ratios must not exceed"))),
    **dict.fromkeys(("eta", "eta_fixed"), (
        (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]"),)),
    "effective_mass_ratio": (
        (lambda v: 0.0 < v < math.inf, "must be finite and positive"),
        (lambda v: v >= MIN_MASS_RATIO, f"must be at least {MIN_MASS_RATIO:g}")),
    "linewidths": ((math.isfinite, "linewidths must be finite"),
                   (lambda v: v > 0.0, "linewidths must be positive"),
                   (lambda v: v <= MAX_LINEWIDTH_THZ,
                    f"linewidths must not exceed {MAX_LINEWIDTH_THZ:g}")),
    "weight_mode": ((lambda v: v in ("photon_fraction", "equal"),
                     "must be 'photon_fraction' or 'equal'"),),
    **dict.fromkeys(("ratio_11_bounds", "ratio_2_bounds"), _BOUNDS + (
        (lambda v: 0.0 <= v[0] and v[1] < math.inf, "must be finite and non-negative"),
        ratio_cap("must not exceed", of=max))),
    "eta_bounds": _BOUNDS + ((lambda v: 0.0 <= v[0] and v[1] <= 1.0,
                              "must lie within [0, 1]"),),
    "restarts": ((lambda v: v >= 1, "need at least one restart"),
                 (lambda v: v <= MAX_RESTARTS, f"must not exceed {MAX_RESTARTS}"),
                 _INTEGER),
    "seed": ((lambda v: v >= 0 and v % 1 == 0, "must be a non-negative integer"),),
    # CLI keys with no library field: eta_mode, and a grid's start, stop, step
    "eta_mode": ((lambda v: v in ("fixed", "free"), "must be 'fixed' or 'free'"),),
    "grid": ((math.isfinite, "start, stop and step must be finite"),),
}


def fault(**values):
    """(field, problem) of the first of values, keyed by field, that breaks
    its RULES, else None."""
    for field, value in values.items():
        for ok, problem in RULES[field]:
            if not all(map(ok, value if isinstance(value, list) else (value,))):
                return field, problem(value) if callable(problem) else problem
    return None


# CODATA 2018
ELEMENTARY_CHARGE = 1.602176634e-19     # C (exact)
ELECTRON_MASS = 9.1093837015e-31        # kg


def cyclotron_frequency(field_tesla, effective_mass_ratio=0.07):
    """Cyclotron frequency nu_c = e B / (2 pi m*) in THz of a two-dimensional
    electron gas of band mass m* = effective_mass_ratio m_e (GaAs's 0.07 by
    default)."""
    if not 0.0 <= field_tesla < math.inf:
        raise ValueError("magnetic field must be finite and non-negative")
    if found := fault(effective_mass_ratio=effective_mass_ratio):
        raise ValueError(": ".join(found))
    nu_hz = ELEMENTARY_CHARGE * field_tesla / (
        2.0 * math.pi * (effective_mass_ratio * ELECTRON_MASS))
    return nu_hz / 1e12
