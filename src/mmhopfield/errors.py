"""Exception types shared across the package, and the ASCII reader of the
input files whose errors are a ProfileFormatError."""

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


class FitConfigError(ValueError):
    """A fit setting the solver cannot honour. field names the FitConfig
    field and problem says what is wrong with its value."""

    def __init__(self, field, problem):
        super().__init__(f"{field}: {problem}")
        self.field = field
        self.problem = problem


class OverlapError(ValueError):
    """Undefined overlaps; entry indexes the profile at fault, None the mask."""

    def __init__(self, message, entry=None):
        super().__init__(message)
        self.entry = entry


class ProfileFormatError(ValueError):
    """Malformed field-profile, mask, or peak-list file. The message names the
    offending file and line."""


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
