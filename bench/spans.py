"""Per-layer spans recorded from outside the package.

The tracer replaces public functions with timing wrappers in the namespace
of the module that calls them, because a module that did
``from .model import assemble_hamiltonian`` keeps its own binding. Every
span adds its duration to its parent, so a layer's self time is its own
time minus the time of the wrapped calls it made. Spans stay in memory as
per-layer totals.
"""

from __future__ import annotations

import os
import sys
import time

# (namespace module, attribute, layer key). The layer key names the module
# that defines the function; the namespace is where callers look it up.
# mmhopfield.fit is looked up in sys.modules, because the package attribute
# of that name is the re-exported fit() function.
TARGETS = (
    ("mmhopfield.model", "assemble_hamiltonian", "model.assemble_hamiltonian"),
    ("mmhopfield.model", "couplings_from_ratios", "model.couplings_from_ratios"),
    ("mmhopfield.dispersion", "assemble_hamiltonian", "model.assemble_hamiltonian"),
    ("mmhopfield.dispersion", "diagonalize", "bogoliubov.diagonalize"),
    ("mmhopfield.dispersion", "sweep", "dispersion.sweep"),
    ("mmhopfield.dispersion", "detect_features", "dispersion.detect_features"),
    ("mmhopfield.dispersion", "spectrum_from_branches",
     "dispersion.spectrum_from_branches"),
    ("mmhopfield.dispersion", "write_branch_csv", "dispersion.write_branch_csv"),
    ("mmhopfield.fit", "positive_frequencies", "bogoliubov.positive_frequencies"),
    ("mmhopfield.fit", "assemble_hamiltonian", "model.assemble_hamiltonian"),
    ("mmhopfield.fit", "couplings_from_ratios", "model.couplings_from_ratios"),
    ("mmhopfield.fit", "residual", "fit.residual"),
    ("mmhopfield.cli", "fit_couplings", "fit.fit"),
    ("mmhopfield.cli", "residual", "fit.residual"),
    ("mmhopfield.cli", "load_peaks", "fit.load_peaks"),
    ("mmhopfield.cli", "main", "cli.main"),
    ("mmhopfield.overlap", "load_profile", "overlap.load_profile"),
    ("mmhopfield.overlap", "load_mask", "overlap.load_mask"),
    ("mmhopfield.overlap", "overlap_integral", "overlap.overlap_integral"),
    ("mmhopfield.overlap", "overlap_parameter", "overlap.overlap_parameter"),
    ("mmhopfield.overlap", "effective_mode_volume",
     "overlap.effective_mode_volume"),
)

# loaders whose first argument is a file: their input size is counted too
PARSERS = {"overlap.load_profile", "overlap.load_mask"}


class Tracer:
    """Wraps TARGETS while installed; totals[key] = [calls, self seconds]."""

    def __init__(self):
        self.totals = {key: [0, 0.0] for _, _, key in TARGETS}
        self.parse_bytes = 0
        self._stack = []
        self._undo = []

    def install(self):
        """Wrap every target whose module is loaded. A name that a module no
        longer has stays at zero calls."""
        for module_name, attr, key in TARGETS:
            module = sys.modules.get(module_name)
            original = getattr(module, attr, None) if module else None
            if callable(original):
                setattr(module, attr, self._wrap(original, key))
                self._undo.append((module, attr, original))

    def remove(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, key):
        stack = self._stack
        totals = self.totals[key]
        parses = key in PARSERS

        def span(*args, **kwargs):
            if parses and args:
                self.parse_bytes += os.path.getsize(args[0])
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                totals[0] += 1
                totals[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed

        return span

    def snapshot(self):
        """Plain-data copy of the totals, as written by a traced child."""
        return {"totals": {k: list(v) for k, v in self.totals.items()},
                "parse_bytes": self.parse_bytes}

