"""Command-line interface.

Subcommands: sweep, fit, overlap, spectrum; all but overlap take an
INI-style config. Results are written to --out as CSV/JSON with fixed
formatting so identical configs and seeds reproduce byte-identical files.
Exit codes: 0 success, 2 config or file-format error, 3 numerical error,
4 missing or insufficient data. Errors print a single "ERROR <code>: ..."
line on stderr.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import json
import math
import os
import re
import sys
import tempfile

# numpy and the package modules a runner computes with are imported inside
# it, after it has read its config and checked its flags and input files, so
# a usage, config-reading or missing-file error exits before numpy loads
from .errors import (ConvergenceError, DataCoverageError, InstabilityError,
                     NumericalError, OverlapError, ProfileFormatError,
                     cyclotron_frequency, fault, feature_span_fault)


class ConfigError(ValueError):
    pass


def _floats(raw):
    return [float(c) for c in raw.split(",")]


def _bounds(raw):
    return tuple(_floats(raw))


# what a parse that fails expected; a number, where not listed
_EXPECTED = {int: "an integer",
             **dict.fromkeys((_floats, _bounds), "comma-separated numbers")}

_GRID_KEY = (float, "grid")
MAX_GRID_POINTS = 1_000_000  # per sweep or spectrum grid
_SWEEP_THZ = ("start_thz", "stop_thz", "step_thz")
_SWEEP_TESLA = ("start_tesla", "stop_tesla", "step_tesla")

# section -> key -> (parse, rule). parse turns the raw text into the value
# or raises ValueError; rule, if any, is the field whose errors.RULES entry
# checks the value, as it checks that library field.
_KEYS = {
    "photon_modes": {
        "frequencies_thz": (_floats, "frequency"),
        "labels": (lambda raw: [c.strip() for c in raw.split(",")], None)},
    "coupling": {
        "ratio_11": (float, "ratio_11"),
        "ratio_2_tilde": (float, "ratio_2_tilde"),
        "eta": (float, "eta")},
    "material": {"effective_mass_ratio": (float, "effective_mass_ratio")},
    "sweep": dict.fromkeys(_SWEEP_THZ + _SWEEP_TESLA, _GRID_KEY),
    "spectrum": {
        "linewidth_thz": (_floats, "linewidths"),
        "weight_mode": (str, "weight_mode"),
        **dict.fromkeys(("freq_min_thz", "freq_max_thz", "freq_step_thz"),
                        _GRID_KEY)},
    "fit": {
        **{key: (_bounds, key)
           for key in ("ratio_11_bounds", "ratio_2_bounds", "eta_bounds")},
        "eta_mode": (str, "eta_mode"),
        "restarts": (int, "restarts")},
}

_COMMENT = re.compile(r"(?:^|\s)[;#]")
_HEADER = re.compile(r"\[(.+)\]")
_KEY_LINE = re.compile(r"([^=:]+?)\s*[=:]\s*(.*)")


class _Config:
    """One INI config file, read and checked in one pass: [section] headers,
    `key = value` or `key: value` lines, indented continuation lines, and
    `;` or `#` comments at the start of a line or after whitespace, in
    UTF-8 with or without a byte-order mark. Keys are lower-cased and `%`
    is literal. Once the syntax has been read, every value is parsed and
    checked by its _KEYS rule, in file order, whichever subcommand runs;
    rules across keys are left to the subcommands, each of which checks
    the [sweep] and [spectrum] sections that the file has."""

    def __init__(self, path):
        self.path = path
        self.sections = {}  # section -> its header's line
        self.entries = {}  # (section, key) -> [value, line], raw until checked
        section = entry = None  # entry: the last key's [value, line]
        try:
            with open(path, "rb") as fh:
                lines = io.StringIO(fh.read().decode("utf-8-sig"), newline=None)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config: "
                              f"{exc.strerror}") from None
        except UnicodeDecodeError as exc:  # exc.object: the bytes after a BOM
            line = exc.object.count(b"\n", 0, exc.start) + 1
            raise ConfigError(f"{path}:{line}: non-UTF-8 byte "
                              f"0x{exc.object[exc.start]:02x}") from None
        for lineno, line in enumerate(lines, start=1):
            text = _COMMENT.split(line, 1)[0].strip()
            if not text:
                continue
            depth = len(line) - len(line.lstrip())
            if entry and depth > indent:  # deeper than its key: continues it
                entry[0] += "\n" + text
                continue
            indent, entry = depth, None
            where = f"{path}:{lineno}"
            header = _HEADER.match(text)
            if header:
                section = header[1]
                if section not in _KEYS:
                    raise ConfigError(f"{where}: unknown section [{section}]")
                if section in self.sections:
                    raise ConfigError(f"{where}: duplicate section [{section}]")
                self.sections[section] = lineno
                continue
            if section is None:
                raise ConfigError(f"{where}: key outside any section")
            match = _KEY_LINE.fullmatch(text)
            if match is None:
                raise ConfigError(f"{where}: expected 'key = value', "
                                  f"got {text!r}")
            key = match[1].lower()
            if key not in _KEYS[section]:
                raise ConfigError(f"{where}: [{section}] {key}: unknown key")
            if (section, key) in self.entries:
                raise ConfigError(f"{where}: [{section}] {key}: duplicate key")
            entry = self.entries[section, key] = [match[2], lineno]
        for (section, key), entry in self.entries.items():
            raw = entry[0].strip()
            parse, rule = _KEYS[section][key]
            try:
                entry[0] = parse(raw)
            except ValueError:
                raise self.error(section, key,
                                 f"expected {_EXPECTED.get(parse, 'a number')}, "
                                 f"got {raw!r}") from None
            if found := rule and fault(**{rule: entry[0]}):
                raise self.error(section, key, found[1])

    def require(self, section):
        if section not in self.sections:
            raise ConfigError(f"{self.path}: missing section [{section}]")

    def has(self, section, key):
        return (section, key) in self.entries

    def get(self, section, key, default=None):
        """The key's checked value; when the file has no such key, the
        default, as it is, or without one a missing-key error."""
        if (section, key) in self.entries:
            return self.entries[section, key][0]
        if default is None:
            raise self.error(section, key, "missing key")
        return default

    def error(self, section, key, problem):
        """ConfigError about a key, or about the section when key is None:
        at the key's line when the file has the key, else at the section's
        header when it has the section."""
        line = (self.entries.get((section, key), (None, None))[1]
                or self.sections.get(section))
        where = f"{self.path}:{line}" if line else self.path
        about = f"[{section}] {key}:" if key else f"[{section}]"
        return ConfigError(f"{where}: {about} {problem}")


def _read_photons(cfg):
    """The [photon_modes] keys, checked without numpy: the PhotonMode
    fields of each of the two modes the model takes. labels only name the
    modes, so they are only counted."""
    cfg.require("photon_modes")
    freqs = cfg.get("photon_modes", "frequencies_thz")
    labels = cfg.get("photon_modes", "labels", [""] * len(freqs))
    if len(labels) != len(freqs):
        raise cfg.error("photon_modes", "labels",
                        f"{len(labels)} labels for {len(freqs)} modes")
    if len(freqs) != 2:
        raise cfg.error("photon_modes", "frequencies_thz",
                        "the two-mode model needs exactly two frequencies")
    return [dict(index=i + 1, frequency=f) for i, f in enumerate(freqs)]


def _fields(cfg, section, keys=None):
    """The library fields that the file sets by the section's keys (all by
    default), each named by its _KEYS rule and checked without numpy; the
    library type or function gives every other field its own default."""
    return {_KEYS[section][key][1]: cfg.get(section, key)
            for key in keys or _KEYS[section] if cfg.has(section, key)}


def _read_coupling(cfg):
    """The two-mode coupling spec, checked without numpy: (modes of
    _read_photons, the two ratios, eta)."""
    modes = _read_photons(cfg)
    cfg.require("coupling")
    ratios = [cfg.get("coupling", key) for key in ("ratio_11", "ratio_2_tilde")]
    return modes, ratios, cfg.get("coupling", "eta")


def _grid(cfg, section, keys, to_thz=float):
    """The grid start + step * arange(n) of a section's start, stop and step
    keys (finite by _KEYS) as (keys, start, step, n), checked without numpy;
    each error names the key it is about. The checks see the values as
    written, so to_thz only ever converts a valid grid, and the point count
    is checked before any point is made."""
    start, stop, step = (cfg.get(section, key) for key in keys)
    for key, bad, problem in ((keys[2], step <= 0.0, "step must be positive"),
                              (keys[1], stop <= start, "stop must exceed start"),
                              (keys[0], start < 0.0, "start must be non-negative")):
        if bad:
            raise cfg.error(section, key, problem)
    start, stop, step = map(to_thz, (start, stop, step))
    # inf for a subnormal step, or one that converts to 0
    span = (stop - start) / step + 1e-9 if step else math.inf
    if not span < MAX_GRID_POINTS:
        raise cfg.error(section, keys[2],
                        f"step gives more than {MAX_GRID_POINTS} grid points")
    n = int(span) + 1
    if n < 2:
        raise cfg.error(section, keys[2], "grid contains fewer than two points")
    # points two float spacings apart stay apart after rounding; closer ones
    # are compared as _points makes them, by the same float operations
    if step <= 4.0 * math.ulp(start + step * (n - 1)) and any(
            start + step * k >= start + step * (k + 1) for k in range(n - 1)):
        raise cfg.error(section, keys[2],
                        "step is too small to separate the grid points")
    return keys, start, step, n


def _points(grid):
    """The points of a _grid."""
    _, start, step, n = grid
    import numpy as np
    return start + step * np.arange(n)


def _sweep_grid(cfg):
    """The [sweep] grid as a _grid, checked without numpy; a tesla grid's
    endpoints are converted once, so B- and THz-specified sweeps share the
    exact same grid arithmetic."""
    cfg.require("sweep")
    thz = [cfg.has("sweep", k) for k in _SWEEP_THZ]
    tesla = [cfg.has("sweep", k) for k in _SWEEP_TESLA]
    if any(thz) and any(tesla):
        # at the first key of the spelling that comes second in the file
        keys = sorted((cfg.entries["sweep", k][1], k in _SWEEP_THZ, k)
                      for k in _SWEEP_THZ + _SWEEP_TESLA if cfg.has("sweep", k))
        key = next(k for _, is_thz, k in keys if is_thz != keys[0][1])
        raise cfg.error("sweep", key, "mixes THz and tesla keys")
    if all(thz):
        return _grid(cfg, "sweep", _SWEEP_THZ)
    if all(tesla):
        return _grid(cfg, "sweep", _SWEEP_TESLA, lambda field:
                     cyclotron_frequency(field, **_fields(cfg, "material")))
    raise cfg.error("sweep", None, "needs start/stop/step in THz or tesla")


def _read_spectrum(cfg, modes):
    """The [spectrum] keys, checked without numpy: (linewidths, probe grid
    as a _grid, the weighting fields) for the modes of _read_photons."""
    cfg.require("spectrum")
    widths = cfg.get("spectrum", "linewidth_thz")
    if len(widths) not in (1, 2 * len(modes)):
        raise cfg.error("spectrum", "linewidth_thz",
                        f"need one linewidth or {2 * len(modes)}")
    probe = _grid(cfg, "spectrum", ("freq_min_thz", "freq_max_thz",
                                    "freq_step_thz"))
    return widths, probe, _fields(cfg, "spectrum", ("weight_mode",))


def _solve(modes, ratios, eta, grid):
    """(photon modes, dispersion sweep) of a _read_coupling spec over a
    _sweep_grid."""
    from . import dispersion, model
    photons = [model.PhotonMode(**mode) for mode in modes]
    coupling = model.couplings_from_ratios(photons, *ratios, eta)
    return photons, dispersion.sweep(photons, coupling, _points(grid))


def _write(args, name, text):
    """Write text, or a dict as sorted JSON, to the file name in the output
    directory, atomically: a reader sees the old file or the whole new one."""
    if isinstance(text, dict):
        text = json.dumps(text, indent=2, sort_keys=True) + "\n"
    os.makedirs(args.out, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=args.out, prefix=".tmp.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, os.path.join(args.out, name))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _run_sweep(args):
    cfg = _Config(args.config)
    modes, ratios, eta = _read_coupling(cfg)
    grid = _sweep_grid(cfg)
    if "spectrum" in cfg.sections:
        _read_spectrum(cfg, modes)
    # the span detect_features needs; the last point as _points makes it
    keys, start, step, n = grid
    if found := feature_span_fault(start, start + step * (n - 1)):
        raise cfg.error("sweep", keys[found[0]], found[1])
    photons, result = _solve(modes, ratios, eta, grid)
    from . import dispersion
    features = dispersion.detect_features(result, photons)

    buf = io.StringIO()
    dispersion.write_branch_csv(result, buf)
    _write(args, "branches.csv", buf.getvalue())
    _write(args, "features.json", {
        "n_coupled_branches": features.n_coupled_branches,
        "n_cr_lines": features.n_cr_lines,
        "gap_at_resonance_thz": list(features.gap_at_resonance),
        "inflection_nu_c_thz": features.inflection_nu_c,
        "asymptote_low_thz": features.asymptote_low,
        "asymptote_high_thz": features.asymptote_high,
    })
    return 0


def _run_spectrum(args):
    cfg = _Config(args.config)
    modes, ratios, eta = _read_coupling(cfg)
    grid = _sweep_grid(cfg)
    widths, probe, weighting = _read_spectrum(cfg, modes)

    _, result = _solve(modes, ratios, eta, grid)
    from . import dispersion
    spec_cfg = dispersion.SpectrumConfig(
        frequency_grid=_points(probe),
        linewidths=widths[0] if len(widths) == 1 else widths, **weighting)
    trans = dispersion.spectrum_from_branches(
        result.branches, result.photon_fractions(), spec_cfg)
    _write(args, "spectrum.csv", "nu_c_THz,nu_THz,T\n" + dispersion.csv_rows(
        result.nu_c_values, dispersion.g9_cells(spec_cfg.frequency_grid), trans))
    return 0


def _run_fit(args):
    cfg = _Config(args.config)
    if args.peaks is None:
        raise ConfigError("fit requires --peaks PATH")
    if not os.path.exists(args.peaks):
        raise DataCoverageError(f"peaks file not found: {args.peaks}")
    modes = _read_photons(cfg)
    # the FitConfig fields, checked without numpy
    cfg.require("fit")
    free = cfg.get("fit", "eta_mode", "fixed") == "free"
    if not free and not cfg.has("coupling", "eta"):
        raise cfg.error("fit", "eta_mode", "fixed needs [coupling] eta")
    settings = _fields(cfg, "fit", ("ratio_11_bounds", "ratio_2_bounds",
                                    "eta_bounds", "restarts"))
    settings["eta_fixed"] = None if free else cfg.get("coupling", "eta")
    if "sweep" in cfg.sections:
        _sweep_grid(cfg)
    if "spectrum" in cfg.sections:
        _read_spectrum(cfg, modes)
    if found := fault(seed=args.seed):
        raise ConfigError(f"--seed: {found[1]}")

    # "from . import fit" would give the package's fit() function, not the
    # submodule, so take the names from the submodule itself
    from . import model
    from .fit import FitConfig, fit, load_peaks
    photons = [model.PhotonMode(**mode) for mode in modes]
    data = load_peaks(args.peaks)
    try:
        result = fit(data, photons, FitConfig(**settings, seed=args.seed))
    except ProfileFormatError as exc:  # a record the model cannot hold
        raise ProfileFormatError(f"{args.peaks}: {exc}") from None
    if not result.converged:
        raise ConvergenceError(
            f"no restart converged (best rms {result.residual_rms:.6g} THz)")

    w1, w2 = photons[0].omega, photons[1].omega
    coupling = model.couplings_from_ratios(photons, result.ratio_11,
                                           result.ratio_2_tilde, result.eta)
    back_21, back_22 = coupling[1] / math.sqrt(
        photons[0].frequency / photons[1].frequency)
    _write(args, "fit_result.json", {
        "omega_r_11_rad_s": result.ratio_11 * w1,
        "omega_r_2_tilde_rad_s": result.ratio_2_tilde * w2,
        "ratio_11": result.ratio_11,
        "ratio_2_tilde": result.ratio_2_tilde,
        "ratio_21_over_omega_1": back_21 / w1,
        "ratio_22_over_omega_2": back_22 / w2,
        "eta": result.eta,
        "residual_rms_thz": result.residual_rms,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
        "seed": args.seed,
    })

    buf = io.StringIO()
    buf.write("record,nu_c_THz,rms_THz\n")
    for i, (rec, value) in enumerate(zip(data.records, result.record_rms)):
        buf.write(f"{i + 1},{rec.nu_c:.9g},{value:.9g}\n")
    _write(args, "fit_residuals.csv", buf.getvalue())
    return 0


def _run_overlap(args):
    if not args.profiles or len(args.profiles) < 2:
        raise ConfigError("overlap requires at least two --profiles files")
    n = len(args.profiles)
    for path in args.profiles:
        if not os.path.exists(path):
            raise DataCoverageError(f"profile file not found: {path}")
    if args.mask is not None and not os.path.exists(args.mask):
        raise DataCoverageError(f"mask file not found: {args.mask}")

    from . import overlap
    profiles = [overlap.load_profile(p) for p in args.profiles]
    if args.mask is not None:
        mask = overlap.load_mask(args.mask)
    else:
        mask = overlap.full_mask(profiles[0].nx, profiles[0].ny)

    try:
        gram = overlap.gram(profiles, mask)
        eta = overlap.overlap_parameters(gram)
    except OverlapError as exc:  # name the file at fault
        path = args.mask if exc.entry is None else args.profiles[exc.entry]
        raise OverlapError(f"{path}: {exc}", exc.entry) from exc

    _write(args, "overlap.json", {
        "profiles": list(args.profiles),
        "overlap_integrals_um2": gram.view(float).reshape(n, n, 2).tolist(),
        "overlap_parameters": eta.tolist(),
    })
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mmhopfield",
        description="Multi-mode ultrastrong-coupling solver: magnetic-bias "
                    "dispersion sweeps, coupling fits, near-field overlaps, "
                    "and transmission-proxy maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("sweep", "sweep the cyclotron frequency and write branch data"),
            ("fit", "fit coupling constants to measured peak positions"),
            ("overlap", "overlap integrals of sampled near-field profiles"),
            ("spectrum", "transmission-proxy map over the sweep grid")):
        cmd = sub.add_parser(name, help=helptext)
        if name != "overlap":
            cmd.add_argument("--config", required=True, help="INI config file")
        cmd.add_argument("--out", default=".", help="output directory")
        if name == "fit":
            cmd.add_argument("--seed", type=int, default=0,
                             help="random seed for fit restarts")
            cmd.add_argument("--peaks", help="peak-list CSV")
        if name == "overlap":
            cmd.add_argument("--profiles", nargs="+",
                             help="field-profile files (two or more)")
            cmd.add_argument("--mask", help="integration-domain mask file")
    return parser


_RUNNERS = {"sweep": _run_sweep, "fit": _run_fit, "overlap": _run_overlap,
            "spectrum": _run_spectrum}


def _fail(code, exc):
    message = re.sub(r"\s*\n\s*", "; ", str(exc)).strip()
    print(f"ERROR {code}: {message}", file=sys.stderr)
    return code


def main(argv=None):
    """Run one subcommand and return its exit code.

    argv is the argument list after the program name. None reads
    sys.argv[1:] and means the call runs its own process's command line,
    as the ``mmhopfield`` console script and ``python -m mmhopfield`` do.
    Such a call is one short batch whose objects live until the process
    ends, so the cyclic garbage collector stays off while it runs, and
    ``gc.freeze`` runs at exit, which spares CPython's final collections a
    pass over numpy's modules. On the way out the collector's earlier
    state is restored, so a caller that runs main() in process (say
    through runpy) keeps its collector. A call with an explicit argv, as
    from tests or library code, changes nothing global.
    """
    restore = argv is None and gc.isenabled()
    if argv is None:
        gc.disable()
        atexit.register(gc.freeze)  # idempotent: a second call may add it again
    try:
        # --help and usage errors leave here, through SystemExit
        args = _build_parser().parse_args(argv)
        return _RUNNERS[args.command](args)
    except DataCoverageError as exc:
        return _fail(4, exc)
    except ValueError as exc:  # ConfigError and ProfileFormatError among them
        return _fail(2, exc)
    except (InstabilityError, NumericalError, ConvergenceError) as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)
    finally:
        if restore:
            # freeze then unfreeze moves every tracked object to the oldest
            # generation (objects frozen before go there too) and zeroes the
            # young count; re-enabled without it, the collector would start
            # with a pass over everything the command allocated, some 5-7 ms
            gc.freeze()
            gc.unfreeze()
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
