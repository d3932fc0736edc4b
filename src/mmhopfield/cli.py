"""Command-line interface.

Subcommands: sweep, fit, overlap, spectrum. All take an INI-style config;
results are written to --out as CSV/JSON with fixed formatting so identical
configs and seeds reproduce byte-identical files. Exit codes: 0 success,
2 config or file-format error, 3 numerical error, 4 missing or insufficient
data. Errors print a single "ERROR <code>: ..." line on stderr.
"""

from __future__ import annotations

import argparse
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
from .errors import (ConvergenceError, DataCoverageError, FitConfigError,
                     InstabilityError, NumericalError, OverlapError)


class ConfigError(ValueError):
    pass


def _floats(raw):
    return [float(c) for c in raw.split(",")]


_EXPECTED = {float: "a number", int: "an integer",
             _floats: "comma-separated numbers"}

_GRID_KEY = (float, (math.isfinite, "start, stop and step must be finite"))
MAX_GRID_POINTS = 1_000_000  # per sweep or spectrum grid
_SWEEP_THZ = ("start_thz", "stop_thz", "step_thz")
_SWEEP_TESLA = ("start_tesla", "stop_tesla", "step_tesla")
_VOLUMES = (_floats, (lambda v: 0.0 < v < math.inf,
                      "volumes must be finite and positive"))

# section -> key -> (parse, *checks). parse turns the raw text into the value
# or raises ValueError; each check is (ok, problem), and ok() must hold for
# the value, or for every item of a list. MaterialParams, FitConfig and
# SpectrumConfig check their own fields; a check here that repeats one of
# theirs, with the same text, anchors it at the key's line.
_KEYS = {
    "photon_modes": {
        "frequencies_thz": (_floats, (lambda v: 0.0 < v < math.inf,
                                      "frequencies must be finite and positive")),
        "labels": (lambda raw: [c.strip() for c in raw.split(",")],)},
    "coupling": {
        **dict.fromkeys(("ratio_11", "ratio_2_tilde"), (
            float, (lambda v: not v < 0.0, "ratios must be non-negative"),
            (lambda v: v < math.inf, "ratios must be finite"))),
        "eta": (float, (lambda v: 0.0 <= v <= 1.0, "must lie in [0, 1]")),
        "mode_volumes_m3": _VOLUMES},
    "material": {"effective_mass_ratio": (float,),
                 "sheet_density_per_cm2": (float,), "qw_count": (int,),
                 "background_permittivity": (float,)},
    "sweep": dict.fromkeys(_SWEEP_THZ + _SWEEP_TESLA, _GRID_KEY),
    "spectrum": {
        "linewidth_thz": (_floats, (math.isfinite, "linewidths must be finite"),
                          (lambda v: v > 0.0, "linewidths must be positive")),
        "weight_mode": (str, (lambda v: v in ("photon_fraction", "equal"),
                              "must be 'photon_fraction' or 'equal'")),
        **dict.fromkeys(("freq_min_thz", "freq_max_thz", "freq_step_thz"),
                        _GRID_KEY)},
    "fit": {**dict.fromkeys(("ratio_11_bounds", "ratio_2_bounds",
                             "eta_bounds"), (_floats,)),
            "eta_mode": (str, (lambda v: v in ("fixed", "free"),
                               "must be 'fixed' or 'free'")),
            "restarts": (int,)},
    "overlap": {"physical_volumes_m3": _VOLUMES},
}

_COMMENT = re.compile(r"(?:^|\s)[;#]")
_HEADER = re.compile(r"\[(.+)\]")
_KEY_LINE = re.compile(r"([^=:]+?)\s*[=:]\s*(.*)")


class _Config:
    """One INI config file, read in one pass: [section] headers, `key = value`
    or `key: value` lines, indented continuation lines, and `;` or `#`
    comments at the start of a line or after whitespace. Keys are
    lower-cased, `%` is literal, and each value is parsed and checked by
    _KEYS when it is read."""

    def __init__(self, path):
        if not os.path.exists(path):
            raise ConfigError(f"config file not found: {path}")
        self.path = path
        self.sections = {}  # section -> its header's line
        self.entries = {}  # (section, key) -> [raw value, line]
        section = entry = None  # entry: the last key's [value, line]
        try:
            fh = open(path, "r", encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{path}: cannot read the config: "
                              f"{exc.strerror}") from None
        with fh:
            for lineno, line in enumerate(fh, start=1):
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

    def require(self, section):
        if section not in self.sections:
            raise ConfigError(f"{self.path}: missing section [{section}]")

    def has(self, section, key=None):
        if key is None:
            return section in self.sections
        return (section, key) in self.entries

    def get(self, section, key, default=None):
        """The key's value, parsed and checked by _KEYS; the default, which
        is returned as it is, when the file has no such key."""
        if (section, key) not in self.entries:
            if default is None:
                raise ConfigError(
                    f"{self.path}: missing key {key} in section [{section}]")
            return default
        raw = self.entries[section, key][0].strip()
        parse, *checks = _KEYS[section][key]
        try:
            value = parse(raw)
        except ValueError:
            raise self.error(section, key,
                             f"expected {_EXPECTED[parse]}, got {raw!r}") from None
        for ok, problem in checks:
            if not all(map(ok, value if isinstance(value, list) else [value])):
                raise self.error(section, key, problem)
        return value

    def error(self, section, key, problem):
        """ConfigError about a key, or about the section when key is None:
        at the key's line when the file has the key, else at the section's
        header when it has the section."""
        line = (self.entries.get((section, key), (None, None))[1]
                or self.sections.get(section))
        where = f"{self.path}:{line}" if line else self.path
        about = f"[{section}] {key}:" if key else f"[{section}]"
        return ConfigError(f"{where}: {about} {problem}")


def _load_photons(cfg, volumes=None):
    cfg.require("photon_modes")
    freqs = cfg.get("photon_modes", "frequencies_thz")
    labels = cfg.get("photon_modes", "labels", [""] * len(freqs))
    if len(labels) != len(freqs):
        raise cfg.error("photon_modes", "labels",
                        f"{len(labels)} labels for {len(freqs)} modes")
    if volumes is None:
        volumes = [None] * len(freqs)
    elif len(volumes) != len(freqs):
        raise cfg.error("coupling", "mode_volumes_m3",
                        f"{len(volumes)} volumes for {len(freqs)} modes")
    from . import model
    return [model.PhotonMode(index=i + 1, frequency=f, label=lab,
                             effective_mode_volume=vol)
            for i, (f, lab, vol) in enumerate(zip(freqs, labels, volumes))]


def _load_material(cfg):
    # the defaults are MaterialParams' own
    fields = {
        "effective_mass_ratio": cfg.get("material", "effective_mass_ratio", 0.07),
        "sheet_density": cfg.get("material", "sheet_density_per_cm2", 1.25e12) * 1e4,
        "qw_count": cfg.get("material", "qw_count", 3),
        "background_permittivity": cfg.get("material", "background_permittivity", 12.9)}
    from . import model
    for field, value in fields.items():
        try:  # MaterialParams checks each field on its own
            model.MaterialParams(**{field: value})
        except ValueError as exc:
            key = "sheet_density_per_cm2" if field == "sheet_density" else field
            raise cfg.error("material", key,
                            str(exc).removeprefix(field + " ")) from exc
    return model.MaterialParams(**fields)


def _load_coupling(cfg):
    """Photon modes plus coupling set from exactly one coupling spec."""
    cfg.require("coupling")
    has_ratios = cfg.has("coupling", "ratio_11")
    has_micro = cfg.has("coupling", "mode_volumes_m3")
    if has_ratios and has_micro:
        raise cfg.error("coupling", "mode_volumes_m3",
                        "give either normalized ratios or mode volumes, not both")
    if not has_ratios and not has_micro:
        raise cfg.error("coupling", None,
                        "needs ratio_11/ratio_2_tilde or mode_volumes_m3")
    eta = cfg.get("coupling", "eta")

    if has_ratios:
        ratios = [cfg.get("coupling", key)
                  for key in ("ratio_11", "ratio_2_tilde")]
        photons = _load_photons(cfg)
    else:
        photons = _load_photons(
            cfg, volumes=cfg.get("coupling", "mode_volumes_m3"))
    if len(photons) != 2:
        raise cfg.error("photon_modes", "frequencies_thz",
                        "the two-mode model needs exactly two frequencies")
    from . import model
    if has_micro:
        material = _load_material(cfg)
        ratios = [model.rabi_microscopic(m, material, m.frequency) / m.omega
                  for m in photons]
    return photons, model.couplings_from_ratios(photons, *ratios, eta)


def _grid(cfg, section, keys, to_thz=float):
    """start + step * arange(n) from a section's start, stop and step keys
    (finite by _KEYS); each error names the key it is about. The checks see
    the values as written, so to_thz only ever converts a valid grid. The
    point count is checked before any array is made, and the points must
    ascend strictly."""
    start, stop, step = (cfg.get(section, key) for key in keys)
    for key, bad, problem in ((keys[2], step <= 0.0, "step must be positive"),
                              (keys[1], stop <= start, "stop must exceed start"),
                              (keys[0], start < 0.0, "start must be non-negative")):
        if bad:
            raise cfg.error(section, key, problem)
    start, stop, step = map(to_thz, (start, stop, step))
    span = (stop - start) / step + 1e-9  # inf for a subnormal step
    if not span < MAX_GRID_POINTS:
        raise cfg.error(section, keys[2],
                        f"step gives more than {MAX_GRID_POINTS} grid points")
    n = int(span) + 1
    if n < 2:
        raise cfg.error(section, keys[2], "grid contains fewer than two points")
    import numpy as np
    points = start + step * np.arange(n)
    if np.any(points[1:] <= points[:-1]):
        raise cfg.error(section, keys[2],
                        "step is too small to separate the grid points")
    return points


def _load_sweep_grid(cfg):
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
        from . import model
        material = _load_material(cfg)
        # convert the endpoints once so B- and THz-specified sweeps share the
        # exact same grid arithmetic
        return _grid(cfg, "sweep", _SWEEP_TESLA,
                     lambda b: model.cyclotron_frequency(b, material))
    raise cfg.error("sweep", None, "needs start/stop/step in THz or tesla")


def _atomic_write(path, text):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", text=True)
    try:
        with os.fdopen(fd, "w", encoding="ascii") as fh:
            fh.write(text)
        os.chmod(tmp, 0o644)  # mkstemp creates 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _run_sweep(args):
    cfg = _Config(args.config)
    photons, coupling = _load_coupling(cfg)
    grid = _load_sweep_grid(cfg)
    from . import dispersion
    result = dispersion.sweep(photons, coupling, grid)
    features = dispersion.detect_features(result, photons)

    buf = io.StringIO()
    dispersion.write_branch_csv(result, buf)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "branches.csv"), buf.getvalue())
    _atomic_write(os.path.join(args.out, "features.json"), _json_text({
        "n_coupled_branches": features.n_coupled_branches,
        "n_cr_lines": features.n_cr_lines,
        "gap_at_resonance_thz": list(features.gap_at_resonance),
        "inflection_nu_c_thz": features.inflection_nu_c,
        "asymptote_low_thz": features.asymptote_low,
        "asymptote_high_thz": features.asymptote_high,
    }))
    return 0


def _spectrum_config(cfg, n_branches):
    from . import dispersion
    cfg.require("spectrum")
    widths = cfg.get("spectrum", "linewidth_thz")
    if len(widths) not in (1, n_branches):
        raise cfg.error("spectrum", "linewidth_thz",
                        f"need one linewidth or {n_branches}")
    grid = _grid(cfg, "spectrum", ("freq_min_thz", "freq_max_thz",
                                   "freq_step_thz"))
    # _KEYS has checked the linewidths and the mode, _grid the grid
    return dispersion.SpectrumConfig(
        frequency_grid=grid,
        linewidths=widths[0] if len(widths) == 1 else widths,
        weight_mode=cfg.get("spectrum", "weight_mode", "photon_fraction"))


def _run_spectrum(args):
    cfg = _Config(args.config)
    photons, coupling = _load_coupling(cfg)
    grid = _load_sweep_grid(cfg)
    spec_cfg = _spectrum_config(cfg, 2 * len(photons))
    from . import dispersion
    result = dispersion.sweep(photons, coupling, grid)

    if spec_cfg.weight_mode == "photon_fraction":
        weights = result.photon_fractions()
    else:
        import numpy as np
        weights = np.full(result.branches.shape, 1.0 / result.n_branches)

    trans = dispersion.spectrum_from_branches(result.branches, weights, spec_cfg)
    text = "nu_c_THz,nu_THz,T\n" + dispersion.csv_rows(
        result.nu_c_values, dispersion.g9_cells(spec_cfg.frequency_grid), trans)
    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "spectrum.csv"), text)
    return 0


def _fit_config(cfg, seed):
    cfg.require("fit")
    fit_eta = cfg.get("fit", "eta_mode", "fixed") == "free"
    if not fit_eta and not cfg.has("coupling", "eta"):
        raise cfg.error("fit", "eta_mode", "fixed needs [coupling] eta")
    bounds = {key: tuple(cfg.get("fit", key, [0.0, 1.0])) for key in
              ("ratio_11_bounds", "ratio_2_bounds", "eta_bounds")}
    eta_fixed = 1.0 if fit_eta else cfg.get("coupling", "eta")
    restarts = cfg.get("fit", "restarts", 8)
    from .fit import FitConfig
    try:
        return FitConfig(**bounds, fit_eta=fit_eta, eta_fixed=eta_fixed,
                         restarts=restarts, seed=seed)
    except FitConfigError as exc:
        if exc.field == "seed":
            raise ConfigError(f"--seed: {exc.problem}") from exc
        # every other field that FitConfig can reject is the [fit] key of
        # that name: eta_fixed comes from [coupling] eta, which _KEYS checks
        raise cfg.error("fit", exc.field, exc.problem) from exc


def _run_fit(args):
    cfg = _Config(args.config)
    if args.peaks is None:
        raise ConfigError("fit requires --peaks PATH")
    if not os.path.exists(args.peaks):
        raise DataCoverageError(f"peaks file not found: {args.peaks}")
    photons = _load_photons(cfg)
    if len(photons) != 2:
        raise cfg.error("photon_modes", "frequencies_thz",
                        "the fit needs exactly two photon modes")
    # "from . import fit" would give the package's fit() function, not the
    # submodule, so take the names from the submodule itself
    from . import model
    from .fit import FitParams, fit, load_peaks, record_residuals
    data = load_peaks(args.peaks)
    fit_cfg = _fit_config(cfg, args.seed)
    result = fit(data, photons, fit_cfg)
    if not result.converged:
        raise ConvergenceError(
            f"no restart converged (best rms {result.residual_rms:.6g} THz)")

    w1, w2 = photons[0].omega, photons[1].omega
    coupling = model.couplings_from_ratios(photons, result.omega_r_11 / w1,
                                           result.omega_r_2_tilde / w2,
                                           result.eta)
    back_21, back_22 = coupling.rabi[1] / math.sqrt(
        photons[0].frequency / photons[1].frequency)

    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "fit_result.json"), _json_text({
        "omega_r_11_rad_s": result.omega_r_11,
        "omega_r_2_tilde_rad_s": result.omega_r_2_tilde,
        "ratio_11": result.omega_r_11 / w1,
        "ratio_2_tilde": result.omega_r_2_tilde / w2,
        "ratio_21_over_omega_1": back_21 / w1,
        "ratio_22_over_omega_2": back_22 / w2,
        "eta": result.eta,
        "residual_rms_thz": result.residual_rms,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
        "seed": args.seed,
    }))

    params = FitParams(result.omega_r_11, result.omega_r_2_tilde,
                               result.eta)
    rms = record_residuals(params, data, photons).tolist()
    buf = io.StringIO()
    buf.write("record,nu_c_THz,rms_THz\n")
    for i, (rec, value) in enumerate(zip(data.records, rms)):
        buf.write(f"{i + 1},{rec.nu_c:.9g},{value:.9g}\n")
    _atomic_write(os.path.join(args.out, "fit_residuals.csv"), buf.getvalue())
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
    volumes = [1.0] * n
    if args.config is not None:
        cfg = _Config(args.config)
        volumes = cfg.get("overlap", "physical_volumes_m3", volumes)
        if len(volumes) != n:
            raise cfg.error("overlap", "physical_volumes_m3",
                            f"{len(volumes)} volumes for {n} profiles")

    from . import overlap
    profiles = [overlap.load_profile(p) for p in args.profiles]
    if args.mask is not None:
        mask = overlap.load_mask(args.mask)
    else:
        mask = overlap.full_mask(profiles[0].nx, profiles[0].ny)

    try:
        gram = overlap.gram(profiles, mask)
        eta = overlap.overlap_parameters(gram)
        eff_volumes = overlap.effective_mode_volumes(gram, volumes)
    except OverlapError as exc:  # name the file at fault
        path = args.mask if exc.entry is None else args.profiles[exc.entry]
        raise OverlapError(f"{path}: {exc}", exc.entry) from exc

    os.makedirs(args.out, exist_ok=True)
    _atomic_write(os.path.join(args.out, "overlap.json"), _json_text({
        "profiles": list(args.profiles),
        "overlap_integrals_um2": gram.view(float).reshape(n, n, 2).tolist(),
        "overlap_parameters": eta.tolist(),
        "effective_mode_volumes_m3": eff_volumes.tolist(),
    }))
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
        cmd.add_argument("--config", required=(name != "overlap"),
                         help="INI config file")
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
    args = _build_parser().parse_args(argv)
    try:
        return _RUNNERS[args.command](args)
    except DataCoverageError as exc:
        return _fail(4, exc)
    except ValueError as exc:  # ConfigError and ProfileFormatError among them
        return _fail(2, exc)
    except (InstabilityError, NumericalError, ConvergenceError) as exc:
        return _fail(3, exc)
    except OSError as exc:
        return _fail(4, exc)


if __name__ == "__main__":
    sys.exit(main())
