"""Seeded mutation sample over the command-line inputs.

Each case changes one input and runs the subcommand in process through
cli.main(): one config value, one cell of a peak file, one field of a
profile or mask header, or a data file cut in half, with or without a
non-ASCII byte at the cut. The contract is the same for every case:

- exit 0, and every number in every output file is finite; or
- exit 2, 3 or 4, and stderr is one "ERROR N: ..." line, with that N;
- nothing raises out of main() and no RuntimeWarning is issued;
- the cyclic garbage collector is left as it was: on, and with the
  same number of frozen objects;
- a config fault that exits 2 names the config's path and a line, and a
  faulty data file is named by its path.

Configs written for the retired microscopic coupling route still reach
the command line, so the set keeps them: a config that gives mode volumes
in place of the ratios, and mutations that add one of the route's
[material] keys. The command must refuse them at a line.

The full cross product is about 3,580 runs, so by default a sample of it
runs; every fault found in it is pinned below as a fixed row. The sample
is the list of case ids in fuzz_sample.txt, drawn once with
random.Random(1958).sample(cases, 200) over the set as it then stood,
less the one case of the since-deleted overlap --config. It is pinned by
id, so that adding or retiring an input leaves every other sampled case
where it is. The
whole set carries the full_fuzz marker, which pyproject.toml deselects
unless asked for:

    python -m pytest -q -m full_fuzz tests/test_fuzz.py
"""

import contextlib
import gc
import io
import json
import math
import re
import warnings
from pathlib import Path

import pytest

from mmhopfield import cli, errors

BASE_CFG = """\
[photon_modes]
frequencies_thz = 0.8, 1.6
labels = LC, dipolar

[coupling]
ratio_11 = 0.37
ratio_2_tilde = 0.2124026
eta = 0.15

[material]
effective_mass_ratio = 0.07

[sweep]
start_thz = 0.05
stop_thz = 2.2
step_thz = 0.05

[spectrum]
linewidth_thz = 0.04
freq_min_thz = 0.4
freq_max_thz = 1.4
freq_step_thz = 0.02
weight_mode = photon_fraction

[fit]
ratio_11_bounds = 0.0, 0.8
ratio_2_bounds = 0.0, 0.8
eta_mode = fixed
restarts = 2
"""

# the grid spellings a config can take, and a config of the retired route
VARIANTS = {
    "ratios": BASE_CFG,
    "volumes": BASE_CFG.replace("ratio_11 = 0.37\nratio_2_tilde = 0.2124026\n",
                                "mode_volumes_m3 = 1e-17, 2e-17\n"),
    "tesla": BASE_CFG.replace("start_thz = 0.05\nstop_thz = 2.2\nstep_thz = 0.05\n",
                              "start_tesla = 0.125\nstop_tesla = 5.5\n"
                              "step_tesla = 0.125\n"),
}

# the retired route's [material] keys, which a mutation adds to the section
RETIRED = ("sheet_density_per_cm2", "qw_count", "background_permittivity")

# the shipped config too, for the fixed rows
CONFIGS = {**VARIANTS, "structured": (
    Path(cli.__file__).parent / "configs" / "structured.cfg").read_text()}

# every subcommand checks every value of the config, whatever it reads
COMMANDS = ("sweep", "spectrum", "fit")

VALUES = ("0", "-1", "2", "1e6", "1e7", "1e-320", "1e-300", "1e300", "1e308",
          "nan", "inf", "-inf", "9" * 400, "bananas", "", "0.5, 1.5",
          "1, 2, 3", "0, 1e300")

# header fields: counts, spacings and junk, 400 nines among them
HEADER_VALUES = ("0", "-1", "1", "3", "nan", "inf", "1e-320", "1e300", "2.5",
                 "bananas", "9" * 400, "1.5e1")

PEAK_VALUES = ("nan", "inf", "-1", "0", "1e300", "bananas", "", "5", "0.24")

NX = NY = 6


def _profile_text(kind):
    """A 6 x 6 profile, 2.5 um cells: a Gaussian spot for "lc", a dipole
    for "dipolar"; tokens are 're,im'."""
    rows = []
    for i in range(NX):
        x = (i - 2.5) / 2.0
        cells = []
        for j in range(NY):
            y = (j - 2.5) / 2.0
            value = math.exp(-x * x - y * y) * (x if kind == "dipolar" else 1.0)
            cells.append(f"{value!r},0.0")
        rows.append(" ".join(cells))
    return f"{NX} {NY} 2.5 2.5\n" + "\n".join(rows) + "\n"


MASK_TEXT = f"{NX} {NY} 2.5 2.5\n" + "\n".join(
    " ".join("1" if 1 <= i <= 4 and 1 <= j <= 4 else "0" for j in range(NY))
    for i in range(NX)) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Unmutated input files: the base config, the peaks of its own sweep
    (four branches at 12 fields), two profiles and a mask."""
    folder = tmp_path_factory.mktemp("inputs")
    cfg = folder / "base.cfg"
    cfg.write_text(BASE_CFG)
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["sweep", "--config", str(cfg), "--out",
                         str(folder)]) == 0
    rows = {}
    for line in (folder / "branches.csv").read_text().splitlines()[1:]:
        nu_c, _, freq = line.split(",")[:3]
        rows.setdefault(nu_c, []).append(freq)
    picked = list(rows.items())[1::3][:12]
    peaks = "nu_c_THz,peak1_THz,peak2_THz,peak3_THz,peak4_THz\n" + "".join(
        ",".join([nu_c] + freqs) + "\n" for nu_c, freqs in picked)
    files = {"peaks": peaks, "lc": _profile_text("lc"),
             "dipolar": _profile_text("dipolar"), "mask": MASK_TEXT}
    for name, text in files.items():
        (folder / f"{name}.dat").write_text(text)
    return files


def _replace_value(text, key, value):
    lines = text.splitlines()
    if key in RETIRED:
        lines.insert(lines.index("[material]") + 1, f"{key} = {value}")
    else:
        at = next(i for i, ln in enumerate(lines) if ln.startswith(key + " ="))
        lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


def _config_cases():
    """(id, variant, command, key, value) for every config mutation under
    every command."""
    cases = []
    for variant, text in VARIANTS.items():
        section = None
        for line in text.splitlines():
            if line.startswith("["):
                section = line[1:-1]
                keys = RETIRED if section == "material" else ()
            elif " = " in line:
                keys = (line.split(" = ")[0],)
            else:
                continue
            for command in COMMANDS:
                cases += [(f"{variant}-{command}-{key}={value[:12]}", variant,
                           command, key, value)
                          for key in keys for value in VALUES]
    return cases


def _file_cases():
    """(id, file, line index, cell index, value) for every mutation of a
    peak cell or of a profile or mask header field; a line index of None
    cuts the file in half, and puts the value, if any, at the cut."""
    cases = [(f"{name}-{kind}", name, None, None, value)
             for name in ("peaks", "lc", "dipolar", "mask")
             for kind, value in (("truncated", ""), ("non-ascii", "\xe9"))]
    for name in ("lc", "dipolar", "mask"):
        for cell in range(5):  # the fifth is an extra field
            cases += [(f"{name}-header{cell}={value[:12]}", name, 0, cell,
                       value) for value in HEADER_VALUES]
    for row, cell in ((0, 1), (1, 0), (1, 2), (5, 4), (12, 3)):
        cases += [(f"peaks-{row}.{cell}={value[:12]}", "peaks", row, cell,
                   value) for value in PEAK_VALUES]
    return cases


def _mutate_file(text, sep, row, cell, value):
    if row is None:
        return text[:len(text) // 2] + value
    lines = text.splitlines()
    cells = lines[row].split(sep)
    cells[cell:cell + 1] = [value]
    lines[row] = sep.join(cells)
    return "\n".join(lines) + "\n"


def _numbers(path):
    """Every number of an output file, CSV or JSON."""
    text = path.read_text()
    if path.suffix == ".json":
        def leaves(node):
            if isinstance(node, dict):
                node = list(node.values())
            if isinstance(node, list):
                for item in node:
                    yield from leaves(item)
            elif isinstance(node, (int, float)) and not isinstance(node, bool):
                yield node
        return list(leaves(json.loads(text)))
    return [float(cell) for line in text.splitlines()[1:]
            for cell in line.split(",")]


def _run(argv, out):
    """cli.main(argv) with stderr and warnings caught: (code, stderr,
    RuntimeWarnings)."""
    err = io.StringIO()
    frozen = gc.get_freeze_count()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = cli.main(argv + ["--out", str(out)])
    _assert_collector_untouched(frozen)
    return code, err.getvalue(), [w for w in caught
                                  if issubclass(w.category, RuntimeWarning)]


def _assert_collector_untouched(frozen):
    """An explicit argv leaves the cyclic collector as the caller had it."""
    assert gc.isenabled()
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["sweep"], 2)],
                         ids=["help", "usage-error"])
def test_argparse_exits_leave_the_collector_alone(capsys, argv, code):
    frozen = gc.get_freeze_count()
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    _assert_collector_untouched(frozen)


def _check_contract(code, err, runtime_warnings, out, at_fault):
    assert not runtime_warnings, [str(w.message) for w in runtime_warnings]
    if code == 0:
        assert err == ""
        files = sorted(out.glob("*.*"))
        assert files
        for path in files:
            assert all(map(math.isfinite, _numbers(path))), path.name
        return
    assert code in (2, 3, 4), code
    assert re.fullmatch(rf"ERROR {code}: [^\n]+\n", err), err
    if code == 2:  # the file at fault, and for a config its line
        assert re.match(f"ERROR 2: (?:{at_fault})", err), err


def _run_config_case(tmp_path, inputs, variant, command, key, value):
    for name, text in inputs.items():
        (tmp_path / f"{name}.dat").write_text(text)
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(_replace_value(CONFIGS[variant], key, value))
    argv = [command, "--config", str(cfg)]
    if command == "fit":
        argv += ["--peaks", str(tmp_path / "peaks.dat")]
    out = tmp_path / "out"
    code, err, caught = _run(argv, out)
    _check_contract(code, err, caught, out, re.escape(str(cfg)) + r":\d+: ")
    return code, err


def _run_file_case(tmp_path, inputs, name, row, cell, value):
    for other, text in inputs.items():
        if other == name:
            text = _mutate_file(text, "," if name == "peaks" else " ", row,
                                cell, value)
        (tmp_path / f"{other}.dat").write_text(text, encoding="latin-1")
    if name == "peaks":
        cfg = tmp_path / "cfg.ini"
        cfg.write_text(BASE_CFG)
        argv = ["fit", "--config", str(cfg), "--peaks",
                str(tmp_path / "peaks.dat")]
    else:
        argv = ["overlap", "--profiles", str(tmp_path / "lc.dat"),
                str(tmp_path / "dipolar.dat"), "--mask",
                str(tmp_path / "mask.dat")]
    out = tmp_path / "out"
    code, err, caught = _run(argv, out)
    at_fault = re.escape(str(tmp_path / f"{name}.dat"))
    if name == "lc":  # the other profiles are checked against the first
        at_fault += "|.* differs from the first profile's"
    _check_contract(code, err, caught, out, at_fault)
    return code, err


def _cases():
    return ([("config",) + case for case in _config_cases()]
            + [("file",) + case for case in _file_cases()])


def _sample():
    """The pinned cases, in the order of fuzz_sample.txt; an id that names
    no case fails the collection."""
    cases = {case[1]: case for case in _cases()}
    ids = (Path(__file__).parent / "fuzz_sample.txt").read_text().splitlines()
    return [cases[case_id] for case_id in ids]


def _run_case(tmp_path, inputs, case):
    kind, _, *args = case
    if kind == "config":
        _run_config_case(tmp_path, inputs, *args)
    else:
        _run_file_case(tmp_path, inputs, *args)


@pytest.mark.parametrize("case", _sample(), ids=lambda case: case[1])
def test_sampled_mutation_keeps_the_contract(tmp_path, inputs, case):
    _run_case(tmp_path, inputs, case)


@pytest.mark.full_fuzz
@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[1])
def test_every_mutation_keeps_the_contract(tmp_path, inputs, case):
    _run_case(tmp_path, inputs, case)


def _above(cap):
    return repr(math.nextafter(cap, math.inf))


# Every fault the sample has found, with what the command does now: the
# exit code and, for exit 2, the key whose line the error names and the
# problem it states. Each comment says what the command did before.
@pytest.mark.parametrize("variant, command, key, value, code, named, problem", [
    # the range caps, at the cap and just above it
    pytest.param("ratios", "spectrum", "linewidth_thz", "1e150", 0, None, None,
                 id="linewidth-at-cap"),
    pytest.param("ratios", "spectrum", "linewidth_thz",
                 _above(errors.MAX_LINEWIDTH_THZ), 2, "spectrum linewidth_thz",
                 "linewidths must not exceed 1e+150", id="linewidth-above-cap"),
    # exit 0, with every T cell nan
    pytest.param("structured", "spectrum", "linewidth_thz", "1e200", 2,
                 "spectrum linewidth_thz", "linewidths must not exceed 1e+150",
                 id="linewidth-overflow"),
    *[pytest.param("structured", "sweep", key, "1e6", 0, None, None,
                   id=f"{key}-at-cap")
      for key in ("ratio_11", "ratio_2_tilde")],
    *[pytest.param("structured", "sweep", key, _above(errors.MAX_RATIO), 2,
                   f"coupling {key}", "ratios must not exceed 1e+06",
                   id=f"{key}-above-cap")
      for key in ("ratio_11", "ratio_2_tilde")],
    # ERROR 3: the smallest squared frequency came out negative
    pytest.param("structured", "sweep", "ratio_11", "1e7", 2,
                 "coupling ratio_11", "ratios must not exceed 1e+06",
                 id="ratio-spurious-instability"),
    # an overflow RuntimeWarning, then ERROR 3 on a nan
    pytest.param("structured", "sweep", "ratio_2_tilde", "1e150", 2,
                 "coupling ratio_2_tilde", "ratios must not exceed 1e+06",
                 id="ratio-overflow"),
    # ERROR 2 with no place: Rabi couplings must be finite and non-negative
    pytest.param("structured", "sweep", "ratio_11", "1e308", 2,
                 "coupling ratio_11", "ratios must not exceed 1e+06",
                 id="ratio-unanchored"),
    # no ceiling: the restarts ran until memory gave out
    pytest.param("ratios", "fit", "restarts", str(errors.MAX_RESTARTS + 1), 2,
                 "fit restarts", "must not exceed 1000", id="restarts-above-cap"),
    # overflow RuntimeWarnings from the start points
    pytest.param("ratios", "fit", "ratio_11_bounds", "0, 1e300", 2,
                 "fit ratio_11_bounds", "must not exceed 1e+06",
                 id="ratio-bound-overflow"),
    # the tesla conversion: a ZeroDivisionError traceback, exit 1
    pytest.param("tesla", "sweep", "effective_mass_ratio", "1e-300", 2,
                 "material effective_mass_ratio", "must be at least 0.001",
                 id="tesla-mass-underflow"),
    pytest.param("tesla", "spectrum", "step_tesla", "1e-320", 2,
                 "sweep step_tesla", "step gives more than 1000000 grid points",
                 id="tesla-step-underflow"),
    # the retired microscopic route: tracebacks (exit 1) on an underflowing
    # mass or volume or an overflowing well count, ERROR 3 on derived ratios
    # far past the cap; a config that sets one of its keys is now refused
    # at that key's line
    pytest.param("volumes", "sweep", "effective_mass_ratio", "1e-300", 2,
                 "coupling mode_volumes_m3", "unknown key",
                 id="volumes-mass-underflow"),
    pytest.param("volumes", "sweep", "mode_volumes_m3", "1e-300, 2e-17", 2,
                 "coupling mode_volumes_m3", "unknown key",
                 id="volume-underflow"),
    pytest.param("ratios", "sweep", "qw_count", "9" * 400, 2,
                 "material qw_count", "unknown key", id="qw-count-overflow"),
    pytest.param("ratios", "spectrum", "sheet_density_per_cm2", "1e100", 2,
                 "material sheet_density_per_cm2", "unknown key",
                 id="derived-ratio-above-cap"),
    pytest.param("ratios", "sweep", "sheet_density_per_cm2", "1e305", 2,
                 "material sheet_density_per_cm2", "unknown key",
                 id="density-scaled"),
    # sweep's feature range: ERROR 2 with no place, after the whole solve
    pytest.param("ratios", "sweep", "stop_thz", "1.0", 2, "sweep stop_thz",
                 "sweep range [0.05, 1] THz too narrow for feature detection; "
                 "need it to span [0.05, 2.0]", id="sweep-range-stop"),
    pytest.param("ratios", "sweep", "start_thz", "0.1", 2, "sweep start_thz",
                 "sweep range [0.1, 2.2] THz too narrow for feature detection; "
                 "need it to span [0.05, 2.0]", id="sweep-range-start"),
    pytest.param("tesla", "sweep", "stop_tesla", "2", 2, "sweep stop_tesla",
                 "sweep range [0.0499866, 0.799785] THz too narrow for feature "
                 "detection; need it to span [0.05, 2.0]",
                 id="tesla-sweep-range"),
])
def test_found_config_faults_stay_fixed(tmp_path, inputs, variant, command,
                                        key, value, code, named, problem):
    got, err = _run_config_case(tmp_path, inputs, variant, command, key, value)
    assert got == code, err
    if code == 2:
        section, named_key = named.split()
        cfg = tmp_path / "cfg.ini"
        lineno = next(i for i, line in enumerate(
            cfg.read_text().splitlines(), start=1)
            if line.startswith(named_key + " ="))
        assert err == (f"ERROR 2: {cfg}:{lineno}: [{section}] {named_key}: "
                       f"{problem}\n")


@pytest.mark.parametrize("name, row, cell, value, where, problem", [
    # ERROR 2 with no place: Maximum allowed dimension exceeded
    *[pytest.param(name, 0, cell, "9" * 400, "", "expected nx*ny = ",
                   id=f"{name}-header{cell}-huge")
      for name, cell in (("lc", 0), ("dipolar", 1), ("mask", 0))],
    # overflow RuntimeWarnings in the fit
    pytest.param("peaks", 1, 0, "1e300", ":2", "nu_c and peaks must not "
                 "exceed 1e+06 THz", id="peaks-nu-c-overflow"),
    pytest.param("peaks", 5, 4, "1e300", ":6", "nu_c and peaks must not "
                 "exceed 1e+06 THz", id="peaks-cell-overflow"),
])
def test_found_file_faults_stay_fixed(tmp_path, inputs, name, row, cell, value,
                                      where, problem):
    code, err = _run_file_case(tmp_path, inputs, name, row, cell, value)
    assert code == 2
    assert err.startswith(f"ERROR 2: {tmp_path / name}.dat{where}: {problem}")
