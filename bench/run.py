"""Benchmark of the mmhopfield solver, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run it from anywhere inside a source checkout; it imports the package from
the checkout's src/ and nothing else. The workloads are described in
workloads.py and listed in BENCHMARK.json at the root of the checkout,
which also names every metric and its unit.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of the
traced run instead. The line before it is a JSON object with the details:
the metrics the workload's own operations name (sweep_s, spectrum_s,
overlap_s, fit_s, scan_points_per_s), fail_ratio, the thread setting and
provenance. The exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import TARGETS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

# BLAS threads spin on a small machine and turn wall time into noise
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
IMPORT_PAIRS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "mmhopfield" / "__init__.py").is_file():
        print(f"error: no mmhopfield sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


def _per_op(results, weights, value):
    """Mean of value(result) per operation of the workload's mix: each
    kind's mean, weighted by the kind's share of the operations.

    A mean, not a median: a shared machine can switch between two speeds
    for seconds to minutes at a time, and the median of short operations
    then jumps between them, while the mean moves smoothly with the time
    spent at each.
    """
    by_kind = {}
    for r in results:
        by_kind.setdefault(r.kind, []).append(value(r))
    if not by_kind:
        return 0.0
    total = sum(weights[k] for k in by_kind)
    return sum(weights[k] * statistics.fmean(v) for k, v in by_kind.items()) / total


def _wall(r):
    return r.wall_s


def _measure_import(work):
    """Seconds that importing mmhopfield.cli adds to a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_PAIRS):
        for code, samples in (("pass", bare), ("import mmhopfield.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=work, check=True,
                           timeout=120)
            samples.append(time.perf_counter() - start)
    return statistics.median(full) - statistics.median(bare)


def _layer_metrics(results, weights, import_s):
    """Per-layer figures of the traced operations, per operation of the mix."""
    traced = [r for r in results if r.traced]
    untraced = [r for r in results if not r.traced]

    def mean(value):
        return _per_op(traced, weights, value)

    def span(key, field):
        return lambda r: (r.spans or {}).get("totals", {}).get(key, (0, 0.0))[field]

    metrics = {}
    for key in {key for _, _, key in TARGETS}:
        metrics[f"{key}.calls"] = mean(span(key, 0))
        metrics[f"{key}.self_s"] = mean(span(key, 1))
    # every fit counts, also one that exited non-zero before its check ran
    fits = [r for r in results if r.kind.startswith("fit")]
    read = [r for r in traced if r.n_evaluations is not None]
    # a run can stop inside a traced pass; compare the kinds both passes ran
    kinds = {r.kind for r in traced} & {r.kind for r in untraced}
    metrics.update({
        "cli.import_s": import_s,
        "cli.output_bytes": mean(lambda r: r.output_bytes),
        "overlap.parse_bytes": mean(lambda r: (r.spans or {}).get("parse_bytes", 0)),
        "fit.n_evaluations": _per_op(read, weights, lambda r: r.n_evaluations),
        "fit.recovered_ratio": (sum(bool(r.recovered) for r in fits) / len(fits)
                                if fits else 0.0),
        "trace_overhead": (
            _per_op([r for r in traced if r.kind in kinds], weights, _wall)
            - _per_op([r for r in untraced if r.kind in kinds], weights, _wall)),
    })
    return metrics


def _provenance(seed):
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "mmhopfield").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "git_commit": commit, "source_sha256": digest.hexdigest(),
            "seed": seed}


def _named_metrics(results, points_per_scan):
    """Per-command figures from the untraced operations: the median wall
    time of each CLI command with its sample count, and the bias points per
    second of library scans."""
    plain = [r for r in results if not r.traced]
    named = {}
    for kind in ("sweep", "spectrum", "overlap"):
        walls = [r.wall_s for r in plain if r.kind == kind]
        if walls:
            named[f"{kind}_s"] = {"value": statistics.median(walls), "unit": "s",
                                  "n": len(walls)}
    fits = [r.wall_s for r in plain if r.kind.startswith("fit")]
    if fits:
        named["fit_s"] = {"value": statistics.median(fits), "unit": "s",
                          "n": len(fits)}
    scans = [r.wall_s for r in plain if r.kind.endswith("_mode")]
    if scans:
        named["scan_points_per_s"] = {
            "value": points_per_scan * len(scans) / sum(scans),
            "unit": "1/s", "n": len(scans)}
    return named


def run_workload(args):
    import mmhopfield
    import workloads

    package = Path(mmhopfield.__file__).resolve()
    if SRC.resolve() not in package.parents:
        print(f"error: imported mmhopfield from {package}, not {SRC}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        setup_runs = []

        def set_up():
            rep_dir = work / f"setup{len(setup_runs)}"
            rep_dir.mkdir()
            start = time.perf_counter()
            rounds = workload.setup(rep_dir)
            workload.warm_up(rep_dir)
            setup_runs.append(time.perf_counter() - start)
            return rounds

        # The operations use the first set-up. The others are spread over
        # the measured period and paused out of it, so that setup_s samples
        # the same swings of host speed as the operations do.
        rounds = set_up()
        due = [args.seconds * k / workload.setup_repeats
               for k in range(1, workload.setup_repeats)]
        import_s = _measure_import(work) if args.trace else None

        # a traced run repeats every round, untraced and then traced
        round_len = len(rounds[0])
        results = []
        probes = []
        paused = 0.0
        start = time.perf_counter()
        while (elapsed := time.perf_counter() - start - paused) < args.seconds:
            if due and elapsed >= due[0]:
                del due[0]
                pause = time.perf_counter()
                set_up()
                paused += time.perf_counter() - pause
                continue
            r, j = divmod(len(results), round_len)
            traced = bool(args.trace) and r % 2 == 1
            if args.trace:
                r //= 2
            result = workload.run(rounds[r % len(rounds)][j], traced)
            if result.error:
                print(f"FAILED {result.error}", file=sys.stderr)
            results.append(result)
            if not args.trace:
                probe_start = time.perf_counter()
                workload.probe()
                probes.append(time.perf_counter() - probe_start)
        for _ in due:
            set_up()
        peak_rss_mb = workload.peak_rss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    failed = sum(r.error is not None for r in results)
    kinds = [op[0] for round_ in rounds for op in round_]
    weights = {k: kinds.count(k) / len(kinds) for k in set(kinds)}
    plain = [r for r in results if not r.traced]
    setup_s = statistics.median(setup_runs)
    latency_s = _per_op(plain, weights, _wall)
    if args.trace:
        values = _layer_metrics(results, weights, import_s)
        spec = SPEC["per_layer"]
    else:
        # see the probes in workloads.py
        scale = workload.probe_ref_s / statistics.fmean(probes)
        values = {"scaled_latency_s": latency_s * scale,
                  "setup_s": setup_s * scale, "peak_rss_mb": peak_rss_mb}
        spec = SPEC["end_to_end"]

    detail = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "named": _named_metrics(results, len(workloads.SCAN_GRID)),
        "latency_s": {"value": latency_s, "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s", "runs": setup_runs},
        "probe_s": {"value": statistics.fmean(probes) if probes else None,
                    "unit": "s", "n": len(probes)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "fail_ratio": failed / max(len(results), 1),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "provenance": _provenance(args.seed),
    }
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and len(results) > 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec},
    }))
    return 0 if failed == 0 and results else 1


def run_all(args):
    """Each workload in its own interpreter, then one summary."""
    summary = {}
    code = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"error: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            code = proc.returncode or 1
            if len(lines) < 2:
                continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        summary[name] = {"result": result, "detail": detail}
        print(f"== {name}: attempted {result['attempted']}, failed "
              f"{result['failed']}")
        items = {**result["metrics"], **detail["named"],
                 "fail_ratio": {"value": detail["fail_ratio"], "unit": "ratio"}}
        for metric, item in items.items():
            count = f" (n={item['n']})" if "n" in item else ""
            print(f"   {metric:<34} {item['value']:.6g} {item['unit']}{count}")
    attempted = sum(s["result"]["attempted"] for s in summary.values())
    failed = sum(s["result"]["failed"] for s in summary.values())
    print(json.dumps({"correct": code == 0 and failed == 0, "attempted": attempted,
                      "failed": failed, "workloads": summary}))
    return code


if __name__ == "__main__":
    sys.exit(main())
