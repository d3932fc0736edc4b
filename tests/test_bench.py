"""The benchmark's library workload runs against the package as it stands.

bench/workloads.py calls the package's public constructors and solvers
directly, so a change to them can break the benchmark while every other
test passes. This runs one lib_scan round, with the workload's own output
checks, in a fresh interpreter: bench/probe.py imports numpy.random, which
must stay out of the test process. The bench files are only read.
"""

from pathlib import Path
import os
import subprocess
import sys

ROOT = Path(__file__).resolve().parent.parent

_ONE_ROUND = """
import sys
from pathlib import Path
import workloads
workload = workloads.LibScan(seed=1)
rounds = workload.setup(Path(sys.argv[1]))
kinds = set()
for op in rounds[0]:
    result = workload.run(op, traced=False)
    if result.error:
        sys.exit(result.error)
    kinds.add(result.kind)
print(" ".join(sorted(kinds)))
"""


def test_one_lib_scan_round_passes_its_checks(tmp_path):
    # no bytecode cache either: nothing is written under bench/
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "bench"),
                                           str(ROOT / "src")]))
    proc = subprocess.run([sys.executable, "-c", _ONE_ROUND, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # the round mixes both constructors the workload calls
    assert proc.stdout.split() == ["one_mode", "two_mode"]
