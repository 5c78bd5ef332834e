"""Peak-RSS gates: the CLI's memory stays bounded as M, T and the trial count grow.

Every gate runs a small and a large ``roadhmm`` command and bounds the growth
of the child's peak RSS between them. Each child starts through
``bench/launch.py``, a stdlib-only process that reports the child's own
``ru_maxrss``. On Linux a forked child's ``ru_maxrss`` includes the resident
size of the process it was forked from, so a child forked straight from this
test process, which holds numpy, pytest and a 3000-node map, would read this
process's peak instead of its own. ``ru_maxrss`` is in KiB only on Linux, so
the module runs only there.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from roadhmm import cli, roadmap

if sys.platform != "linux":
    pytest.skip("ru_maxrss is in KiB only on Linux", allow_module_level=True)

import resource  # noqa: E402  (Unix only)

ROOT = Path(__file__).resolve().parent.parent
LAUNCHER = ROOT / "bench" / "launch.py"
#: what the ``roadhmm`` console script runs; the child gets ``src`` first on its path
ENTRY = "from roadhmm.cli import main_entry; main_entry()"
CHILD_TIMEOUT_S = 120
MIB = 2**20
#: one dense model matrix of the 3000-node map, 68.7 MiB
MODEL_MATRIX_MIB = 3000**2 * 8 / MIB


def peak_mib(args, cwd: Path, expected_exit: int = 0) -> float:
    """Peak RSS in MiB of one ``roadhmm ARGS`` child in ``cwd``, read through bench/launch.py."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    stdout, stderr = cwd / "child.stdout", cwd / "child.stderr"
    command = [sys.executable, "-c", ENTRY, *map(str, args)]
    launcher = [sys.executable, "-I", "-S", str(LAUNCHER), str(CHILD_TIMEOUT_S),
                str(stdout), str(stderr), "--", *command]
    done = subprocess.run(launcher, cwd=cwd, env=env, capture_output=True,
                          timeout=CHILD_TIMEOUT_S + 30)
    assert done.returncode == 0, f"launcher failed: {done.stderr.decode(errors='replace')}"
    usage = json.loads(done.stdout)
    assert usage["returncode"] == expected_exit, (
        f"roadhmm {' '.join(map(str, args))}: exit {usage['returncode']}, "
        f"expected {expected_exit}: {stderr.read_text(errors='replace')}"
    )
    return usage["peak_rss_mb"]


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """The children's working directory, holding a two-line measurement file."""
    path = tmp_path_factory.mktemp("peak_rss")
    (path / "measured2.txt").write_text("5\n6\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def big_map(work):
    path = work / "bigmap.json"
    path.write_text(roadmap.save_map(roadmap.generate_default_map(3000, 0)), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def drive(work):
    """The measured column of one 20 000-step drive on the default map."""
    path = work / "drive.csv"
    argv = ["simulate", "--init", "5", "--steps", "20000", "--trials", "1",
            "--method", "filter", "--out", str(path)]
    assert cli.main(argv) == cli.EXIT_OK
    lines = path.read_text(encoding="utf-8").splitlines()
    column = lines[0].split(",").index("measured")
    return [line.split(",")[column] for line in lines[1:]]


def test_harness_reads_the_child_not_this_process(work):
    ballast_mib = 96
    ballast = np.ones(ballast_mib * MIB // 8)  # every page written, so resident
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child = peak_mib(["infer", "--measurements", "measured2.txt", "--init-state", "0"], work, 1)
    # a child forked straight from here would read at least the ballast
    assert child < ballast_mib < own_peak, (child, own_peak, ballast.size)


def test_simulate_peak_rss_is_flat_in_the_trial_count(work):
    def peak(trials):
        args = ["simulate", "--init", "5", "--method", "filter", "--trials", trials,
                "--out", "sim.csv"]
        return peak_mib(args, work)

    small, large = peak(2000), peak(20000)
    assert large - small <= 8, f"{small:.1f} MiB at 2000 trials, {large:.1f} MiB at 20000"


@pytest.mark.parametrize(
    "args, expected_exit, bound",
    [
        (["simulate", "--init", "5", "--steps", "1", "--trials", "1", "--out", "sim.csv"],
         0, 2.5 * MODEL_MATRIX_MIB),
        # each matrix is written a block of rows at a time, so neither is ever whole.
        # Measured growth: about 2 MiB, against about 70 MiB with each matrix built
        # whole (2-core Linux VM, Python 3.11, numpy 2.4)
        (["export-matrices", "--format", "csv", "--out-prefix", "m"], 0, 0.25 * MODEL_MATRIX_MIB),
        (["export-matrices", "--format", "pgm", "--out-prefix", "m"], 0, 0.25 * MODEL_MATRIX_MIB),
        # rejected before the model is built
        (["infer", "--measurements", "measured2.txt", "--init-state", "0"],
         1, 0.5 * MODEL_MATRIX_MIB),
        # above the sparse crossover the passes read the transition's entries, so
        # no M x M array is built. Measured growth: 11.3 and 1.1 MiB (2-core Linux
        # VM, Python 3.11, numpy 2.4); the simulate growth is mostly its
        # observation sampling table.
        (["simulate", "--init", "5", "--steps", "50", "--trials", "2", "--out", "sim.csv"],
         0, 0.25 * MODEL_MATRIX_MIB),
        (["infer", "--measurements", "measured2.txt", "--init-state", "5", "--out", "beliefs.csv"],
         0, 0.1 * MODEL_MATRIX_MIB),
    ],
    ids=["simulate", "export-csv", "export-pgm", "rejected-infer", "simulate-no-matrix",
         "infer-no-matrix"],
)
def test_peak_rss_on_a_3000_node_map_over_the_default_map(work, big_map, args, expected_exit, bound):
    small = peak_mib([*args, "--map", "default"], work, expected_exit)
    large = peak_mib([*args, "--map", big_map], work, expected_exit)
    assert large - small <= bound, (
        f"{small:.1f} MiB on the default map, {large:.1f} MiB at M=3000: "
        f"grew by {large - small:.1f} MiB > {bound:.1f} MiB"
    )


def test_infer_both_peak_rss_grows_by_at_most_two_belief_arrays_in_T(work, drive):
    def peak(steps):
        path = work / f"measured{steps}.txt"
        path.write_text("\n".join(drive[:steps]) + "\n", encoding="utf-8")
        args = ["infer", "--measurements", path, "--init-state", "5", "--method", "both",
                "--out", os.devnull]
        return peak_mib(args, work)

    small, large = peak(2000), peak(20000)
    # two (T, M) float arrays over the 18 000 extra steps at M = 105, plus 4 MiB
    # of slack. The growth reads 30.6 MiB against this 32.8 MiB (2-core Linux VM,
    # Python 3.11, numpy 2.4): a third belief array would fail it, and so would
    # about 2 MiB of other growth.
    bound = (2 * 8 * 18000 * 105 + 4 * MIB) / MIB
    assert large - small <= bound, f"{small:.1f} MiB at T=2000, {large:.1f} MiB at T=20000"
