"""Benchmark workloads: inputs made from the seed, the CLI commands that use
them, and the checks every output must pass.

Each workload has a *full* command, timed for wall_s, cpu_s and peak_rss_mb,
and a *setup* command: the same command cut to its smallest legal size, so
that its wall time covers interpreter start, imports, map load or
generation and model build. The program only ever sees files and flags; every
input is made here from the seed, by sampling the model (a uniform node-id
sequence is rejected, because many observation entries are exactly 0.0).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
LAUNCHER = BENCH_DIR / "launch.py"

#: What the ``roadhmm`` console script runs; the package is not installed,
#: so the child gets ``src`` on its path instead.
ENTRY = "from roadhmm.cli import main_entry; main_entry()"
CHILD_TIMEOUT_S = 60.0

DEFAULT_NUM_NODES = 105
INIT_STATE = 5
TABLE1_TRIALS = 500
TABLE1_SCENARIOS = ((5, 1.0), (5, 2.0), (90, 1.0))
TABLE1_STEPS = 50
# Half the T=20 000 of the hand-measured baseline: the shorter drive gives about
# nine invocations per 30 s run instead of four, which keeps the run median
# steady on a host whose per-invocation wall time varies by 10 %.
INFER_STEPS = 10_000
BIGMAP_NODES = 3000
BIGMAP_STEPS = 50
BIGMAP_TRIALS = 8

TABLE1_HEADER = (
    "initial_state,sigma,steps,trials,filter_mean,filter_std,"
    "smoother_mean,smoother_std,reference_filter,reference_smoother"
)
SIMULATE_HEADER = "trial,k,true_state,measured,filter_estimate,smoother_estimate"


class CheckError(Exception):
    """A CLI output that fails a correctness check."""


@dataclass(frozen=True)
class Case:
    """One CLI command of a workload and the check its output must pass."""

    kind: str  # "full" or "setup"
    argv: tuple[str, ...]
    out: Path
    check: Callable[[str, str], None]  # (stdout, out-file text); raises CheckError


@dataclass(frozen=True)
class ChildRun:
    """Exit status and resource use of one CLI child process."""

    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: bytes
    stderr: bytes


@dataclass(frozen=True)
class Prepared:
    """A workload made ready in a work directory for one seed."""

    inputs: dict[str, str]  # generated input file -> sha256
    full: Case
    setup: Case
    input_runs: list[ChildRun]  # every CLI call made to generate the inputs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """The caller's environment with ``src`` first on the path; no BLAS variables are set."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, cwd: Path) -> ChildRun:
    """Run ``roadhmm <argv>`` in a child process started through launch.py."""
    stdout_path, stderr_path = cwd / "child.stdout", cwd / "child.stderr"
    command = [sys.executable, "-c", ENTRY, *argv]
    launcher = [sys.executable, "-I", "-S", str(LAUNCHER), str(CHILD_TIMEOUT_S),
                str(stdout_path), str(stderr_path), "--", *command]
    done = subprocess.run(launcher, cwd=cwd, env=child_env(), capture_output=True,
                          timeout=CHILD_TIMEOUT_S + 30)
    try:
        usage = json.loads(done.stdout)
    except json.JSONDecodeError:
        raise RuntimeError(f"launcher failed: {done.stderr.decode(errors='replace')}") from None
    return ChildRun(
        returncode=usage["returncode"],
        wall_s=usage["wall_s"],
        cpu_s=usage["cpu_s"],
        peak_rss_mb=usage["peak_rss_mb"],
        stdout=stdout_path.read_bytes(),
        stderr=stderr_path.read_bytes(),
    )


# --- output checks -----------------------------------------------------------


def _rows(text: str, header: str, count: int) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise CheckError(f"header {lines[0][:80] if lines else ''!r} is not {header[:80]!r}")
    if len(lines) - 1 != count:
        raise CheckError(f"{len(lines) - 1} rows, expected {count}")
    return lines[1:]


def _check_ids(ids: np.ndarray, num_nodes: int, what: str) -> None:
    if ids.size and (ids.min() < 1 or ids.max() > num_nodes):
        raise CheckError(f"{what} outside 1..{num_nodes}")


def check_table1(stdout: str, out: str, trials: int) -> None:
    if len(stdout.splitlines()) != 1 + len(TABLE1_SCENARIOS):
        raise CheckError(f"stdout has {len(stdout.splitlines())} lines")
    rows = _rows(out, TABLE1_HEADER, len(TABLE1_SCENARIOS))
    for row, (init, sigma) in zip(rows, TABLE1_SCENARIOS):
        fields = row.split(",")
        if len(fields) != 10:
            raise CheckError(f"row {row!r} has {len(fields)} fields")
        if (int(fields[0]), float(fields[1]), int(fields[2]), int(fields[3])) != (
            init, sigma, TABLE1_STEPS, trials
        ):
            raise CheckError(f"row {row!r} is not scenario init={init} sigma={sigma:g}")
        f_mean, f_std, s_mean, s_std = (float(v) for v in fields[4:8])
        if not (0.0 <= f_mean <= 1.0 and 0.0 <= s_mean <= 1.0 and f_std >= 0.0 and s_std >= 0.0):
            raise CheckError(f"row {row!r} has an accuracy outside [0, 1] or a negative std")


def check_simulate(stdout: str, out: str, trials: int, steps: int, num_nodes: int) -> np.ndarray:
    """Check a ``--method both`` results CSV; return its rows as an int array."""
    rows = _rows(out, SIMULATE_HEADER, trials * steps)
    table = np.array([row.split(",") for row in rows], dtype=np.int64).reshape(-1, 6)
    index = np.arange(trials * steps)
    if not (np.array_equal(table[:, 0], index // steps) and np.array_equal(table[:, 1], index % steps + 1)):
        raise CheckError("trial/k columns out of order")
    _check_ids(table[:, 2:], num_nodes, "node id")
    if len(stdout.splitlines()) != 2:
        raise CheckError(f"stdout has {len(stdout.splitlines())} lines, expected 2 accuracy lines")
    return table


def check_infer(stdout: str, out: str, measurements: list[int], num_nodes: int) -> None:
    steps = len(measurements)
    header = "method,k,measured,estimate," + ",".join(f"p_{i}" for i in range(1, num_nodes + 1))
    rows = _rows(out, header, 2 * steps)
    heads, probs = [], []
    for row in rows:
        method, k, measured, estimate, rest = row.split(",", 4)
        heads.append((method, int(k), int(measured), int(estimate)))
        probs.append(rest)
    expected = [("filter", k + 1, y) for k, y in enumerate(measurements)]
    expected += [("smoother", k + 1, y) for k, y in enumerate(measurements)]
    if [h[:3] for h in heads] != expected:
        raise CheckError("method/k/measured columns do not match the input")
    beliefs = np.array(",".join(probs).split(","), dtype=float)
    if beliefs.size != 2 * steps * num_nodes:
        raise CheckError("belief rows do not have one entry per node")
    beliefs = beliefs.reshape(2 * steps, num_nodes)
    estimates = np.array([h[3] for h in heads])
    _check_ids(estimates, num_nodes, "estimate")
    if beliefs.min() < 0.0 or np.abs(beliefs.sum(axis=1) - 1.0).max() > 1e-9:
        raise CheckError("a belief row is negative or does not sum to 1 within 1e-9")
    if not np.array_equal(estimates, beliefs.argmax(axis=1) + 1):
        raise CheckError("an estimate is not the belief's most probable node")
    if stdout:
        raise CheckError("infer wrote to stdout")


# --- workloads -----------------------------------------------------------------


def _write(path: Path, text: str) -> str:
    data = text.encode()
    path.write_bytes(data)
    return sha256(data)


def _table1(seed: int, work: Path) -> Prepared:
    def case(kind: str, trials: int) -> Case:
        out = work / f"table1-{kind}.csv"
        argv = ("replicate-table1", "--seed", str(seed), "--trials", str(trials), "--out", str(out))
        return Case(kind, argv, out, partial(check_table1, trials=trials))

    return Prepared({}, case("full", TABLE1_TRIALS), case("setup", 1), [])


def _infer_long(seed: int, work: Path) -> Prepared:
    drive = work / "drive.csv"
    argv = (
        "simulate", "--init", str(INIT_STATE), "--sigma", "1", "--steps", str(INFER_STEPS),
        "--trials", "1", "--seed", str(seed), "--method", "both", "--out", str(drive),
    )
    run = run_cli(argv, work)
    if run.returncode != 0:
        raise RuntimeError(f"input generation failed: {run.stderr.decode(errors='replace')}")
    table = check_simulate(run.stdout.decode(), drive.read_text(), 1, INFER_STEPS, DEFAULT_NUM_NODES)
    measured = [int(y) for y in table[:, 3]]
    inputs = {}

    def case(kind: str, sequence: list[int]) -> Case:
        path = work / f"measurements-{kind}.txt"
        inputs[path.name] = _write(path, "".join(f"{y}\n" for y in sequence))
        out = work / f"infer-{kind}.csv"
        argv = (
            "infer", "--measurements", str(path), "--init-state", str(INIT_STATE),
            "--method", "both", "--out", str(out),
        )
        return Case(kind, argv, out, partial(
            check_infer, measurements=sequence, num_nodes=DEFAULT_NUM_NODES
        ))

    return Prepared(inputs, case("full", measured), case("setup", measured[:1]), [run])


def _bigmap(seed: int, work: Path) -> Prepared:
    import roadhmm

    map_path = work / "map.json"
    graph = roadhmm.generate_default_map(num_nodes=BIGMAP_NODES, seed=seed)
    inputs = {map_path.name: _write(map_path, roadhmm.save_map(graph))}

    def case(kind: str, steps: int, trials: int) -> Case:
        out = work / f"bigmap-{kind}.csv"
        argv = (
            "simulate", "--map", str(map_path), "--init", str(INIT_STATE), "--sigma", "1",
            "--steps", str(steps), "--trials", str(trials), "--seed", str(seed), "--out", str(out),
        )
        return Case(kind, argv, out, partial(
            check_simulate, trials=trials, steps=steps, num_nodes=BIGMAP_NODES
        ))

    return Prepared(inputs, case("full", BIGMAP_STEPS, BIGMAP_TRIALS), case("setup", 1, 1), [])


#: workload name -> prepare(seed, work dir); BENCHMARK.json says why each is here.
WORKLOADS = {
    "table1": _table1,
    "infer-long": _infer_long,
    "bigmap": _bigmap,
}


class OutputCheck:
    """Checks each output once per distinct digest, against pins where they exist.

    Every invocation's stdout and output file are hashed. A digest seen for
    the first time is checked in full; later identical bytes reuse that
    verdict. Within one run every invocation of a case must give the same
    bytes, and for pinned seeds those bytes must match ``digests.json``.
    """

    def __init__(self, workload: str, seed: int):
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.pinned = pins.get(workload, {}).get(str(seed), {})
        self._first: dict[str, dict] = {}
        self._verdict: dict[tuple, str | None] = {}

    def __call__(self, case: Case, stdout: bytes, out: bytes) -> tuple[dict, str | None]:
        digest = {"stdout": sha256(stdout), "out": sha256(out)}
        key = (case.kind, digest["stdout"], digest["out"])
        if key not in self._verdict:
            try:
                case.check(stdout.decode(), out.decode())
                self._verdict[key] = None
            except (CheckError, ValueError) as exc:  # ValueError covers bad numbers and bad UTF-8
                self._verdict[key] = f"{type(exc).__name__}: {exc}"
        error = self._verdict[key]
        first = self._first.setdefault(case.kind, digest)
        if error is None and digest != first:
            error = "output differs from an earlier invocation with the same inputs"
        if error is None and case.kind in self.pinned and digest != self.pinned[case.kind]:
            error = "output differs from the digest pinned in digests.json"
        return digest, error
