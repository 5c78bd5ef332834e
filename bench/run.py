"""roadhmm benchmark: end-to-end CLI timings and a traced per-module breakdown.

Usage (from the repository root; the package need not be installed):

    python3 bench/run.py --workload table1 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30

Workloads (see workloads.py): ``table1`` runs ``replicate-table1 --trials
500`` (1 500 short drives, per-step Python overhead); ``infer-long`` runs
``infer`` on one T=10 000 drive sampled from the default model (one long
pass, 21 MB belief table); ``bigmap`` runs ``simulate`` on a generated
3 000-node map (dense M x M model build, sampling and passes). The load is a
closed loop: one client runs one command at a time, single-threaded
(``--threads`` is never above 1).

``--trace 0`` runs the real CLI in child processes with this interpreter and
``src`` on the path, alternating the setup-size command and the full command
until ``--seconds`` have passed, and reports medians of wall_s, setup_s,
cpu_s (child user+sys from wait4) and peak_rss_mb (child ru_maxrss).
``--trace 1`` calls ``roadhmm.cli.main`` in process, alternating untraced and
traced calls of the full command, and reports per-module medians from the
spans of tracer.py. Every invocation's output is checked (workloads.py);
one that exits non-zero or fails a check counts in ``failed``.

Each run writes every raw sample, the environment and the input digests to
``bench/out/results/``; a traced run also writes all its spans there. The
last line of stdout is the JSON result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import ctypes
import io
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from tracer import Tracer, nbytes
from workloads import ROOT, SRC, WORKLOADS, OutputCheck, run_cli, sha256

OUT = Path(__file__).resolve().parent / "out"

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def _peak_bytes(key):
    def count(counts, args, result):
        counts[key] = max(counts.get(key, 0), nbytes(result))

    return count


def _pass_work(backward: bool):
    """Steps of a forward or backward pass and the bytes they read, computed from array sizes.

    Each step reads the whole transition model and one measurement's row of
    the observation model (observation bytes / M). Caches are ignored, so
    the byte count is computed, not measured.
    """

    def count(counts, args, result):
        steps = len(args["measurements"])
        if backward:
            steps = max(steps - 1, 0)
        obs = args["obs"]
        per_step = nbytes(args["A"]) + nbytes(obs) // max(np.shape(obs)[0], 1)
        counts["inference.steps"] = counts.get("inference.steps", 0) + steps
        counts["inference.bytes_computed"] = counts.get("inference.bytes_computed", 0) + steps * per_step

    return count


def trace_targets():
    """The public functions timed per module; oracle and matrixio are deliberately left out."""
    from roadhmm import cli, experiment, inference, roadmap, sensor

    return [
        (cli, "main", None),
        (experiment, "simulate_trials", None),
        (experiment, "build_model", None),
        (experiment, "sample_trajectory", None),
        (roadmap, "generate_default_map", None),
        (roadmap, "load_map", None),
        (roadmap, "build_transition_matrix", _peak_bytes("roadmap.transition_nbytes")),
        (sensor, "build_confusion_base", None),
        (sensor, "apply_gaussian_noise", _peak_bytes("sensor.observation_nbytes")),
        (inference, "forward_pass", _pass_work(backward=False)),
        (inference, "backward_pass", _pass_work(backward=True)),
        (inference, "smooth", None),
        (inference, "map_estimate", None),
    ]


def _span(name, field):
    return lambda spans, counts, sample: spans.get(name, {}).get(field, 0)


def _count(key):
    return lambda spans, counts, sample: counts.get(key, 0)


#: per-layer metric -> (unit, reader(span summary, counts, traced sample));
#: trace.overhead_s is filled in from the medians. Which end-to-end metric each
#: should move, and where:
#:   inference.* times and map_estimate.calls -> wall_s, cpu_s on table1
#:   experiment.sample_trajectory.* -> wall_s on bigmap and table1
#:   experiment.simulate_trials.self_s -> wall_s on table1
#:   roadmap.*, sensor.*, experiment.build_model.s -> setup_s, peak_rss_mb on bigmap
#:   inference.steps, inference.bytes_computed -> wall_s, cpu_s on bigmap
#:   cli.self_s, cli.output_bytes -> wall_s, peak_rss_mb on infer-long
#: A function a workload never calls reads 0 there (load_map on table1 and
#: infer-long, generate_default_map on bigmap, sampling on infer-long).
PER_LAYER = {
    "inference.forward_pass.s": ("s", _span("inference.forward_pass", "s")),
    "inference.backward_pass.s": ("s", _span("inference.backward_pass", "s")),
    "inference.smooth.s": ("s", _span("inference.smooth", "s")),
    "inference.map_estimate.s": ("s", _span("inference.map_estimate", "s")),
    "inference.map_estimate.calls": ("count", _span("inference.map_estimate", "calls")),
    "inference.steps": ("count", _count("inference.steps")),
    "inference.bytes_computed": ("B", _count("inference.bytes_computed")),
    "experiment.sample_trajectory.s": ("s", _span("experiment.sample_trajectory", "s")),
    "experiment.sample_trajectory.calls": ("count", _span("experiment.sample_trajectory", "calls")),
    "experiment.simulate_trials.self_s": ("s", _span("experiment.simulate_trials", "self_s")),
    "experiment.build_model.s": ("s", _span("experiment.build_model", "s")),
    "roadmap.generate_default_map.s": ("s", _span("roadmap.generate_default_map", "s")),
    "roadmap.load_map.s": ("s", _span("roadmap.load_map", "s")),
    "roadmap.build_transition_matrix.s": ("s", _span("roadmap.build_transition_matrix", "s")),
    "roadmap.transition_nbytes": ("B", _count("roadmap.transition_nbytes")),
    "sensor.build_confusion_base.s": ("s", _span("sensor.build_confusion_base", "s")),
    "sensor.apply_gaussian_noise.s": ("s", _span("sensor.apply_gaussian_noise", "s")),
    "sensor.observation_nbytes": ("B", _count("sensor.observation_nbytes")),
    "cli.main.s": ("s", _span("cli.main", "s")),
    "cli.self_s": ("s", _span("cli.main", "self_s")),
    "cli.output_bytes": ("B", lambda spans, counts, sample: sample["output_bytes"]),
    "trace.overhead_s": ("s", None),
}


# --- environment -----------------------------------------------------------------


def _blas() -> dict:
    info = {}
    try:
        info.update(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["runtime_config"] = config().decode()
    return info


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    sources = sorted((SRC / "roadhmm").glob("*.py"))
    lines = {path.stem: len(path.read_text().splitlines()) for path in sources}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(),
        "source_sha256": sha256(b"".join(p.name.encode() + p.read_bytes() for p in sources)),
        "source_lines": {**lines, "total": sum(lines.values())},
    }


# --- invocations -------------------------------------------------------------------


def _finish(sample: dict, case, check, returncode, stdout: bytes, stderr: bytes) -> dict:
    out = case.out.read_bytes() if case.out.exists() else b""
    sample.update(returncode=returncode, output_bytes=len(stdout) + len(out))
    if returncode != 0:
        sample.update(digest=None, error=f"exit code {returncode}: {stderr.decode(errors='replace')[-500:]}")
    else:
        sample["digest"], sample["error"] = check(case, stdout, out)
    return sample


def invoke_child(case, work: Path, check, phase: str) -> dict:
    case.out.unlink(missing_ok=True)
    run = run_cli(case.argv, work)
    sample = {"phase": phase, "kind": case.kind, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
              "peak_rss_mb": run.peak_rss_mb}
    return _finish(sample, case, check, run.returncode, run.stdout, run.stderr)


def invoke_in_process(case, check, phase: str) -> dict:
    from roadhmm import cli

    case.out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            returncode = cli.main(list(case.argv))
    except SystemExit as exc:
        returncode = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash in the program is a failed invocation, not a benchmark error
        returncode = -1
        stderr.write(traceback.format_exc())
    sample = {"phase": phase, "kind": case.kind, "wall_s": time.perf_counter() - start}
    return _finish(sample, case, check, returncode, stdout.getvalue().encode(), stderr.getvalue().encode())


def _median(samples: list[dict], key: str) -> float:
    ok = [s for s in samples if s["error"] is None] or samples
    return statistics.median(s[key] for s in ok)


def measure(prepared, work: Path, check, seconds: float) -> tuple[list[dict], dict]:
    """Untraced: alternate setup-size and full CLI children until ``seconds`` have passed."""
    samples = [invoke_child(prepared.setup, work, check, "warmup")]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(invoke_child(prepared.setup, work, check, "timed"))
        samples.append(invoke_child(prepared.full, work, check, "timed"))
    setup = [s for s in samples if s["phase"] == "timed" and s["kind"] == "setup"]
    full = [s for s in samples if s["phase"] == "timed" and s["kind"] == "full"]
    metrics = {
        "wall_s": _median(full, "wall_s"),
        "setup_s": _median(setup, "wall_s"),
        "cpu_s": _median(full, "cpu_s"),
        "peak_rss_mb": _median(full, "peak_rss_mb"),
    }
    return samples, metrics


def trace(prepared, check, seconds: float, spans_path: Path) -> tuple[list[dict], dict, Tracer]:
    """Traced: alternate untraced and traced in-process calls of the full command."""
    tracer = Tracer(trace_targets())
    samples = [invoke_in_process(prepared.setup, check, "warmup")]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(invoke_in_process(prepared.full, check, "untraced"))
        with tracer.run() as run_id:
            sample = invoke_in_process(prepared.full, check, "traced")
        spans = tracer.summary(run_id)
        sample["spans"] = spans
        sample["counts"] = dict(tracer.counts[run_id])
        sample["layers"] = {
            name: read(spans, tracer.counts[run_id], sample)
            for name, (_, read) in PER_LAYER.items() if read is not None
        }
        samples.append(sample)
    tracer.save(spans_path)
    traced = [s for s in samples if s["phase"] == "traced"]
    untraced = [s for s in samples if s["phase"] == "untraced"]
    metrics = {name: statistics.median(s["layers"][name] for s in traced)
               for name, (_, read) in PER_LAYER.items() if read is not None}
    metrics["trace.overhead_s"] = _median(traced, "wall_s") - _median(untraced, "wall_s")
    return samples, metrics, tracer


# --- reporting ---------------------------------------------------------------------


def _tail(values: list[float]) -> str:
    """The highest of p99/p90 with at least ten samples beyond it, if any."""
    for pct in (99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f", p{pct} {np.percentile(values, pct):.6g}"
    return ""


def report(name: str, traced: bool, samples: list[dict], metrics: dict, tracer, path: Path) -> None:
    failed = sum(s["error"] is not None for s in samples)
    print(f"== {name} ({'traced, in process' if traced else 'untraced, CLI child processes'})")
    if traced:
        walls = [s["wall_s"] for s in samples if s["phase"] == "traced"]
        for metric, (unit, _) in PER_LAYER.items():
            print(f"  {metric:38s} {metrics[metric]:>16.6g} {unit:5s} (median of {len(walls)})")
        last = next(s for s in reversed(samples) if s["phase"] == "traced")
        parts = " + ".join(f"{n} {v['under_root_s']:.4f}"
                           for n, v in last["spans"].items() if v["under_root_s"] > 0)
        root = last["spans"]["cli.main"]
        print(f"  last traced call, wall {last['wall_s']:.4f} s: cli.main {root['s']:.4f} s"
              f" = {parts} + cli.self_s {root['self_s']:.4f}")
        if tracer.absent or tracer.uncounted:
            print(f"  absent: {tracer.absent}  uncounted: {sorted(tracer.uncounted)}")
    else:
        for metric, unit in END_TO_END.items():
            kind, key = ("setup", "wall_s") if metric == "setup_s" else ("full", metric)
            values = [s[key] for s in samples if s["phase"] == "timed" and s["kind"] == kind]
            print(f"  {metric:12s} {metrics[metric]:>12.6g} {unit:4s} (median of {len(values)}{_tail(values)})")
    print(f"  failed_frac  {failed / len(samples):>12.6g} ratio ({failed} of {len(samples)} invocations)")
    for s in samples:
        if s["error"] is not None:
            print(f"  FAILED {s['phase']} {s['kind']}: {s['error']}")
    print(f"  raw samples: {path.relative_to(ROOT)}")


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}"
    work = OUT / f"work-{stem}"
    work.mkdir(parents=True)
    try:
        prepared = WORKLOADS[name](seed, work)
        check = OutputCheck(name, seed)
        samples = [{"phase": "input", "kind": "input", "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                    "peak_rss_mb": r.peak_rss_mb, "returncode": r.returncode, "error": None}
                   for r in prepared.input_runs]
        tracer = None
        if traced:
            more, metrics, tracer = trace(prepared, check, seconds, results / f"{stem}.spans.npz")
        else:
            more, metrics = measure(prepared, work, check, seconds)
        samples += more
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m: u for m, (u, _) in PER_LAYER.items()} if traced else END_TO_END
    failed = sum(s["error"] is not None for s in samples)
    line = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {m: {"value": float(metrics[m]), "unit": u} for m, u in units.items()},
    }
    path = results / f"{stem}.json"
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": traced,
        "argv": {"full": list(prepared.full.argv), "setup": list(prepared.setup.argv)},
        "inputs_sha256": prepared.inputs, "environment": environment(),
        "absent": tracer.absent if tracer else [], "uncounted": sorted(tracer.uncounted) if tracer else [],
        "result": line, "samples": samples,
    }
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(name, traced, samples, metrics, tracer, path)
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics; 1: per-layer metrics (ignored with 'all')")
    args = parser.parse_args(argv)
    if not (SRC / "roadhmm" / "__init__.py").is_file():
        print(f"error: no roadhmm package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    sys.path.insert(0, str(SRC))
    if args.workload != "all":
        line = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(line))
        return 0
    lines = {f"{name} trace={traced}": run_workload(name, args.seed, args.seconds, bool(traced))
             for name in WORKLOADS for traced in (0, 1)}
    print(json.dumps(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
