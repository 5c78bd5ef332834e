"""The benchmark's tracer finds every function it times and binds every counter.

``bench/run.py --trace 1`` wraps the functions of its ``trace_targets`` and
counts work from their bound arguments, such as the passes' ``A``, ``obs`` and
``measurements``. A target that is renamed or removed is skipped and listed in
``absent``, and a counter whose parameter is gone in ``uncounted``; either way
its per-layer metric reads 0 without an error. This test only reads
``bench/``: it runs ``simulate`` and ``infer`` in process under the tracer.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from roadhmm import cli, roadmap

BENCH = Path(__file__).resolve().parent.parent / "bench"

#: the two sensor builders that the observation model replaced; the benchmark still lists them
ABSENT = ["sensor.build_confusion_base", "sensor.apply_gaussian_noise"]


@pytest.fixture
def bench_run(monkeypatch):
    """``bench/run.py`` as a module; it imports ``tracer`` and ``workloads`` by their bare names."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in ("tracer", "workloads"):
        sys.modules.pop(name, None)


def test_traced_commands_find_every_target_and_bind_every_counter(bench_run, tmp_path):
    map_path = tmp_path / "map.json"
    map_path.write_text(roadmap.save_map(roadmap.generate_default_map()))
    simulated, measured = tmp_path / "sim.csv", tmp_path / "measured.txt"
    tracer = bench_run.Tracer(bench_run.trace_targets())
    with tracer.run() as run_id:  # as bench/run.py calls it, through the module
        assert cli.main(["simulate", "--init", "5", "--trials", "2", "--steps", "20",
                         "--out", str(simulated)]) == 0
        rows = simulated.read_text().splitlines()[1:]
        measured.write_text("".join(row.split(",")[3] + "\n" for row in rows if row.startswith("0,")))
        assert len(measured.read_text().split()) == 20  # trial 0's measurements
        assert cli.main(["infer", "--map", str(map_path), "--init-state", "5",
                         "--measurements", str(measured), "--out", str(tmp_path / "inferred.csv")]) == 0
    assert tracer.absent == ABSENT
    assert tracer.uncounted == set()
    calls = {name: span["calls"] for name, span in tracer.summary(run_id).items()}
    assert all(calls.values()), calls  # the two commands call every target that exists
    counts = tracer.counts[run_id]
    assert all(counts[key] > 0 for key in
               ("inference.steps", "inference.bytes_computed", "roadmap.transition_nbytes")), counts
