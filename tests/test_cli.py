import csv
import errno
import io
import json
import os
import pkgutil
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
import roadhmm
from conftest import observation_matrix, run_trials, transition_matrix
from roadhmm import cli, experiment, inference, matrixio, roadmap
from roadhmm.cli import main


SMALL_MAP = {
    "num_nodes": 4,
    "edges": [
        {"from": 1, "to": 2, "weight": 2.0},
        {"from": 2, "to": 3, "weight": 1.0},
        {"from": 3, "to": 4, "weight": 1.0},
        {"from": 4, "to": 1, "weight": 1.0},
        {"from": 2, "to": 1, "weight": 1.0},
        {"from": 3, "to": 2, "weight": 1.0},
        {"from": 4, "to": 3, "weight": 1.0},
        {"from": 1, "to": 4, "weight": 1.0},
        {"from": 1, "to": 1, "weight": 0.5},
        {"from": 2, "to": 2, "weight": 0.5},
        {"from": 3, "to": 3, "weight": 0.5},
        {"from": 4, "to": 4, "weight": 0.5},
    ],
}


@pytest.fixture
def small_map_path(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps(SMALL_MAP))
    return str(path)


@pytest.fixture
def default_map_path(tmp_path, default_graph):
    path = tmp_path / "default.json"
    path.write_text(roadmap.save_map(default_graph))
    return str(path)


# ---- validate-map ----


def test_validate_map_ok(default_map_path, capsys):
    assert main(["validate-map", default_map_path]) == 0
    out = capsys.readouterr().out
    assert "105 nodes, columns stochastic" in out
    assert "zero pattern" in out


def test_validate_map_prints_its_full_report(default_map_path, capsys):
    assert main(["validate-map", default_map_path]) == 0
    assert capsys.readouterr().out == (
        "105 nodes, 438 edges\n"
        "max column-sum deviation: 2.220e-16\n"
        "zero pattern: 438 positive entries match 438 positive-weight edges\n"
        "105 nodes, columns stochastic\n"
    )


#: A -0.0 weight on 1 -> 2 and a 0 weight on 2 -> 2: two edges of probability 0
SIGNED_ZERO_MAP = {
    "num_nodes": 2,
    "edges": [
        {"from": 1, "to": 1, "weight": 1.0},
        {"from": 1, "to": 2, "weight": -0.0},
        {"from": 2, "to": 1, "weight": 1.0},
        {"from": 2, "to": 2, "weight": 0},
    ],
}


def test_zero_weight_edges_keep_their_signed_zeros_and_stay_out_of_the_tables(tmp_path, capsys):
    path = tmp_path / "signed.json"
    path.write_text(json.dumps(SIGNED_ZERO_MAP))
    assert main(["validate-map", str(path)]) == 0
    assert capsys.readouterr().out == (
        "2 nodes, 4 edges\n"
        "max column-sum deviation: 0.000e+00\n"
        "zero pattern: 2 positive entries match 2 positive-weight edges\n"
        "2 nodes, columns stochastic\n"
    )
    prefix = tmp_path / "signed"
    assert main(["export-matrices", "--map", str(path), "--out-prefix", str(prefix)]) == 0
    assert (tmp_path / "signed_transition.csv").read_bytes() == b"1.0,1.0\n-0.0,0.0\n"
    # each column's one positive entry, node 1; the sampler never sees the zeros
    graph = roadmap.read_map(str(path))
    (ids, cdf), _ = experiment.sampling_tables(*experiment.build_model(graph, 1.0))
    assert ids.tolist() == [[1], [1]] and cdf.tolist() == [[1.0], [1.0]]


def test_validate_map_reports_column_that_is_not_stochastic(small_map_path, capsys, monkeypatch):
    entries = roadmap.transition_entries

    def off_by_a_tenth(graph):
        rows, columns, values = entries(graph)
        values[columns == 2] *= 0.9
        return rows, columns, values

    monkeypatch.setattr(roadmap, "transition_entries", off_by_a_tenth)
    assert main(["validate-map", small_map_path]) == 1
    out = capsys.readouterr().out
    assert "max column-sum deviation: 1.000e-01\n" in out
    assert out.endswith("4 nodes, columns NOT stochastic\n")


def test_validate_map_negative_weight(tmp_path, capsys):
    bad = dict(SMALL_MAP, edges=SMALL_MAP["edges"] + [{"from": 1, "to": 3, "weight": -1.0}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate-map", str(path)]) == 1
    assert "(1, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_validate_map_non_finite_weight(tmp_path, capsys, weight):
    bad = dict(SMALL_MAP, edges=SMALL_MAP["edges"] + [{"from": 1, "to": 3, "weight": weight}])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate-map", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"non-finite weight {weight} on edge (1, 3)" in err
    assert "negative" not in err


def test_validate_map_missing_file(tmp_path, capsys):
    assert main(["validate-map", str(tmp_path / "absent.json")]) == 2
    assert "I/O error" in capsys.readouterr().err


def test_validate_map_bad_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert main(["validate-map", str(path)]) == 1
    assert "invalid map JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate-map", "simulate"])
def test_deeply_nested_map_json_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    out = tmp_path / "out.csv"
    args = {
        "validate-map": ["validate-map", str(path)],
        "simulate": ["simulate", "--map", str(path), "--init", "1", "--out", str(out)],
    }[command]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid map JSON: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_validate_map_huge_num_nodes_is_rejected_without_allocating(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"num_nodes": 10**12, "edges": [{"from": 1, "to": 1, "weight": 1}]}))
    assert main(["validate-map", str(path)]) == 1
    assert "error: node 2 has no outgoing edge with positive weight" in capsys.readouterr().err


def degenerate_map(weight_1_2):
    return {
        "num_nodes": 2,
        "edges": [
            {"from": 1, "to": 1, "weight": 1e308},
            {"from": 1, "to": 2, "weight": weight_1_2},
            {"from": 2, "to": 1, "weight": 1.0},
        ],
    }


@pytest.mark.parametrize(
    "weight_1_2,message",
    [
        (1e308, "weight 1e+308 on edge (1, 1) rounds to probability 0"),
        (5e-324, "weight 5e-324 on edge (1, 2) rounds to probability 0"),
        (10**400, "non-finite weight inf on edge (1, 2)"),
    ],
    ids=["overflow", "lost-weight", "huge-integer"],
)
@pytest.mark.parametrize("command", ["validate-map", "simulate", "infer", "export-matrices"])
def test_map_whose_weight_would_vanish_is_rejected_everywhere(
    tmp_path, capsys, command, weight_1_2, message
):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(degenerate_map(weight_1_2)))
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n")
    out = tmp_path / "out"
    args = {
        "validate-map": ["validate-map", str(path)],
        "simulate": ["simulate", "--map", str(path), "--init", "1", "--out", str(out)],
        "infer": [
            "infer", "--map", str(path), "--measurements", str(measurements),
            "--init-state", "1", "--out", str(out),
        ],
        "export-matrices": ["export-matrices", "--map", str(path), "--out-prefix", str(out)],
    }[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert "Traceback" not in captured.err and "RuntimeWarning" not in captured.err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "meas.txt"]


# ---- simulate ----


def simulate_args(out, **overrides):
    flags = {
        "--map": "default",
        "--init": "5",
        "--sigma": "1",
        "--steps": "50",
        "--trials": "1",
        "--seed": "7",
        "--method": "both",
        "--out": out,
    }
    flags.update(overrides)
    args = ["simulate"]
    for key, value in flags.items():
        args.extend([key, value])
    return args


def test_simulate_writes_expected_csv(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(simulate_args(str(out))) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == cli.RESULTS_HEADER
    assert len(lines) == 51
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "1"
    assert all(field != "" for field in first)
    summary = capsys.readouterr().out
    assert "filter mean accuracy" in summary
    assert "smoother mean accuracy" in summary


def test_simulate_byte_identical_runs(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(simulate_args(str(a), **{"--trials": "3"})) == 0
    assert main(simulate_args(str(b), **{"--trials": "3"})) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_filter_only_leaves_smoother_column_empty(tmp_path):
    out = tmp_path / "filter.csv"
    assert main(simulate_args(str(out), **{"--method": "filter", "--steps": "10"})) == 0
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert fields[4] != ""
        assert fields[5] == ""


def test_simulate_smoother_only_leaves_filter_column_empty(tmp_path):
    out = tmp_path / "smoother.csv"
    assert main(simulate_args(str(out), **{"--method": "smoother", "--steps": "10"})) == 0
    for line in out.read_text().splitlines()[1:]:
        fields = line.split(",")
        assert fields[4] == ""
        assert fields[5] != ""


def test_simulate_filter_only_equals_both_with_smoother_blanked(tmp_path, capsys):
    both, filter_only = tmp_path / "both.csv", tmp_path / "filter.csv"
    assert main(simulate_args(str(both), **{"--trials": "30"})) == 0
    assert main(simulate_args(str(filter_only), **{"--trials": "30", "--method": "filter"})) == 0
    blanked = [line.rsplit(",", 1)[0] + "," for line in both.read_text().splitlines()[1:]]
    assert filter_only.read_text().splitlines() == [cli.RESULTS_HEADER] + blanked
    summaries = capsys.readouterr().out.splitlines()
    assert summaries[2] == summaries[0]
    assert len(summaries) == 3


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_simulate_rejects_non_finite_sigma(tmp_path, capsys, sigma):
    out = tmp_path / "x.csv"
    assert main(simulate_args(str(out), **{"--sigma": sigma})) == 1
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_bad_init(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(simulate_args(str(out), **{"--init": "999"})) == 1
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "infer"])
def test_bad_initial_state_message_is_pinned(tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    if command == "simulate":
        args = simulate_args(str(out), **{"--init": "999"})
    else:
        measurements = tmp_path / "meas.txt"
        measurements.write_text("1\n2\n")
        args = ["infer", "--measurements", str(measurements), "--init-state", "999",
                "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == "error: initial state 999 out of range 1..105\n"
    assert not out.exists()


def sigma_args(command, sigma, tmp_path):
    """Arguments that run ``command`` with ``sigma``, and the files it would write."""
    if command == "export-matrices":
        prefix = tmp_path / "m"
        args = ["export-matrices", "--sigma", sigma, "--out-prefix", str(prefix)]
        return args, [tmp_path / f"m_{name}.csv" for name in ("transition", "observation")]
    out = tmp_path / "x.csv"
    if command == "simulate":
        return simulate_args(str(out), **{"--sigma": sigma, "--steps": "5"}), [out]
    measurements = tmp_path / "meas.txt"
    measurements.write_text("5\n6\n")
    args = ["infer", "--sigma", sigma, "--measurements", str(measurements), "--init-state", "5",
            "--out", str(out)]
    return args, [out]


@pytest.mark.parametrize("command", ["simulate", "infer", "export-matrices"])
@pytest.mark.parametrize("sigma", ["1e300", "1e-200"])
def test_sigma_whose_kernel_is_not_finite_exits_1(tmp_path, capsys, command, sigma):
    args, outputs = sigma_args(command, sigma, tmp_path)
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma must be positive and finite")
    assert f"got {float(sigma)}" in err
    assert "Traceback" not in err
    assert not any(path.exists() for path in outputs)


@pytest.mark.parametrize("command", ["simulate", "infer", "export-matrices"])
def test_sigma_is_reported_before_a_vanishing_map_weight(tmp_path, capsys, command):
    # The observation model is built before the transition matrix, so of two
    # invalid inputs the sigma is the one named.
    path = tmp_path / "map.json"
    path.write_text(json.dumps(degenerate_map(5e-324)))
    args, outputs = sigma_args(command, "1e300", tmp_path)
    assert main([*args, "--map", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: sigma must be positive and finite")
    assert "got 1e+300" in err and "rounds to probability 0" not in err
    assert "Traceback" not in err
    assert not any(output.exists() for output in outputs)


@pytest.mark.parametrize("command", ["simulate", "infer", "export-matrices"])
@pytest.mark.parametrize("sigma", ["1e-6", "1e4"])
def test_extreme_but_finite_sigma_still_runs(tmp_path, capsys, command, sigma):
    args, outputs = sigma_args(command, sigma, tmp_path)
    assert main(args) == 0
    assert capsys.readouterr().err == ""
    assert all(path.exists() for path in outputs)


def test_simulate_rejects_bad_method(tmp_path):
    with pytest.raises(SystemExit) as excinfo:
        main(simulate_args(str(tmp_path / "x.csv"), **{"--method": "viterbi"}))
    assert excinfo.value.code == 1


@pytest.mark.parametrize("threads", ["0", "-7"])
@pytest.mark.parametrize("command", ["simulate", "replicate-table1"])
def test_threads_below_one_is_rejected(tmp_path, capsys, command, threads):
    out = tmp_path / "out.csv"
    args = {
        "simulate": simulate_args(str(out)),
        "replicate-table1": ["replicate-table1", "--trials", "1", "--out", str(out)],
    }[command]
    with pytest.raises(SystemExit) as excinfo:
        main(args + ["--threads", threads])
    assert excinfo.value.code == 1
    assert "error: argument --threads: invalid thread count" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_stdout_when_no_out_flag(capsys):
    args = [a for a in simulate_args("unused", **{"--steps": "5"}) if a != "--out" and a != "unused"]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(cli.RESULTS_HEADER)
    assert "mean accuracy" in captured.err


# ---- replicate-table1 ----


def test_replicate_table1_output(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert main(["replicate-table1", "--seed", "3", "--trials", "2", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    for label in ("init=5 sigma=1", "init=5 sigma=2", "init=90 sigma=1"):
        assert label in printed
    assert "0.76/0.88" in printed
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("initial_state,sigma")


def test_replicate_table1_csv_on_stdout_is_only_the_csv(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert main(["replicate-table1", "--seed", "3", "--trials", "2", "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert main(["replicate-table1", "--seed", "3", "--trials", "2", "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert captured.out == out.read_text()
    assert len(captured.out.splitlines()) == 4
    assert captured.err == table


# ``replicate-table1 --seed 0 --trials 20``: the table on stdout and the --out CSV
TABLE1_SEED0_TRIALS20_TABLE = """\
scenario                filter  smoother   reference (filter/smoother)
init=5 sigma=1          0.8980    0.9570   0.76/0.88
init=5 sigma=2          0.8530    0.9370   0.68/0.82
init=90 sigma=1         0.8790    0.9480   0.76/0.82
"""
TABLE1_SEED0_TRIALS20_CSV = """\
initial_state,sigma,steps,trials,filter_mean,filter_std,smoother_mean,smoother_std,reference_filter,reference_smoother
5,1,50,20,0.898,0.0569025020262036,0.9570000000000001,0.032622239750142674,0.76,0.88
5,2,50,20,0.8530000000000001,0.07175249858110573,0.937,0.049107829796972514,0.68,0.82
90,1,50,20,0.8790000000000001,0.04076892521465209,0.9480000000000001,0.02858044970365507,0.76,0.82
"""


def test_replicate_table1_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "table1.csv"
    assert main(["replicate-table1", "--seed", "0", "--trials", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().out == TABLE1_SEED0_TRIALS20_TABLE
    assert out.read_bytes() == TABLE1_SEED0_TRIALS20_CSV.encode()


def test_replicate_table1_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["replicate-table1", "--seed", "3", "--trials", "2", "--out", str(a)])
    main(["replicate-table1", "--seed", "3", "--trials", "2", "--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def count_runs(monkeypatch):
    """Count the calls of ``experiment.run_experiment`` into the returned list."""
    runs = []
    run_experiment = experiment.run_experiment

    def counting(config):
        runs.append(config)
        return run_experiment(config)

    monkeypatch.setattr(experiment, "run_experiment", counting)
    return runs


def test_replicate_table1_opens_out_before_running_any_scenario(tmp_path, capsys, monkeypatch):
    runs = count_runs(monkeypatch)
    out = tmp_path / "missing" / "table1.csv"
    assert main(["replicate-table1", "--trials", "1", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"I/O error: [Errno 2] No such file or directory: '{out}'\n"
    assert runs == [] and not out.parent.exists()


def test_replicate_table1_checks_trials_before_opening_out(tmp_path, capsys, monkeypatch):
    runs = count_runs(monkeypatch)
    out = tmp_path / "table1.csv"
    assert main(["replicate-table1", "--trials", "0", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: trials must be >= 1\n")
    assert runs == [] and not out.exists()


def table1_csv_rows(seed, trials, tmp_path):
    """The rows of ``replicate-table1 --seed SEED --trials TRIALS --out FILE`` as dicts."""
    out = tmp_path / "table1.csv"
    args = ["replicate-table1", "--seed", str(seed), "--trials", str(trials), "--out", str(out)]
    assert main(args) == 0
    return list(csv.DictReader(io.StringIO(out.read_text())))


def table1_accuracies(seed, trials):
    """``run_experiment``'s (filter, smoother) accuracies for each Table 1 scenario."""
    for init, sigma, *_ in experiment.TABLE1_SCENARIOS:
        config = experiment.ExperimentConfig(
            init, sigma, steps=experiment.TABLE1_STEPS, trials=trials, master_seed=seed
        )
        yield experiment.run_experiment(config)


def test_replicate_table1_structure(tmp_path, capsys):
    rows = table1_csv_rows(1, 2, tmp_path)
    table = capsys.readouterr().out.splitlines()
    assert [line[:20].rstrip() for line in table[1:]] == [
        "init=5 sigma=1",
        "init=5 sigma=2",
        "init=90 sigma=1",
    ]
    assert [(r["reference_filter"], r["reference_smoother"]) for r in rows] == [
        ("0.76", "0.88"),
        ("0.68", "0.82"),
        ("0.76", "0.82"),
    ]
    assert [(r["initial_state"], r["sigma"], r["steps"], r["trials"]) for r in rows] == [
        ("5", "1", "50", "2"),
        ("5", "2", "50", "2"),
        ("90", "1", "50", "2"),
    ]


def test_replicate_table1_statistics_are_those_of_the_per_trial_accuracies(tmp_path, capsys):
    rows = table1_csv_rows(3, 6, tmp_path)
    for row, accuracies in zip(rows, table1_accuracies(3, 6), strict=True):
        for method, values in zip(("filter", "smoother"), accuracies, strict=True):
            assert values.shape == (6,)
            # repr round-trips, so the printed text is the exact float
            assert float(row[f"{method}_mean"]) == np.mean(values)
            assert float(row[f"{method}_std"]) == np.std(values, ddof=1)


def test_replicate_table1_single_trial_std_is_zero(tmp_path, capsys):
    rows = table1_csv_rows(0, 1, tmp_path)
    for row, accuracies in zip(rows, table1_accuracies(0, 1), strict=True):
        for method, values in zip(("filter", "smoother"), accuracies, strict=True):
            assert float(row[f"{method}_mean"]) == np.mean(values)
            assert row[f"{method}_std"] == "0.0"


@pytest.mark.parametrize("command", ["simulate", "replicate-table1", "infer"])
def test_empty_out_path_is_an_io_error(tmp_path, capsys, command):
    measurements = tmp_path / "measured.txt"
    measurements.write_text("5\n6\n")
    args = {
        "simulate": ["simulate", "--init", "5", "--steps", "3"],
        "replicate-table1": ["replicate-table1", "--trials", "1"],
        "infer": ["infer", "--measurements", str(measurements), "--init-state", "5"],
    }[command]
    assert main([*args, "--out", ""]) == 2
    assert "I/O error: [Errno 2] No such file or directory: ''" in capsys.readouterr().err


# ---- export-matrices ----


def test_export_csv_round_trips_exactly(tmp_path, small_map_path):
    prefix = str(tmp_path / "small")
    assert main(["export-matrices", "--map", small_map_path, "--out-prefix", prefix]) == 0
    graph = roadmap.load_map(Path(small_map_path).read_text())
    transition = transition_matrix(graph)
    reimported = np.loadtxt(f"{prefix}_transition.csv", delimiter=",", ndmin=2)
    assert np.array_equal(reimported, transition)
    observation = np.loadtxt(f"{prefix}_observation.csv", delimiter=",", ndmin=2)
    assert observation.shape == (4, 4)
    assert_allclose(observation.sum(axis=0), 1.0, atol=1e-12)


def test_export_csv_text_is_repr_of_each_entry(tmp_path):
    prefix = tmp_path / "default"
    assert main(["export-matrices", "--sigma", "2", "--out-prefix", str(prefix)]) == 0
    transition, observation = experiment.build_model(experiment.read_graph("default"), 2.0)
    for name, matrix in (("transition", transition.matrix),
                         ("observation", observation_matrix(observation))):
        expected = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in matrix)
        assert (tmp_path / f"default_{name}.csv").read_bytes() == expected.encode()


def test_export_pgm_format(tmp_path):
    prefix = str(tmp_path / "default")
    assert main(["export-matrices", "--format", "pgm", "--out-prefix", prefix]) == 0
    for name in ("transition", "observation"):
        lines = Path(f"{prefix}_{name}.pgm").read_text().splitlines()
        assert lines[0] == "P2"
        assert lines[1] == "105 105"
        assert lines[2] == "255"
        assert len(lines) == 3 + 105
        pixels = np.array([[int(v) for v in line.split()] for line in lines[3:]])
        assert pixels.shape == (105, 105)
        assert pixels.min() >= 0
        assert pixels.max() == 255


def reference_pgm(matrix):
    """The whole-matrix pixel build that write_matrix_pgm replaced, kept as its reference."""
    rows, cols = matrix.shape
    pixels = np.rint(255.0 * matrix / matrix.max()).astype(int)
    lines = (" ".join(str(v) for v in row) + "\n" for row in pixels)
    return f"P2\n{cols} {rows}\n255\n" + "".join(lines)


class Discard:
    """A text sink that drops what is written to it."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize(
    "generated, sigma",
    [({}, 1.0), ({}, 2.0), ({"num_nodes": 700, "seed": 5}, 1.0)],
    ids=["default-sigma1", "default-sigma2", "700-sigma1"],
)
def test_pgm_text_equals_whole_matrix_reference(generated, sigma):
    transition, observation = experiment.build_model(roadmap.generate_default_map(**generated), sigma)
    for matrix in (transition.matrix, observation_matrix(observation)):
        out = io.StringIO()
        matrixio.write_matrix_pgm(matrix, out)
        assert out.getvalue() == reference_pgm(matrix)


def test_pgm_scales_by_the_largest_value_of_any_block_of_rows():
    matrix = np.linspace(0.0, 1.0, 200 * 200).reshape(200, 200)  # largest in the last block
    out = io.StringIO()
    matrixio.write_matrix_pgm(matrix, out)
    assert out.getvalue() == reference_pgm(matrix)


def test_pgm_writes_row_by_row_without_a_matrix_temporary():
    transition = transition_matrix(roadmap.generate_default_map(num_nodes=700, seed=5))
    tracemalloc.start()
    try:
        matrixio.write_matrix_pgm(transition, Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * transition.nbytes


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


#: row values whose repr takes dtoa's slow paths: the smallest subnormal, other
#: subnormals, signed zeros and full-precision values
AWKWARD_VALUES = [5e-324, 2.2250738585072e-310, 1e-320, -0.0, 0.0, 1 / 3, 0.1, 1e300, 1.0]


def writer_tables(num_rows):
    """Two prefixed tables holding ``num_rows`` rows in all, and the serial loop's text."""
    rng = np.random.default_rng(num_rows)
    table = rng.choice(AWKWARD_VALUES, size=(num_rows, 6))
    table[::2, :3] = 0.0  # unequal rows, so the cost-balanced split is not at the middle
    first, second = table[: num_rows // 2], table[num_rows // 2:]
    tables = [(iter([f"a,{k}," for k in range(len(first))]), first),
              (iter([f"b,{k}," for k in range(len(second))]), second)]
    reference = "".join(
        f"{name},{k}," + ",".join(map(repr, row.tolist())) + "\n"
        for name, part in (("a", first), ("b", second)) for k, row in enumerate(part)
    )
    return tables, reference


def has_child() -> bool:
    """Whether this process has a child, running or not yet reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


#: The status of a helper process that called ``os.fork`` itself
NESTED_FORK = 70


@pytest.fixture
def forks(monkeypatch):
    """The ``os.fork`` calls made while the test runs, one entry each: whether this
    process had a child then. A helper that forks exits with ``NESTED_FORK`` instead."""
    calls, fork, parent = [], os.fork, os.getpid()

    def counted():
        if os.getpid() != parent:
            os._exit(NESTED_FORK)
        calls.append(has_child())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return calls


@pytest.mark.parametrize("num_rows", [0, 1, 2, 3, 7])
def test_write_rows_equals_the_serial_loop_to_a_file_and_to_stdout(tmp_path, capsys, forks,
                                                                   num_rows):
    tables, reference = writer_tables(num_rows)
    path = tmp_path / "rows.csv"
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        out.write("header\n")  # pending in the buffer when the helper starts
        matrixio.write_rows(out, tables)
        out.write("end\n")
    assert path.read_bytes() == f"header\n{reference}end\n".encode()
    tables, _ = writer_tables(num_rows)
    print("header")
    matrixio.write_rows(sys.stdout, tables)
    assert capsys.readouterr() == (f"header\n{reference}", "")
    # one helper per call from two rows on; it left no child behind
    assert len(forks) == (2 if num_rows >= 2 else 0)
    assert_no_child_left()


@pytest.mark.parametrize("heavy, parent_rows", [("first", 2), ("none", 5), ("last", 7)])
def test_write_rows_splits_at_half_the_estimated_cost(monkeypatch, heavy, parent_rows):
    # a nonzero costs forty zeros, so a row of four nonzeros costs 160 and one
    # of four zeros 4: the parent formats the rows whose running cost stays
    # within half of the total
    assert matrixio._NONZERO_COST == 40
    table = np.zeros((10, 4))
    table[{"first": slice(0, 5), "none": slice(0, 0), "last": slice(5, 10)}[heavy]] = 0.5
    formatted, format_rows = [], matrixio.format_rows
    monkeypatch.setattr(matrixio, "format_rows",
                        lambda prefixes, rows: formatted.extend(prefixes) or format_rows(prefixes, rows))
    out = io.StringIO()
    matrixio.write_rows(out, [(repeat(""), table)])
    assert out.getvalue() == "".join(",".join(map(repr, row.tolist())) + "\n" for row in table)
    assert len(formatted) == parent_rows  # the helper's calls extend its own copy of the list


def test_export_observation_diagonal_band(tmp_path):
    prefix = str(tmp_path / "obs")
    assert main(["export-matrices", "--sigma", "1", "--out-prefix", prefix]) == 0
    observation = np.loadtxt(f"{prefix}_observation.csv", delimiter=",", ndmin=2)
    assert 0.45 <= observation.diagonal().mean() <= 0.65


# ---- infer ----


def test_infer_writes_trace(tmp_path, small_map_path):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n\n3\n")
    out = tmp_path / "trace.csv"
    code = main(
        [
            "infer",
            "--map",
            small_map_path,
            "--measurements",
            str(measurements),
            "--init-state",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,k,measured,estimate," + ",".join(f"p_{i}" for i in range(1, 5))
    assert len(lines) == 1 + 2 * 3  # both methods, T=3
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] in ("filter", "smoother")
        assert 1 <= int(fields[3]) <= 4
        beliefs = [float(v) for v in fields[4:]]
        assert sum(beliefs) == pytest.approx(1.0, abs=1e-12)


def test_infer_trace_matches_oracle(tmp_path, small_map_path):
    measurements = tmp_path / "meas.txt"
    sequence = (3, 3, 3, 3, 3)
    measurements.write_text("\n".join(str(v) for v in sequence) + "\n")
    out = tmp_path / "trace.csv"
    main(
        [
            "infer",
            "--map",
            small_map_path,
            "--measurements",
            str(measurements),
            "--init-state",
            "1",
            "--out",
            str(out),
        ]
    )
    transition, observation = experiment.build_model(experiment.read_graph(small_map_path), 1.0)
    filtered, smoothed, _ = oracle.enumerate_posteriors(
        transition.matrix, observation_matrix(observation), inference.point_mass_belief(4, 1),
        sequence
    )
    lines = out.read_text().splitlines()[1:]
    rows = [[float(v) for v in line.split(",")[4:]] for line in lines]
    assert_allclose(np.array(rows[:5]), filtered, atol=1e-9)
    assert_allclose(np.array(rows[5:]), smoothed, atol=1e-9)
    # steady measurements of node 3 pull the estimate onto node 3
    assert lines[4].split(",")[3] == "3"


def test_infer_single_node_map(tmp_path):
    map_path = tmp_path / "one.json"
    map_path.write_text('{"num_nodes": 1, "edges": [{"from": 1, "to": 1, "weight": 1.0}]}')
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n1\n")
    out = tmp_path / "trace.csv"
    code = main(
        [
            "infer",
            "--map",
            str(map_path),
            "--measurements",
            str(measurements),
            "--init-state",
            "1",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    for line in out.read_text().splitlines()[1:]:
        assert line.split(",")[4] == "1.0"


def test_infer_out_of_range_measurement_names_line(tmp_path, small_map_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n9\n")
    code = main(
        [
            "infer",
            "--map",
            small_map_path,
            "--measurements",
            str(measurements),
            "--init-state",
            "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "line 3" in err
    assert "out of range" in err


def test_infer_invalid_token_names_line(tmp_path, small_map_path, capsys):
    # int() alone would read "1_0" as 10 and the Arabic-Indic digit three as 3
    for token in ("foo", "1_0", "\u0663"):
        measurements = tmp_path / "meas.txt"
        measurements.write_text(f"1\n{token}\n", encoding="utf-8")
        code = main(
            [
                "infer",
                "--map",
                small_map_path,
                "--measurements",
                str(measurements),
                "--init-state",
                "1",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "line 2" in err
        assert f"invalid measurement {token!r}" in err


@pytest.mark.parametrize(
    "data,line,token",
    [(b"5\x0c6\n7\n", 1, "5\x0c6"), (b"5\x0c\nx\n", 2, "x"), (b"5 6\n", 1, "5 6")],
    ids=["form-feed-inside", "form-feed-at-end", "space-inside"],
)
def test_infer_counts_lines_as_an_editor_does(tmp_path, capsys, data, line, token):
    # only "\n" ends a line (after universal newlines), not a form feed or U+2028
    measurements = tmp_path / "meas.txt"
    measurements.write_bytes(data)
    out = tmp_path / "trace.csv"
    args = ["infer", "--measurements", str(measurements), "--init-state", "5", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: line {line}: invalid measurement {token!r}\n"
    assert not out.exists()


def test_infer_still_ends_lines_at_crlf_and_lone_cr(tmp_path):
    mixed, plain = tmp_path / "mixed.txt", tmp_path / "plain.txt"
    mixed.write_bytes(b"5\r\n6\r7\n")
    plain.write_bytes(b"5\n6\n7\n")
    outputs = []
    for path in (mixed, plain):
        out = tmp_path / f"{path.stem}.csv"
        assert main(["infer", "--measurements", str(path), "--init-state", "5", "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert [row.split(",")[2] for row in outputs[0].decode().splitlines()[1:4]] == ["5", "6", "7"]


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_infer_rejects_non_finite_sigma(tmp_path, small_map_path, capsys, sigma):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n")
    out = tmp_path / "trace.csv"
    args = ["infer", "--map", small_map_path, "--sigma", sigma, "--measurements",
            str(measurements), "--init-state", "1", "--out", str(out)]
    assert main(args) == 1
    assert "sigma" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank-lines"])
def test_infer_rejects_file_without_measurements(tmp_path, small_map_path, capsys, text):
    measurements = tmp_path / "meas.txt"
    measurements.write_text(text)
    out = tmp_path / "trace.csv"
    args = ["infer", "--map", small_map_path, "--measurements", str(measurements),
            "--init-state", "1", "--out", str(out)]
    assert main(args) == 1
    assert capsys.readouterr().err == f"error: no measurements in {measurements}\n"
    assert not out.exists()


# Measurements of 50 steps on the default map from node 5 at sigma 1, drawn by
# sample_trajectory with the observation columns rolled by one node and seed
# trial_seed(0, 734). The forward mass at step 4 overlaps the backward message
# only at node 47, and there the product of the two underflows.
UNDERFLOW_DRIVE = (
    "6 53 5 53 104 6 9 9 36 31 62 1 98 88 2 72 27 57 102 25 71 43 104 43 104 104 42 24 43 "
    "104 43 43 104 22 74 36 34 87 87 88 87 30 87 24 12 25 102 56 96 7"
)


@pytest.mark.parametrize("method", ["smoother", "both"])
def test_infer_smooths_a_drive_whose_message_product_underflows(tmp_path, method):
    measurements = tmp_path / "meas.txt"
    measurements.write_text(UNDERFLOW_DRIVE.replace(" ", "\n") + "\n")
    out = tmp_path / "beliefs.csv"
    args = ["infer", "--measurements", str(measurements), "--init-state", "5", "--method", method,
            "--out", str(out)]
    assert main(args) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == (100 if method == "both" else 50)
    beliefs = np.array([row[4:] for row in rows], dtype=float)
    assert np.abs(beliefs.sum(axis=1) - 1.0).max() <= 1e-12
    smoothed = [row for row in rows if row[0] == "smoother"]
    assert smoothed[3][:4] == ["smoother", "4", "53", "47"]


def infer_args(map_path, measurements, *extra):
    return ["infer", "--map", map_path, "--measurements", str(measurements), "--init-state", "1",
            *extra]


@pytest.mark.parametrize(
    "command,kind",
    [
        ("validate-map", "map"),
        ("simulate", "map"),
        ("export-matrices", "map"),
        ("infer", "map"),
        ("infer", "measurement"),
    ],
)
def test_non_utf8_input_file_is_named(tmp_path, small_map_path, capsys, command, kind):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"1\n\xff\n")
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n")
    map_path = str(bad) if kind == "map" else small_map_path
    out = tmp_path / "out"
    args = {
        "validate-map": ["validate-map", map_path],
        "simulate": ["simulate", "--map", map_path, "--init", "1", "--out", str(out)],
        "export-matrices": ["export-matrices", "--map", map_path, "--out-prefix", str(out)],
        "infer": infer_args(map_path, bad if kind == "measurement" else measurements,
                            "--out", str(out)),
    }[command]
    before = sorted(tmp_path.iterdir())
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {kind} file {bad}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in captured.err
    assert sorted(tmp_path.iterdir()) == before


def with_byte_order_mark(tmp_path, path):
    marked = tmp_path / f"bom-{Path(path).name}"
    marked.write_bytes(b"\xef\xbb\xbf" + Path(path).read_bytes())
    return marked


def test_validate_map_skips_byte_order_mark(tmp_path, default_map_path, capsys):
    assert main(["validate-map", default_map_path]) == 0
    plain = capsys.readouterr()
    assert main(["validate-map", str(with_byte_order_mark(tmp_path, default_map_path))]) == 0
    assert capsys.readouterr() == plain


def test_infer_skips_byte_order_mark(tmp_path, small_map_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n4\n")
    outputs = []
    for path in (measurements, with_byte_order_mark(tmp_path, measurements)):
        out = tmp_path / f"{path.stem}.csv"
        assert main(infer_args(small_map_path, path, "--out", str(out))) == 0
        outputs.append((capsys.readouterr(), out.read_bytes()))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("method", ["filter", "smoother"])
def test_infer_one_method_equals_its_rows_of_both(tmp_path, small_map_path, monkeypatch, method):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n3\n3\n4\n")
    both, one = tmp_path / "both.csv", tmp_path / f"{method}.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(both))) == 0

    def no_backward_pass(*args, **kwargs):
        raise AssertionError("backward_pass called")

    if method == "filter":  # the filter runs no backward pass
        monkeypatch.setattr(inference, "backward_pass", no_backward_pass)
    args = infer_args(small_map_path, measurements, "--method", method, "--out", str(one))
    assert main(args) == 0
    header, *rows = both.read_bytes().splitlines(keepends=True)
    assert one.read_bytes() == header + b"".join(
        row for row in rows if row.startswith(f"{method},".encode())
    )


def test_infer_stdout_equals_out_file(tmp_path, small_map_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n")
    out = tmp_path / "trace.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(out))) == 0
    capsys.readouterr()
    assert main(infer_args(small_map_path, measurements, "--out", "-")) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


def test_infer_leaves_no_child_process(tmp_path, small_map_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n")
    assert main(infer_args(small_map_path, measurements, "--out", "-")) == 0
    assert capsys.readouterr().out.count("\n") == 9
    assert_no_child_left()


class FailingStdout(io.StringIO):
    """A stdout whose writes after the first raise ``error``."""

    def __init__(self, error):
        super().__init__()
        self.error = error

    def write(self, text):
        if self.tell():
            raise self.error
        return super().write(text)


@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")])
def test_a_failing_row_write_kills_and_reaps_the_helper(tmp_path, small_map_path, capsys,
                                                        monkeypatch, error):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n" * 50)
    parent, format_rows = os.getpid(), matrixio.format_rows

    def stuck_in_the_helper(prefixes, rows):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends the helper in time
            raise ValueError("the helper was not killed")
        return format_rows(prefixes, rows)

    monkeypatch.setattr(matrixio, "format_rows", stuck_in_the_helper)
    monkeypatch.setattr(sys, "stdout", FailingStdout(error))
    start = time.monotonic()
    assert main(infer_args(small_map_path, measurements, "--out", "-")) == cli.EXIT_IO
    assert time.monotonic() - start < 30
    assert capsys.readouterr().err == f"I/O error: {error}\n"
    assert_no_child_left()


def test_an_interrupted_row_write_kills_and_reaps_the_helper(tmp_path, small_map_path,
                                                             monkeypatch):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n" * 50)
    monkeypatch.setattr(sys, "stdout", FailingStdout(KeyboardInterrupt()))
    with pytest.raises(KeyboardInterrupt):
        main(infer_args(small_map_path, measurements, "--out", "-"))
    assert_no_child_left()


#: A command that dies, as a timed-out benchmark child is killed, while its
#: helper formats blocks of 4 rows at 10 ms a row; it prints the helper's pid first.
ORPHANING_SCRIPT = """
import os, signal, time
import numpy as np
from itertools import repeat
from roadhmm import matrixio

matrixio._BLOCK_VALUES = 12
parent, fork, format_rows = os.getpid(), os.fork, matrixio.format_rows

def fork_and_tell():
    helper = fork()
    if helper:
        print(helper, flush=True)
    return helper

def slow_rows(prefixes, rows):
    assert len(rows) == 4
    if os.getpid() == parent:
        os.kill(parent, signal.SIGKILL)
    time.sleep(0.01 * len(rows))
    return format_rows(prefixes, rows)

os.fork, matrixio.format_rows = fork_and_tell, slow_rows
matrixio.write_rows(open(os.devnull, "w"), [(repeat(""), np.zeros((2000, 3)))])
"""


def test_an_orphaned_helper_stops_within_a_block_of_rows():
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    # the helper holds the stdout pipe, so this returns only once the helper has exited
    done = subprocess.run([sys.executable, "-c", ORPHANING_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode == -signal.SIGKILL and int(done.stdout) > 0, done.stderr
    # about 1000 rows were left to the helper: 10 s unless it stops after its block
    assert elapsed < 5, f"the orphaned helper ran on for {elapsed:.1f} s"


@pytest.mark.parametrize("failure", ["format_rows", "orphaned"])
def test_a_failing_helper_exits_2_naming_it_without_a_traceback(tmp_path, small_map_path,
                                                               capsys, monkeypatch, failure):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n")
    parent, format_rows = os.getpid(), matrixio.format_rows

    def fails_in_the_helper(prefixes, rows):
        if os.getpid() != parent:
            raise ValueError("formatting failed")
        return format_rows(prefixes, rows)

    if failure == "format_rows":
        monkeypatch.setattr(matrixio, "format_rows", fails_in_the_helper)
    else:  # the helper sees another parent, as it would once this process had died
        monkeypatch.setattr(os, "getppid", lambda: 1)
    out = tmp_path / "beliefs.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(out))) == cli.EXIT_IO
    cause = {"format_rows": "failed: ValueError: formatting failed",
             "orphaned": "exited with status 1"}[failure]
    assert capsys.readouterr() == ("", f"I/O error: the row-formatting helper process {cause}\n")
    assert_no_child_left()


@pytest.mark.parametrize("side", ["helper", "own"])
def test_out_of_memory_while_formatting_rows_exits_1_in_either_process(
        tmp_path, small_map_path, capsys, monkeypatch, side):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n")
    parent, format_rows = os.getpid(), matrixio.format_rows

    def runs_out_of_memory(prefixes, rows):
        if (os.getpid() != parent) == (side == "helper"):
            out_of_memory()
        return format_rows(prefixes, rows)

    monkeypatch.setattr(matrixio, "format_rows", runs_out_of_memory)
    out = tmp_path / "beliefs.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(out))) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", "error: out of memory: Unable to allocate 298. GiB for an "
                                       "array with shape (200000, 200000)\n")
    assert_no_child_left()


# ---- replicate-table1's batches in two processes ----


def serial_accuracies(config):
    """(filter, smoother) accuracies from one serial loop over ``simulate_trials``."""
    batches = [(experiment.accuracy(x, f), experiment.accuracy(x, s))
               for x, _, f, s in run_trials(config)]
    return tuple(np.concatenate(column) for column in zip(*batches))


@pytest.mark.parametrize("trials", [1, 24, 25, 51, 500])
def test_run_experiment_in_two_processes_equals_the_serial_loop(forks, trials):
    # W = 24 at T = 50 and M = 105: one batch, an exact batch, a short last
    # batch, an odd batch count (3), and the 21 batches of a Table 1 scenario
    assert experiment.batch_width(50, 105) == 24
    config = experiment.ExperimentConfig(90, 2.0, steps=50, trials=trials, master_seed=13)
    result = experiment.run_experiment(config)
    assert len(forks) == (0 if trials <= 24 else 1)
    for got, expected in zip(result, serial_accuracies(config), strict=True):
        assert got.dtype == expected.dtype and got.shape == (trials,)
        assert np.array_equal(got, expected)
    assert_no_child_left()


def test_the_helpers_result_may_exceed_a_pipe_buffer():
    # 1.2 MB of results, where a pipe holds 64 KiB: read before the helper is reaped
    steps = (np.full(50_000, float(i)) for i in range(3))
    own, rest = matrixio._with_helper("test", steps, lambda: "own")
    assert own == "own" and len(rest) == 3
    assert all(np.array_equal(part, np.full(50_000, float(i))) for i, part in enumerate(rest))
    assert_no_child_left()


def corrupt_trials(monkeypatch, master_seed, *trials):
    """Zero step 3's measurement of each of ``trials``, in whichever process samples it."""
    sample = experiment.sample_trajectory
    seeds = {experiment.trial_seed(master_seed, t) for t in trials}

    def corrupt(*args):
        states, measurements = sample(*args)
        for column, seed in enumerate(args[-1]):
            if seed in seeds:
                measurements[2, column] = 0
        return states, measurements

    monkeypatch.setattr(experiment, "sample_trajectory", corrupt)


def table1_error(monkeypatch, capsys, serial):
    """``replicate-table1 --trials 60`` (batches from trials 0, 24 and 48, the last in the
    helper): its exit code and stderr, forked or, with ``serial``, as where ``os`` has no fork."""
    if serial:
        monkeypatch.delattr(os, "fork")
    code = main(["replicate-table1", "--trials", "60", "--seed", "4"])
    captured = capsys.readouterr()
    monkeypatch.undo()
    return code, captured.err


@pytest.mark.parametrize("trials, first", [((50,), 50), ((5, 50), 5), ((30, 50), 30)],
                         ids=["helper", "both-first-batch", "both-second-batch"])
def test_the_first_failing_trial_wins_whichever_process_runs_it(monkeypatch, capsys, trials,
                                                                first):
    errors = []
    for serial in (True, False):
        corrupt_trials(monkeypatch, 4, *trials)
        errors.append(table1_error(monkeypatch, capsys, serial))
    assert errors[0] == errors[1]
    code, err = errors[1]
    assert code == cli.EXIT_INVALID
    assert err.startswith(f"error: trial {first}: step 3: measurement 0 out of range")
    assert_no_child_left()


@pytest.mark.parametrize("failure", [inference.InferenceError("failed", 1, 0), KeyboardInterrupt()])
def test_a_failing_parent_half_kills_and_reaps_the_monte_carlo_helper(monkeypatch, failure):
    parent, sample = os.getpid(), experiment.sample_trajectory

    def helper_stuck_parent_fails(*args):
        if os.getpid() != parent:
            time.sleep(60)  # only a kill ends the helper in time
        elif args[-1][0] == experiment.trial_seed(0, 24):  # the parent's second batch
            raise failure
        return sample(*args)

    monkeypatch.setattr(experiment, "sample_trajectory", helper_stuck_parent_fails)
    start = time.monotonic()
    with pytest.raises(type(failure)):
        experiment.run_experiment(experiment.ExperimentConfig(5, 1.0, steps=50, trials=100))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_an_orphaned_monte_carlo_helper_exits_2_naming_it(monkeypatch, capsys):
    # the helper sees another parent, as it would once this process had died
    monkeypatch.setattr(os, "getppid", lambda: 1)
    assert main(["replicate-table1", "--trials", "60"]) == cli.EXIT_IO
    assert capsys.readouterr() == (
        "", "I/O error: the Monte Carlo helper process exited with status 1\n"
    )
    assert_no_child_left()


# ---- infer's backward pass in a helper process ----


#: The shortest drive on the default map whose belief array reaches the helper's limit
LONG_STEPS = -(-inference._CONCURRENT_BYTES // (8 * 105))


def long_drive(default_tables, steps=LONG_STEPS):
    """The measurements of one drive of ``steps`` steps on the default map, from node 5."""
    return experiment.sample_trajectory(*default_tables, 5, steps, 11)[1]


@pytest.fixture
def long_measurements(tmp_path, default_tables):
    path = tmp_path / "long.txt"
    path.write_text("".join(f"{m}\n" for m in long_drive(default_tables).tolist()))
    return path


def long_infer_args(measurements, *extra):
    return ["infer", "--measurements", str(measurements), "--init-state", "5", *extra]


def forked_then_serial(monkeypatch, capsys, args):
    """``main(args)``'s exit code and captured output, then both again with ``os.fork`` deleted."""
    results = []
    for serial in (False, True):
        if serial:
            monkeypatch.delattr(os, "fork")
        results.append((main(args), capsys.readouterr()))
    return results


@pytest.mark.parametrize("steps, helpers", [(LONG_STEPS - 1, 0), (LONG_STEPS, 1)])
def test_run_smoother_with_the_backward_helper_has_the_serial_bytes(
        monkeypatch, forks, default_model, default_tables, steps, helpers):
    measured = long_drive(default_tables, steps)
    prior = inference.point_mass_belief(105, 5)
    forked = inference.run_smoother(*default_model, measured, prior)
    assert forks == [False] * helpers
    assert_no_child_left()
    monkeypatch.delattr(os, "fork")
    serial = inference.run_smoother(*default_model, measured, prior)
    for name in ("filtered", "smoothed", "log_likelihood"):
        got, expected = getattr(forked, name), getattr(serial, name)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method, helpers", [("filter", 1), ("both", 2)])
def test_infer_forks_the_pass_helper_only_to_smooth_and_reaps_it_before_writing(
        tmp_path, long_measurements, forks, method, helpers):
    out = tmp_path / "beliefs.csv"
    assert main(long_infer_args(long_measurements, "--method", method, "--out", str(out))) == 0
    # the pass helper, if any, then the row-formatting helper: never two at once
    assert forks == [False] * helpers
    assert_no_child_left()


def test_no_batch_of_trials_forks_a_pass_helper(tmp_path, monkeypatch, forks):
    # every batch's measurements are (T, N), so a limit of 1 byte still forks nothing
    monkeypatch.setattr(inference, "_CONCURRENT_BYTES", 1)
    assert main(simulate_args(str(tmp_path / "sim.csv"), **{"--steps": str(LONG_STEPS)})) == 0
    assert forks == []
    # 3 batches per scenario: one Monte Carlo helper each, which would exit with
    # NESTED_FORK if its batches forked
    assert main(["replicate-table1", "--trials", "60", "--out", str(tmp_path / "t.csv")]) == 0
    assert forks == [False] * 3
    assert_no_child_left()


def test_the_backward_helpers_inference_error_comes_back_unchanged(
        monkeypatch, forks, default_model, default_tables):
    def fails(*args, **kwargs):
        raise inference.InferenceError("measurement impossible under model", 7)

    monkeypatch.setattr(inference, "backward_pass", fails)  # run only by the helper
    with pytest.raises(inference.InferenceError) as info:
        inference.run_smoother(*default_model, long_drive(default_tables),
                               inference.point_mass_belief(105, 5))
    error = info.value
    assert (str(error), error.reason, error.step, error.trial) == (
        "step 7: measurement impossible under model", "measurement impossible under model", 7,
        None)
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("error, line", [
    (inference.InferenceError("measurement impossible under model", 7),
     "error: step 7: measurement impossible under model\n"),
    (MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)"),
     "error: out of memory: Unable to allocate 298. GiB for an array with shape "
     "(200000, 200000)\n"),
], ids=["inference-error", "out-of-memory"])
def test_a_failing_backward_helper_exits_as_a_serial_run(tmp_path, long_measurements, capsys,
                                                         monkeypatch, forks, error, line):
    def fails(*args, **kwargs):
        raise error

    monkeypatch.setattr(inference, "backward_pass", fails)
    out = tmp_path / "beliefs.csv"
    results = forked_then_serial(monkeypatch, capsys,
                                 long_infer_args(long_measurements, "--out", str(out)))
    assert results[0] == results[1] == (cli.EXIT_INVALID, ("", line))
    assert len(forks) == 1  # the forked run's pass helper; neither run wrote a row
    assert not out.exists()
    assert_no_child_left()


def test_an_impossible_first_measurement_of_a_long_drive_fails_as_a_serial_run(
        tmp_path, long_measurements, capsys, monkeypatch, forks):
    # node 99 cannot be measured as node 3 one step later: the forward pass fails at
    # step 1 while the helper runs the backward pass, which then is not wanted
    long_measurements.write_text("3\n" + long_measurements.read_text())
    args = ["infer", "--measurements", str(long_measurements), "--init-state", "99"]
    results = forked_then_serial(monkeypatch, capsys, args)
    assert results[0] == results[1] == (
        cli.EXIT_INVALID, ("", "error: step 1: measurement impossible under model\n"))
    assert len(forks) == 1
    assert_no_child_left()


@pytest.mark.parametrize("failure", [inference.InferenceError("failed", 3), KeyboardInterrupt()])
def test_a_failing_forward_pass_kills_and_reaps_the_backward_helper(
        monkeypatch, default_model, default_tables, failure):
    def stuck(*args, **kwargs):  # run only by the helper
        time.sleep(60)  # only a kill ends the helper in time
        raise AssertionError("the helper was not killed")

    def fails(*args, **kwargs):
        raise failure

    monkeypatch.setattr(inference, "backward_pass", stuck)
    monkeypatch.setattr(inference, "forward_pass", fails)
    start = time.monotonic()
    with pytest.raises(type(failure)):
        inference.run_smoother(*default_model, long_drive(default_tables),
                               inference.point_mass_belief(105, 5))
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_infer_impossible_measurement_leaves_no_out_file(tmp_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("3\n")  # node 99 cannot be measured as node 3 one step later
    out = tmp_path / "trace.csv"
    args = ["infer", "--measurements", str(measurements), "--init-state", "99", "--out", str(out)]
    assert main(args) == 1
    assert "step 1: measurement impossible under model" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_inference_error_leaves_no_out_file(tmp_path, capsys, monkeypatch):
    sample = experiment.sample_trajectory

    def corrupt(*args, **kwargs):
        states, measurements = sample(*args, **kwargs)
        measurements[1, 0] = 0
        return states, measurements

    monkeypatch.setattr(experiment, "sample_trajectory", corrupt)
    out = tmp_path / "x.csv"
    assert main(simulate_args(str(out), **{"--trials": "2"})) == 1
    assert "trial 0: step 2: measurement 0 out of range" in capsys.readouterr().err
    assert not out.exists()


# ---- out of memory ----


def out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)")


@pytest.mark.parametrize("command", ["validate-map", "simulate", "export-matrices"])
def test_out_of_memory_exits_1_with_message(tmp_path, small_map_path, capsys, monkeypatch, command):
    out = tmp_path / "x.csv"
    if command == "validate-map":
        monkeypatch.setattr(roadmap, "transition_entries", out_of_memory)
        args = ["validate-map", small_map_path]
    elif command == "simulate":
        monkeypatch.setattr(experiment, "simulate_trials", out_of_memory)
        args = simulate_args(str(out))
    else:
        monkeypatch.setattr(experiment, "build_model", out_of_memory)
        args = ["export-matrices", "--map", small_map_path, "--out-prefix", str(tmp_path / "m")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 298. GiB for an array with shape (200000, 200000)\n"
    assert [path.name for path in tmp_path.iterdir()] == ["small.json"]


# ---- the package ----


def test_package_holds_only_what_the_cli_runs():
    """Neither the path oracle (test code) nor a matrix reader (np.loadtxt) is installed API."""
    assert sorted(m.name for m in pkgutil.iter_modules(roadhmm.__path__)) == [
        "cli", "experiment", "inference", "matrixio", "roadmap", "sensor"
    ]
    assert not hasattr(matrixio, "read_matrix_csv")


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc/self/status")
@pytest.mark.parametrize("setting", [None, "2"], ids=["unset", "user-set-2"])
def test_importing_the_cli_asks_openblas_for_one_thread_unless_set(setting):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    src = str(Path(cli.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import os, roadhmm.cli\n"
        "threads = [line.split()[1] for line in open('/proc/self/status') if line.startswith('Threads:')]\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], *threads)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    if setting is None:
        assert done.stdout.split() == ["1", "1"]  # no BLAS worker thread next to the main one
    else:
        assert done.stdout.split()[0] == setting
