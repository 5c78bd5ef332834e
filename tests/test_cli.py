import csv
import errno
import io
import json
import mmap
import os
import pkgutil
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oracle
import roadhmm
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
    (ids, cdf), _ = experiment.sampling_tables(graph, experiment.build_model(graph, 1.0)[1])
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
    transition = roadmap.build_transition_matrix(graph)
    reimported = np.loadtxt(f"{prefix}_transition.csv", delimiter=",", ndmin=2)
    assert np.array_equal(reimported, transition)
    observation = np.loadtxt(f"{prefix}_observation.csv", delimiter=",", ndmin=2)
    assert observation.shape == (4, 4)
    assert_allclose(observation.sum(axis=0), 1.0, atol=1e-12)


def test_export_csv_text_is_repr_of_each_entry(tmp_path):
    prefix = tmp_path / "default"
    assert main(["export-matrices", "--sigma", "2", "--out-prefix", str(prefix)]) == 0
    transition, observation = experiment.build_model(experiment.read_graph("default"), 2.0)
    for name, matrix in (("transition", transition), ("observation", observation.dense())):
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
    for matrix in (transition, observation.dense()):
        out = io.StringIO()
        matrixio.write_matrix_pgm(matrix, out)
        assert out.getvalue() == reference_pgm(matrix)


def test_pgm_writes_row_by_row_without_a_matrix_temporary():
    transition, _ = experiment.build_model(roadmap.generate_default_map(num_nodes=700, seed=5), 1.0)
    tracemalloc.start()
    try:
        matrixio.write_matrix_pgm(transition, Discard())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * transition.nbytes


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
        transition, observation.dense(), inference.point_mass_belief(4, 1), sequence
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


def test_infer_filter_skips_backward_pass_and_equals_both(tmp_path, small_map_path, monkeypatch):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("1\n2\n3\n3\n4\n")
    both, filter_only = tmp_path / "both.csv", tmp_path / "filter.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(both))) == 0

    def no_backward_pass(*args, **kwargs):
        raise AssertionError("backward_pass called")

    monkeypatch.setattr(inference, "backward_pass", no_backward_pass)
    args = infer_args(small_map_path, measurements, "--method", "filter", "--out", str(filter_only))
    assert main(args) == 0
    header, *rows = both.read_text().splitlines()
    assert filter_only.read_text().splitlines() == [header] + [
        row for row in rows if row.startswith("filter,")
    ]


def test_infer_stdout_equals_out_file(tmp_path, small_map_path, capsys):
    measurements = tmp_path / "meas.txt"
    measurements.write_text("4\n3\n2\n2\n")
    out = tmp_path / "trace.csv"
    assert main(infer_args(small_map_path, measurements, "--out", str(out))) == 0
    capsys.readouterr()
    assert main(infer_args(small_map_path, measurements, "--out", "-")) == 0
    assert capsys.readouterr().out.encode() == out.read_bytes()


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


@pytest.mark.parametrize("command", ["validate-map", "simulate"])
def test_out_of_memory_exits_1_with_message(tmp_path, small_map_path, capsys, monkeypatch, command):
    out = tmp_path / "x.csv"
    if command == "validate-map":
        monkeypatch.setattr(roadmap, "transition_entries", out_of_memory)
        args = ["validate-map", small_map_path]
    else:
        monkeypatch.setattr(experiment, "simulate_trials", out_of_memory)
        args = simulate_args(str(out))
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 298. GiB for an array with shape (200000, 200000)\n"
    assert not out.exists()


def refused_mapping(*args, **kwargs):
    raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))


@pytest.mark.parametrize("command", ["simulate", "export-matrices"])
def test_a_refused_transition_mapping_exits_1_naming_its_size(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(mmap, "mmap", refused_mapping)
    monkeypatch.chdir(tmp_path)
    if command == "simulate":
        args = simulate_args("sim.csv")
    else:
        args = ["export-matrices", "--out-prefix", "m"]
    assert main(args) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: Unable to allocate 88,200 bytes for the (105, 105) transition matrix"
        f" ({os.strerror(errno.ENOMEM)})\n"
    )
    assert list(tmp_path.iterdir()) == []


# ---- the package ----


def test_package_holds_only_what_the_cli_runs():
    """Neither the path oracle (test code) nor a matrix reader (np.loadtxt) is installed API."""
    assert sorted(m.name for m in pkgutil.iter_modules(roadhmm.__path__)) == [
        "cli", "experiment", "inference", "matrixio", "roadmap", "sensor"
    ]
    assert not hasattr(matrixio, "read_matrix_csv")
