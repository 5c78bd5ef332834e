import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from roadhmm import cli, experiment, inference, matrixio, oracle, roadmap
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


def test_validate_map_reports_column_that_is_not_stochastic(small_map_path, capsys, monkeypatch):
    build = roadmap.build_transition_matrix

    def off_by_a_tenth(graph):
        matrix = build(graph)
        matrix[:, 2] *= 0.9
        return matrix

    monkeypatch.setattr(roadmap, "build_transition_matrix", off_by_a_tenth)
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


def test_replicate_table1_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["replicate-table1", "--seed", "3", "--trials", "2", "--out", str(a)])
    main(["replicate-table1", "--seed", "3", "--trials", "2", "--threads", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


# ---- export-matrices ----


def test_export_csv_round_trips_exactly(tmp_path, small_map_path):
    prefix = str(tmp_path / "small")
    assert main(["export-matrices", "--map", small_map_path, "--out-prefix", prefix]) == 0
    graph = roadmap.load_map(Path(small_map_path).read_text())
    transition = roadmap.build_transition_matrix(graph)
    reimported = matrixio.read_matrix_csv(f"{prefix}_transition.csv")
    assert np.array_equal(reimported, transition)
    observation = matrixio.read_matrix_csv(f"{prefix}_observation.csv")
    assert observation.shape == (4, 4)
    assert_allclose(observation.sum(axis=0), 1.0, atol=1e-12)


def test_export_csv_text_is_repr_of_each_entry(tmp_path):
    prefix = tmp_path / "default"
    assert main(["export-matrices", "--sigma", "2", "--out-prefix", str(prefix)]) == 0
    _, transition, observation = experiment.build_model("default", 2.0)
    for name, matrix in (("transition", transition), ("observation", observation)):
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


def test_export_observation_diagonal_band(tmp_path):
    prefix = str(tmp_path / "obs")
    assert main(["export-matrices", "--sigma", "1", "--out-prefix", prefix]) == 0
    observation = matrixio.read_matrix_csv(f"{prefix}_observation.csv")
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
    _, transition, observation = experiment.build_model(small_map_path, 1.0)
    filtered, smoothed, _ = oracle.enumerate_posteriors(
        transition, observation, inference.point_mass_belief(4, 1), sequence
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


def infer_args(map_path, measurements, *extra):
    return ["infer", "--map", map_path, "--measurements", str(measurements), "--init-state", "1",
            *extra]


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
