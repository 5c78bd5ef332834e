"""Command-line front end.

Subcommands: validate-map, simulate, replicate-table1, export-matrices,
infer. Exit codes: 0 success, 1 validation or usage failure, 2 I/O failure.
All output is deterministic given the flags.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager

import numpy as np

from . import experiment, inference, matrixio, roadmap

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_IO = 2

RESULTS_HEADER = "trial,k,true_state,measured,filter_estimate,smoother_estimate"

#: A measurement token: an optional sign and ASCII digits.
_INTEGER = re.compile(r"[+-]?[0-9]+")


class _Parser(argparse.ArgumentParser):
    # usage problems are validation failures (exit 1), not I/O failures
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


@contextmanager
def _output(path: str | None):
    """Text handle to write ``path``; stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        yield handle


def _cmd_validate_map(args) -> int:
    with open(args.path, encoding="utf-8") as handle:
        graph = roadmap.load_map(handle.read())
    matrix = roadmap.build_transition_matrix(graph)
    deviation = float(np.abs(matrix.sum(axis=0) - 1.0).max())
    # the build keeps each positive weight positive, so the two counts agree
    positive_entries = int(np.count_nonzero(matrix))
    positive_edges = sum(1 for e in graph.edges if e.weight > 0)
    print(f"{graph.num_nodes} nodes, {len(graph.edges)} edges")
    print(f"max column-sum deviation: {deviation:.3e}")
    print(
        f"zero pattern: {positive_entries} positive entries "
        f"match {positive_edges} positive-weight edges"
    )
    if deviation <= 1e-12:
        print(f"{graph.num_nodes} nodes, columns stochastic")
        return EXIT_OK
    print(f"{graph.num_nodes} nodes, columns NOT stochastic")
    return EXIT_INVALID


def _cmd_simulate(args) -> int:
    config = experiment.ExperimentConfig(
        initial_state=args.init,
        sigma=args.sigma,
        steps=args.steps,
        trials=args.trials,
        master_seed=args.seed,
        map_source=args.map,
    )
    traces = experiment.simulate_trials(config, smoother=args.method != "filter")
    blank = [[""] * config.steps] * config.trials
    filter_rows = traces.filter_estimates.tolist() if args.method != "smoother" else blank
    smoother_rows = traces.smoother_estimates.tolist() if args.method != "filter" else blank
    per_trial = zip(
        traces.true_states.tolist(), traces.measurements.tolist(), filter_rows, smoother_rows
    )
    with _output(args.out) as out:
        out.write(RESULTS_HEADER + "\n")
        for trial, columns in enumerate(per_trial):
            for k, (state, measured, filter_est, smoother_est) in enumerate(zip(*columns), start=1):
                out.write(f"{trial},{k},{state},{measured},{filter_est},{smoother_est}\n")
    summary = sys.stderr if args.out in (None, "-") else sys.stdout
    if args.method != "smoother":
        mean = np.mean(experiment.accuracy(traces.true_states, traces.filter_estimates))
        print(f"filter mean accuracy: {mean:.4f}", file=summary)
    if args.method != "filter":
        mean = np.mean(experiment.accuracy(traces.true_states, traces.smoother_estimates))
        print(f"smoother mean accuracy: {mean:.4f}", file=summary)
    return EXIT_OK


def _cmd_replicate_table1(args) -> int:
    rows = experiment.replicate_table1(master_seed=args.seed, trials=args.trials)
    print(f"{'scenario':<20}{'filter':>10}{'smoother':>10}   reference (filter/smoother)")
    csv_lines = [
        "initial_state,sigma,steps,trials,filter_mean,filter_std,"
        "smoother_mean,smoother_std,reference_filter,reference_smoother"
    ]
    for row in rows:
        print(
            f"{row.label:<20}{row.result.filter_mean:>10.4f}"
            f"{row.result.smoother_mean:>10.4f}   "
            f"{row.reference_filter:.2f}/{row.reference_smoother:.2f}"
        )
        csv_lines.append(
            f"{row.config.initial_state},{row.config.sigma:g},{row.config.steps},"
            f"{row.config.trials},{row.result.filter_mean!r},{row.result.filter_std!r},"
            f"{row.result.smoother_mean!r},{row.result.smoother_std!r},"
            f"{row.reference_filter},{row.reference_smoother}"
        )
    if args.out:
        with _output(args.out) as out:
            out.write("\n".join(csv_lines) + "\n")
    return EXIT_OK


def _cmd_export_matrices(args) -> int:
    _, transition, observation = experiment.build_model(args.map, args.sigma)
    write = matrixio.write_matrix_csv if args.format == "csv" else matrixio.write_matrix_pgm
    for name, matrix in (("transition", transition), ("observation", observation)):
        path = f"{args.out_prefix}_{name}.{args.format}"
        with _output(path) as out:
            write(matrix, out)
        print(f"wrote {path}")
    return EXIT_OK


def _parse_measurements(text: str, num_nodes: int) -> list[int]:
    measurements = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            if not _INTEGER.fullmatch(token):  # int() would also take "1_0" and non-ASCII digits
                raise ValueError(token)
            value = int(token)
        except ValueError:
            raise ValueError(f"line {lineno}: invalid measurement {token!r}") from None
        if not 1 <= value <= num_nodes:
            raise ValueError(f"line {lineno}: measurement {value} out of range 1..{num_nodes}")
        measurements.append(value)
    return measurements


def _cmd_infer(args) -> int:
    graph, transition, observation = experiment.build_model(args.map, args.sigma)
    with open(args.measurements, encoding="utf-8") as handle:
        measurements = _parse_measurements(handle.read(), graph.num_nodes)
    if not measurements:
        raise ValueError(f"no measurements in {args.measurements}")
    prior = inference.point_mass_belief(graph.num_nodes, args.init_state)
    forward = inference.forward_pass(transition, observation, measurements, prior)
    beliefs = {}
    if args.method != "smoother":
        beliefs["filter"] = forward.vectors
    if args.method != "filter":
        backward = inference.backward_pass(transition, observation, measurements)
        beliefs["smoother"] = inference.smooth(forward, backward)
    estimates = {method: inference.map_estimate(b).tolist() for method, b in beliefs.items()}
    header = "method,k,measured,estimate," + ",".join(
        f"p_{i}" for i in range(1, graph.num_nodes + 1)
    )
    with _output(args.out) as out:
        out.write(header + "\n")
        for method, table in beliefs.items():
            rows = zip(measurements, estimates[method], table)
            for k, (measured, estimate, belief) in enumerate(rows, start=1):
                out.write(f"{method},{k},{measured},{estimate},{matrixio.format_row(belief)}\n")
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="roadhmm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-map", help="check a map file and its transition matrix")
    p.add_argument("path")
    p.set_defaults(func=_cmd_validate_map)

    p = sub.add_parser("simulate", help="sample trajectories and run filter/smoother")
    p.add_argument("--map", default="default", help="map file path or 'default'")
    p.add_argument("--init", type=int, required=True, help="initial state x_0")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--method", choices=("filter", "smoother", "both"), default="both")
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replicate-table1", help="run the three reference scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--threads", type=int, default=1, help="accepted; has no effect")
    p.add_argument("--out", default=None, help="optional CSV path for the comparison table")
    p.set_defaults(func=_cmd_replicate_table1)

    p = sub.add_parser("export-matrices", help="export transition/observation matrices")
    p.add_argument("--map", default="default")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--format", choices=("csv", "pgm"), default="csv")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_export_matrices)

    p = sub.add_parser("infer", help="run inference on a measurement file")
    p.add_argument("--map", default="default")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--measurements", required=True, help="file with one node id per line")
    p.add_argument("--init-state", type=int, required=True)
    p.add_argument("--method", choices=("filter", "smoother", "both"), default="both")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_infer)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # includes MapError and InferenceError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
