"""Command-line front end.

Subcommands: validate-map, simulate, replicate-table1, export-matrices,
infer. Exit codes: 0 success, 1 validation or usage failure or out of
memory, 2 I/O failure.
All output is deterministic given the flags.
"""

from __future__ import annotations

import argparse
import re
import sys
from contextlib import contextmanager, nullcontext, suppress
from itertools import chain, count, repeat

import numpy as np

from . import experiment, inference, matrixio, roadmap, sensor

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


def _thread_count(text: str) -> int:
    """A --threads value: accepted and ignored, but it must be an integer >= 1."""
    with suppress(ValueError):
        if int(text) >= 1:
            return int(text)
    raise argparse.ArgumentTypeError(f"invalid thread count {text!r}: must be an integer >= 1")


@contextmanager
def _output(path: str | None):
    """Text handle to write ``path``; stdout for None or "-"."""
    if path is None or path == "-":
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        yield handle


def _cmd_validate_map(args) -> int:
    graph = roadmap.read_map(args.path)
    _, columns, values = roadmap.transition_entries(graph)
    sums = np.bincount(columns, weights=values, minlength=graph.num_nodes)  # in row order
    deviation = float(np.abs(sums - 1.0).max())
    # the build keeps each positive weight positive, so the two counts agree
    positive_entries = int(np.count_nonzero(values))
    positive_edges = int(np.count_nonzero(graph.weight > 0))
    print(f"{graph.num_nodes} nodes, {graph.src.size} edges")
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
    starts, run_batch = experiment.simulate_trials(config, smoother=args.method != "filter")
    batches = map(run_batch, starts)
    first = next(batches)  # runs the first batch before --out opens
    kept = {"filter": [], "smoother": []} if args.method == "both" else {args.method: []}
    trial = 0
    with _output(args.out) as out:
        out.write(RESULTS_HEADER + "\n")
        for states, measured, *estimates in chain([first], batches):
            columns = [states.tolist(), measured.tolist()]
            for method, estimate in zip(("filter", "smoother"), estimates):
                if method in kept:
                    kept[method].append(experiment.accuracy(states, estimate))
                    columns.append(estimate.tolist())
                else:
                    columns.append([[""] * config.steps] * len(states))
            for rows in zip(*columns):
                for k, (state, measurement, filter_est, smoother_est) in enumerate(zip(*rows), 1):
                    out.write(f"{trial},{k},{state},{measurement},{filter_est},{smoother_est}\n")
                trial += 1
    summary = sys.stderr if args.out in (None, "-") else sys.stdout
    for method, accuracies in kept.items():
        print(f"{method} mean accuracy: {np.mean(np.concatenate(accuracies)):.4f}", file=summary)
    return EXIT_OK


def _cmd_replicate_table1(args) -> int:
    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    # --out opens before any scenario runs, so a bad path costs no Monte Carlo run
    with _output(args.out) if args.out is not None else nullcontext() as out:
        table, csv_lines = _table1(args)
        print("\n".join(table), file=sys.stderr if args.out == "-" else sys.stdout)
        if out is not None:
            out.write("\n".join(csv_lines) + "\n")
    return EXIT_OK


def _table1(args) -> tuple[list[str], list[str]]:
    """The comparison table's lines and its CSV's lines, one row per Table 1 scenario."""
    table = [f"{'scenario':<20}{'filter':>10}{'smoother':>10}   reference (filter/smoother)"]
    csv_lines = [
        "initial_state,sigma,steps,trials,filter_mean,filter_std,"
        "smoother_mean,smoother_std,reference_filter,reference_smoother"
    ]
    for init, sigma, reference_filter, reference_smoother in experiment.TABLE1_SCENARIOS:
        config = experiment.ExperimentConfig(
            init, sigma, steps=experiment.TABLE1_STEPS, trials=args.trials, master_seed=args.seed
        )
        label = f"init={init} sigma={sigma:g}"
        # numpy warns on ddof=1 of one value; a single trial has no spread
        (filter_mean, filter_std), (smoother_mean, smoother_std) = (
            (float(np.mean(a)), float(np.std(a, ddof=1)) if len(a) > 1 else 0.0)
            for a in experiment.run_experiment(config)
        )
        table.append(
            f"{label:<20}{filter_mean:>10.4f}{smoother_mean:>10.4f}"
            f"   {reference_filter:.2f}/{reference_smoother:.2f}"
        )
        csv_lines.append(
            f"{init},{sigma:g},{config.steps},{config.trials},{filter_mean!r},{filter_std!r},"
            f"{smoother_mean!r},{smoother_std!r},{reference_filter},{reference_smoother}"
        )
    return table, csv_lines


class _RowBlocks:
    """The M x M matrix whose rows a..b are ``rows(a, b)``, for ``matrixio`` to read
    through ``shape``, ``len`` and slices, a block of rows at a time."""

    def __init__(self, m: int, rows):
        self.shape, self._rows = (m, m), rows

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, block: slice) -> np.ndarray:
        return self._rows(*block.indices(self.shape[0])[:2])


def _cmd_export_matrices(args) -> int:
    graph = experiment.read_graph(args.map)
    transition, observation = experiment.build_model(graph, args.sigma)
    write = matrixio.write_matrix_csv if args.format == "csv" else matrixio.write_matrix_pgm
    # the one command that writes the M x M matrices out: each is written a block of
    # rows at a time, built from its model's parts, so neither is ever whole
    for name, rows in (
        ("transition", lambda a, b: roadmap.transition_rows(transition, a, b)),
        ("observation", lambda a, b: observation.likelihood_table(np.arange(a, b))[0]),
    ):
        path = f"{args.out_prefix}_{name}.{args.format}"
        with _output(path) as out:
            write(_RowBlocks(graph.num_nodes, rows), out)
        print(f"wrote {path}")
    return EXIT_OK


def _parse_measurements(text: str, num_nodes: int) -> list[int]:
    measurements = []
    for lineno, line in enumerate(text.split("\n"), start=1):
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
    graph = experiment.read_graph(args.map)
    sensor.gaussian_kernel(0, 0, args.sigma)  # raises on a bad sigma
    with open(args.measurements, encoding="utf-8-sig") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"measurement file {args.measurements}: {exc}") from None
    measurements = _parse_measurements(text, graph.num_nodes)
    if not measurements:
        raise ValueError(f"no measurements in {args.measurements}")
    prior = inference.point_mass_belief(graph.num_nodes, args.init_state)
    transition, observation = experiment.build_model(graph, args.sigma)
    result = inference.run_smoother(transition, observation, measurements, prior,
                                    smoother=args.method != "filter")
    beliefs = {"filter": result.filtered, "smoother": result.smoothed}
    if args.method != "both":  # only the selected method's table is written
        beliefs = {args.method: beliefs[args.method]}
    estimates = {method: inference.map_estimate(b).tolist() for method, b in beliefs.items()}
    header = "method,k,measured,estimate," + ",".join(
        f"p_{i}" for i in range(1, graph.num_nodes + 1)
    )
    with _output(args.out) as out:
        out.write(header + "\n")
        # each row's "method,k,measured,estimate," prefix, made as the row is written
        matrixio.write_rows(out, [
            (map("{},{},{},{},".format, repeat(method), count(1), measurements, estimates[method]),
             table)
            for method, table in beliefs.items()
        ])
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
    p.add_argument("--threads", type=_thread_count, default=1, help="accepted; has no effect")
    p.add_argument("--out", default=None, help="results CSV path (default: stdout)")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("replicate-table1", help="run the three reference scenarios")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--threads", type=_thread_count, default=1, help="accepted; has no effect")
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def main_entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
