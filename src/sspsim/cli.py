"""Command-line surface: generate scenarios, run the engine, calibrate, report.

Exit codes: 0 success, 2 usage/config error, 3 non-convergence (iteration cap),
4 internal invariant breach. Each command maps its own load, map-file and
write errors; the engine's errors are mapped once, in ``main``, for ``run``
and ``calibrate`` alike.

``run`` loads and validates the scenario, resolves the map and runs the
engine, and only once the engine has returned creates the results directory
and writes its four files, whose formats are all defined here. So a run that
exits non-zero before that point leaves the disk as it was. Every number the
CLI prints is recomputable from the CSV artifacts it writes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from .coalition import ActualNeighborhoodMap, anm_from_csv, form_coalitions, map_from_coalitions, meshed_map
from .matching import MatchingInfeasibleError
from .model import UTILITY_ID, energy_status, validate_scenario
from .protocol import (
    OFFER_KIND,
    CalibrationError,
    ConvergenceError,
    ConvergencePoint,
    InvalidScenarioError,
    LogRecord,
    calibrate_weights,
    run_engine,
)
from .scenario import (
    GeneratorSpec,
    GeneratorSpecError,
    ScenarioFormatError,
    generate_scenario,
    load_scenario,
    save_scenario,
)

OUTPUT_DIR_ENV = "SSPSIM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INTERNAL = 4

SUMMARY_KEYS = frozenset({"final_utility_kwh", "iterations", "coalitions", "per_ssp"})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sspsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded synthetic scenario file")
    gen.add_argument("--ssps", type=int, required=True)
    gen.add_argument("--consumers", type=int, required=True)
    gen.add_argument("--producers", type=int, required=True)
    gen.add_argument("--passive-consumers", type=int, default=0)
    gen.add_argument("--pc-bound", type=float, default=0.0)
    gen.add_argument("--passive-producers", type=int, default=0)
    gen.add_argument("--pp-bound", type=float, default=0.0)
    gen.add_argument("--demand-mean", type=float, default=12.0)
    gen.add_argument("--supply-mean", type=float, default=15.0)
    gen.add_argument("--noise", type=float, default=3.0)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True, help="scenario JSON path")

    run = sub.add_parser("run", help="run the distributed matching engine")
    run.add_argument("--scenario", required=True)
    run.add_argument("--anm", choices=("meshed", "coalition", "file"), required=True)
    run.add_argument("--max-group-size", type=int, default=5, help="coalition mode only")
    run.add_argument("--anm-file", help="file mode only: neighborhood CSV")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=None, help=f"results directory (default ${OUTPUT_DIR_ENV})")
    run.add_argument("--w14", type=float)
    run.add_argument("--w2", type=float)
    run.add_argument("--w35", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--beta", type=float)
    run.add_argument("--iteration-cap", type=_positive_int, default=10000)
    run.add_argument("--json", action="store_true", help="print the summary to stdout")

    cal = sub.add_parser("calibrate", help="hill-climb the matching weights on a scenario")
    cal.add_argument("--scenario", required=True)
    cal.add_argument("--iterations", type=int, default=4)
    cal.add_argument("--seed", type=int, default=0)

    rep = sub.add_parser("report", help="tabulate one or more results directories")
    rep.add_argument("results", nargs="+", help="results directories from `run`")
    return parser


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        spec = GeneratorSpec(
            n_ssps=args.ssps,
            consumers_per_ssp=args.consumers,
            producers_per_ssp=args.producers,
            passive_consumers=args.passive_consumers,
            passive_consumer_bound=args.pc_bound,
            passive_producers=args.passive_producers,
            passive_producer_bound=args.pp_bound,
            demand_mean_kwh=args.demand_mean,
            supply_mean_kwh=args.supply_mean,
            noise_std_kwh=args.noise,
            seed=args.seed,
        )
        scenario = generate_scenario(spec)
    except GeneratorSpecError as exc:
        print(f"invalid generator spec: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        save_scenario(scenario, args.out)
    except OSError as exc:
        print(f"cannot write scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"wrote {args.out}")
    return EXIT_OK


def _resolve_anm(args: argparse.Namespace, scenario) -> ActualNeighborhoodMap:
    if args.anm == "meshed":
        return meshed_map(scenario.ssp_ids)
    if args.anm == "coalition":
        statuses = {cfg.id: energy_status(cfg) for cfg in scenario.ssps}
        return map_from_coalitions(form_coalitions(statuses, args.max_group_size))
    if not args.anm_file:
        raise ScenarioFormatError("--anm file requires --anm-file")
    with open(args.anm_file, "r", encoding="utf-8") as fh:
        anm = anm_from_csv(fh.read())
    unknown = sorted(set(anm.ssp_ids) - set(scenario.ssp_ids))
    if unknown:
        raise ScenarioFormatError(f"{args.anm_file} names SSP {unknown[0]!r}, which the scenario lacks")
    # an SSP the file leaves out stands alone
    return replace(anm, ssp_ids=tuple(sorted(scenario.ssp_ids)))


def _weight_overrides(args: argparse.Namespace, weights):
    fields = {}
    for name in ("w14", "w2", "w35", "alpha", "beta"):
        value = getattr(args, name)
        if value is not None:
            fields[name] = value
    return replace(weights, **fields) if fields else weights


def _cmd_run(args: argparse.Namespace) -> int:
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV)
    if not out_dir:
        print(f"no output directory: pass --out or set ${OUTPUT_DIR_ENV}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioFormatError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    weights = _weight_overrides(args, scenario.weights)
    violations = validate_scenario(replace(scenario, weights=weights))
    if violations:
        for v in violations:
            print(f"invalid scenario: {v}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        anm = _resolve_anm(args, scenario)
    except (OSError, ValueError) as exc:
        print(f"cannot resolve neighborhood map: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = run_engine(scenario, anm, weights=weights, seed=args.seed, iteration_cap=args.iteration_cap)
    summary = {
        "initial_abs_status_kwh": result.initial_abs_status_kwh,
        "final_utility_kwh": result.final_utility_kwh,
        "iterations": result.iterations,
        "coalitions": anm.component_count(),
        "per_ssp": {
            ssp_id: {
                "initial_abs_status_kwh": result.per_ssp_initial[ssp_id],
                "final_utility_kwh": result.per_ssp_final[ssp_id],
            }
            for ssp_id in sorted(result.per_ssp_initial)
        },
    }
    try:
        os.makedirs(out_dir, exist_ok=True)
        _write(out_dir, "commitments.csv", _commitments_csv(result))
        _write(out_dir, "convergence.csv", trace_to_csv(result.trace))
        _write(out_dir, "messages.csv", messages_to_csv(result.log))
        _write(out_dir, "summary.json", json.dumps(summary, indent=2) + "\n")
    except OSError as exc:
        print(f"cannot write results directory: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"wrote {out_dir} (final utility {result.final_utility_kwh} kWh, {result.iterations} iterations)")
    return EXIT_OK


def _commitments_csv(result) -> str:
    lines = ["ssp,row_id,col_id,kwh"]
    for ssp_id in sorted(result.commitments):
        cm = result.commitments[ssp_id]
        for row_id in cm.row_ids():
            for col_id in cm.col_ids():
                if row_id == UTILITY_ID and col_id == UTILITY_ID:
                    continue  # cm(U, U) does not exist
                lines.append(f"{ssp_id},{row_id},{col_id},{cm.get(row_id, col_id)!r}")
    return "\n".join(lines) + "\n"


def trace_to_csv(trace: list[ConvergencePoint]) -> str:
    lines = ["iteration,accumulated_utility_kwh"]
    for point in trace:
        lines.append(f"{point.iteration},{point.accumulated_utility_kwh!r}")
    return "\n".join(lines) + "\n"


def messages_to_csv(log: list[LogRecord]) -> str:
    lines = ["round,kind,src,dst,energy_kwh,bound,token"]
    for record in log:
        if record.kind == OFFER_KIND:
            energy = repr(record.payload["energy_kwh"])
            bound = repr(record.payload["bound"])
            token = str(record.payload["token"])
        else:
            energy = repr(record.payload["amount_kwh"])
            bound = ""
            token = ""
        lines.append(f"{record.round_index},{record.kind},{record.src},{record.dst},{energy},{bound},{token}")
    return "\n".join(lines) + "\n"


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _cmd_calibrate(args: argparse.Namespace) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ScenarioFormatError) as exc:
        print(f"cannot load scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    weights = calibrate_weights(scenario, iterations=args.iterations, seed=args.seed)
    print(
        json.dumps(
            {"w14": weights.w14, "w2": weights.w2, "w35": weights.w35, "alpha": weights.alpha, "beta": weights.beta},
            indent=2,
        )
    )
    return EXIT_OK


def _summary_problem(summary: object) -> str | None:
    """Why ``report`` cannot tabulate a loaded summary.json, or None when it can."""
    if not isinstance(summary, dict):
        return "lacks an object"
    missing = sorted(SUMMARY_KEYS - set(summary))
    if missing:
        return f"lacks {missing[0]}"
    for key in ("final_utility_kwh", "iterations", "coalitions"):
        if isinstance(summary[key], bool) or not isinstance(summary[key], (int, float)):
            return f"has {key} = {summary[key]!r}, not a number"
    if not isinstance(summary["per_ssp"], dict):
        return f"has per_ssp = {summary['per_ssp']!r}, not an object"
    for ssp_id, per in summary["per_ssp"].items():
        if not isinstance(per, dict):
            return f"has per_ssp.{ssp_id} = {per!r}, not an object"
    return None


def _cmd_report(args: argparse.Namespace) -> int:
    summaries = []
    for path in args.results:
        summary_path = os.path.join(path, "summary.json")
        if not os.path.isfile(summary_path):
            print(f"not a results directory (no summary.json): {path}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            with open(summary_path, "r", encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"unreadable summary.json in {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        problem = _summary_problem(summary)
        if problem:
            print(f"summary.json in {path} {problem}", file=sys.stderr)
            return EXIT_CONFIG
        summaries.append((path, summary))

    print("run\tfinal_utility_kwh\titerations\tcoalitions")
    for path, summary in summaries:
        print(f"{path}\t{summary['final_utility_kwh']}\t{summary['iterations']}\t{summary['coalitions']}")
    print()
    header = ["ssp"]
    for path, _ in summaries:
        header.extend([f"{path}:initial", f"{path}:final"])
    print("\t".join(header))
    # every SSP of every run; a run without it leaves its cells blank
    ssp_ids = sorted(set().union(*(summary["per_ssp"] for _, summary in summaries)))
    for ssp_id in ssp_ids:
        row = [ssp_id]
        for _, summary in summaries:
            per = summary["per_ssp"].get(ssp_id, {})
            row.append(str(per.get("initial_abs_status_kwh", "")))
            row.append(str(per.get("final_utility_kwh", "")))
        print("\t".join(row))
    if len(summaries) > 1:
        print()
        ordered = sorted(summaries, key=lambda item: item[1]["final_utility_kwh"])
        print("comparison (best final first):\t" + "\t".join(path for path, _ in ordered))
        for (path_a, sa), (path_b, sb) in zip(summaries, summaries[1:]):
            ok = sa["final_utility_kwh"] <= sb["final_utility_kwh"] + 1e-6
            print(f"{path_a} <= {path_b}:\t{'yes' if ok else 'no'}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "calibrate":
            return _cmd_calibrate(args)
        return _cmd_report(args)
    # ConvergenceError and MatchingInfeasibleError are RuntimeErrors: mapped before exit 4
    except ConvergenceError as exc:
        print(f"engine did not converge: {exc}", file=sys.stderr)
        for point in exc.trace[-5:]:
            print(f"  iteration {point.iteration}: {point.accumulated_utility_kwh}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except MatchingInfeasibleError as exc:
        print(f"line constraints no matching can meet: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidScenarioError as exc:
        # the engine's own check, which lets w2 <= 0 pass, since calibration can raise it
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CalibrationError as exc:
        print(f"invalid calibration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AssertionError, ArithmeticError, RuntimeError) as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
