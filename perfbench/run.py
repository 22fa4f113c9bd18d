"""sspsim benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload meshed-50 --seed 0 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
The loop is closed: each operation starts when the previous one has ended.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer ones
from traced operations alternated with untraced ones after the timed loop. The last stdout line is one JSON object
{correct, attempted, failed, metrics}. The exit code is 1 when the correctness
gate fails and 2 when the checkout or the arguments are unusable. Reported
times are rescaled to a reference host speed (see ``HostClock``); README.md
next to this file explains the workloads, the metrics and the rescaling.
"""

import os

# one BLAS/OpenMP thread, set before anything imports numpy, so that timings
# do not depend on how many cores BLAS happens to take
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from spans import Tracer, per_layer, unit_of  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "_out"

# Reported times are rescaled to a reference host speed. This host-speed
# probe is a fixed dense matmul, timed before and after every timed region.
# On shared hosts its time swings by up to 1.5x in phases that last seconds to
# minutes, and the sspsim operations swing with it (see README.md). REF_S is
# the probe's time on the development host; it only fixes the unit.
REF_S = 0.0075


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="benchmark seed; picks the protocol run seeds")
    parser.add_argument("--seconds", type=float, default=15.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario-seed", type=int, default=None, help="override the workload's scenario seed")
    return parser.parse_args(argv)


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"n": len(values), "p25": values[0], "p50": values[0], "p75": values[0]}
    q = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "p25": q[0], "p50": q[1], "p75": q[2]}


class HostClock:
    """Times a callable and rescales the time by the host-speed probe around it."""

    def __init__(self) -> None:
        import numpy

        self.a = numpy.arange(40000.0).reshape(200, 200) / 40000.0
        self.probes: list[float] = []

    def probe(self) -> float:
        started = time.perf_counter()
        for _ in range(20):
            self.a @ self.a
        self.probes.append(time.perf_counter() - started)
        return self.probes[-1]

    def measure(self, fn):
        """(result, (raw seconds, seconds at reference host speed)) of ``fn()``."""
        before = self.probe()
        started = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - started
        after = self.probe()
        return result, (raw, raw * 2.0 * REF_S / (before + after))


class Bench:
    """One workload run: setup, warm-up with the full gate, timed loop, optional traced pairs."""

    TRACED_PAIRS = 3

    def __init__(self, wl, workload, args, work: Path, partner_tol: float):
        self.wl = wl
        self.w = workload
        self.args = args
        self.work = work
        self.partner_tol = partner_tol
        self.engine = workload.anm is not None
        self.scenario_seed = workload.scenario_seed if args.scenario_seed is None else args.scenario_seed
        self.seeds = wl.run_seeds(workload, args.seed)
        self.scenario_path = str(work / "scenario.json")
        self.clock = HostClock()
        self.samples: dict[int, list[float]] = {}  # input -> timed seconds at reference speed
        self.raw_samples: dict[int, list[float]] = {}  # input -> timed seconds as measured
        self.outcomes: dict[int, dict] = {}  # input -> outcome of its first run
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.audit_s: list[float] = []
        self.tracers: list = []
        self.untraced_s: list[float] = []
        self.traced_s: list[float] = []

    def run(self, trace: bool) -> None:
        self.run_setup()
        if self.engine:
            import sspsim.cli

            self.capture = self.wl.Capture(sspsim.cli.run_engine)
            sspsim.cli.run_engine = self.capture
            once = self.engine_once
        else:
            self.distributed = self.wl.distributed_runs(self.scenario, self.seeds)
            once = self.centralized_once
        try:
            self.record(0, None, *once(0, audit=True)[1:])  # warm-up, untimed
            self.timed_loop(once)
            if trace:
                self.traced_pairs(once)
        finally:
            if self.engine:
                sspsim.cli.run_engine = self.capture.fn

    def run_setup(self) -> None:
        """Set up at least three times and, within 100 times, for at least a second; report medians."""
        setups, raws, generates = [], [], []
        while len(setups) < 3 or (sum(raws) < 1.0 and len(setups) < 100):
            (self.scenario, _, generate_s), (raw, scaled) = self.clock.measure(
                lambda: self.wl.setup(self.w, self.scenario_seed, self.scenario_path)
            )
            setups.append(scaled)
            raws.append(raw)
            generates.append(generate_s)
        self.setup_s = statistics.median(setups)
        self.raw_setup_s = statistics.median(raws)
        self.generate_s = statistics.median(generates)

    def record(self, key: int, times: tuple | None, problems: list[str], outcome: dict | None) -> None:
        """Book one operation; a gate finding or a changed digest fails it."""
        self.attempted += 1
        if outcome is not None:
            first = self.outcomes.setdefault(key, outcome)
            if first["digests"] != outcome["digests"]:
                problems = problems + [f"run seed {self.seeds[key]}: digests differ between repetitions"]
        if problems:
            self.failed += 1
            self.failures.extend(problems)
        elif times is not None:
            self.raw_samples.setdefault(key, []).append(times[0])
            self.samples.setdefault(key, []).append(times[1])

    def timed(self, tracer, patches, op):
        """Run ``op`` and return (result, (raw, scaled) seconds); with a tracer, inside its layer spans."""
        gc.collect()
        if tracer is None:
            return self.clock.measure(op)

        def traced_op():
            with tracer.installed(patches), tracer.span("bench.op"):
                return op()

        return self.clock.measure(traced_op)

    def engine_once(self, key: int, audit: bool = False, tracer=None):
        wl = self.wl
        run_seed = self.seeds[key]
        out = wl.fresh_dir(str(self.work / "out"))
        self.capture.calls.clear()
        try:
            code, times = self.timed(
                tracer,
                wl.engine_patches(self.partner_tol),
                lambda: self.cli_main(tracer, run_seed, out),
            )
            call = self.capture.calls[-1] if self.capture.calls else None
            problems = wl.engine_gate(self.w, self.scenario, code, call, self.audit_s if audit else None)
            if call is not None:
                self.anm_edges = len(call[0][1].edges)
            return times, problems, wl.engine_outcome(out) if code == 0 else None
        except Exception:
            traceback.print_exc()
            return None, [f"run seed {run_seed}: exception"], None
        finally:
            self.capture.calls.clear()

    def cli_main(self, tracer, run_seed: int, out: str) -> int:
        if tracer is None:
            return self.wl.engine_op(self.w, self.scenario_path, out, run_seed)
        with tracer.span("cli"):
            return self.wl.engine_op(self.w, self.scenario_path, out, run_seed)

    def centralized_once(self, key: int, audit: bool = False, tracer=None):
        wl = self.wl
        try:
            result, times = self.timed(
                tracer, wl.centralized_patches(self.partner_tol), lambda: wl.centralized_op(self.scenario)
            )
            problems = wl.centralized_gate(self.w, self.scenario, result, self.distributed)
            return times, problems, wl.centralized_outcome(result)
        except Exception:
            traceback.print_exc()
            return None, ["centralized: exception"], None

    def timed_loop(self, once) -> None:
        """Cycle over the inputs until every one has run and the time is up."""
        keys = range(len(self.seeds)) if self.engine else range(1)
        started = time.perf_counter()
        k = 0
        while k < len(keys) or time.perf_counter() - started < self.args.seconds:
            key = keys[k % len(keys)]
            self.record(key, *once(key))
            k += 1

    def traced_pairs(self, once) -> None:
        """Alternate untraced and traced runs of the first input; the medians give the overhead."""
        for _ in range(self.TRACED_PAIRS):
            for tracer in (None, Tracer()):
                times, problems, outcome = once(0, tracer=tracer)
                self.record(0, None, problems, outcome)
                if problems or times is None:
                    continue
                if tracer is None:
                    self.untraced_s.append(times[1])
                else:
                    self.traced_s.append(times[1])
                    self.tracers.append(tracer)

    # --- metrics ---

    @staticmethod
    def wall_s(samples: dict[int, list[float]]) -> float:
        """Mean over inputs of each input's median: the inputs do unequal work."""
        return statistics.fmean(statistics.median(v) for v in samples.values())

    def end_to_end(self) -> dict:
        if self.engine:
            finals = [o["final_utility_kwh"] for o in self.outcomes.values()]
            messages = [o["wire_messages"] for o in self.outcomes.values()]
        else:
            finals = [self.outcomes[0]["final_utility_kwh"]]
            messages = [len(dist.log) for _, dist in self.distributed]
        return {
            "setup_s": (self.setup_s, "s"),
            "wall_s": (self.wall_s(self.samples), "s"),
            "final_utility_kwh": (statistics.fmean(finals), "kWh"),
            "wire_messages": (statistics.fmean(messages), "count"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    def per_layer(self) -> dict:
        """Median over the traced runs of each layer metric, plus set-up, gate and overhead figures."""
        runs = [per_layer(tracer) for tracer in self.tracers]
        out = {name: statistics.median(run[name] for run in runs) for name in runs[0]}
        first = self.outcomes[0]
        traced = statistics.median(self.traced_s)
        out.update({
            "scenario.generate_s": self.generate_s,
            "coalition.groups": first["coalitions"] if self.engine else 0,
            "coalition.edges": self.anm_edges if self.engine else 0,
            "protocol.audit_s": self.audit_s[0] if self.audit_s else 0.0,
            "cli.artifact_bytes": first["artifact_bytes"] if self.engine else 0,
            "trace.traced_wall_s": traced,
            "trace.overhead_s": traced - statistics.median(self.untraced_s),
        })
        return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sspsim" / "__init__.py").is_file():
        print(f"no sspsim sources under {SRC}: run from the root of an sspsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sspsim
    import sspsim.matching

    if not Path(sspsim.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"imported sspsim from {sspsim.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads as wl

    workload = wl.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    work = OUT_DIR / f"work-{workload.name}-{os.getpid()}"
    bench = Bench(wl, workload, args, work, sspsim.matching.RESIDUAL_TOL)
    try:
        wl.fresh_dir(str(work))
        bench.run(trace=bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not bench.samples or (args.trace and not bench.tracers):
        bench.failures.append("no operation completed")
    correct = not bench.failures
    metrics = {}
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "scenario_seed": bench.scenario_seed,
        "run_seeds": bench.seeds,
        "env": environment(),
        "samples": {str(bench.seeds[k]): v for k, v in bench.samples.items()},
        "raw_samples": {str(bench.seeds[k]): v for k, v in bench.raw_samples.items()},
        "probes_s": bench.clock.probes,
        "digests": {str(bench.seeds[k]): o["digests"] for k, o in bench.outcomes.items()},
        "failures": bench.failures,
    }
    if correct and args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)} for name, value in bench.per_layer().items()}
        report["spans"] = [tracer.dump() for tracer in bench.tracers]
    elif correct:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in bench.end_to_end().items()}
        report["as_measured"] = {"setup_s": bench.raw_setup_s, "wall_s": bench.wall_s(bench.raw_samples)}
        report["timed_ops"] = {
            "reference_speed": quartiles([s for v in bench.samples.values() for s in v]),
            "as_measured": quartiles([s for v in bench.raw_samples.values() for s in v]),
        }
    report["metrics"] = metrics
    with open(OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)

    print("env:", json.dumps(report["env"]))
    print(f"workload {workload.name}: scenario seed {bench.scenario_seed}, run seeds {bench.seeds}")
    if "timed_ops" in report:
        print("timed ops:", json.dumps(report["timed_ops"]))
        print("as measured, without host-speed rescaling:", json.dumps(report["as_measured"]))
    for seed, digests in report["digests"].items():
        print(f"digests run seed {seed}:", json.dumps(digests))
    for problem in bench.failures[:20]:
        print("GATE FAILURE:", problem)
    print(json.dumps({"correct": correct, "attempted": bench.attempted, "failed": bench.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
