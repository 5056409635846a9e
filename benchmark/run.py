"""trajsplit benchmark: closed-loop solves through the public library API.

    python3 benchmark/run.py --workload point-horizon --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 0

One process solves one problem after another (``scenario_io.load_scenario``
then ``admm.run``), repeating whole passes over the workload until
``--seconds`` have gone by.  Every solve's output is checked against
``oracle.py``; a failed check stops the run with exit code 1, naming the
solve and the check.  A solve counts as failed when the program reports it
unsolved, that is when ``trajsplit solve`` would exit non-zero.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics of
the traced ones.  The last line of standard output is one JSON object; a
record with machine facts and every solve goes to benchmark/out/results/.
"""

import os

# BLAS stays single-threaded and the segment pool at its default, as for a
# user running the planner; both are fixed before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("TRAJSPLIT_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7
SUBPROCESS_TIMEOUT = 170


class BenchmarkError(Exception):
    """The benchmark cannot run or a solve's output failed a check."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read {path}: {exc}") from exc


def import_program():
    """Import trajsplit from the checkout's src/, never from elsewhere."""
    if not (SRC / "trajsplit" / "__init__.py").is_file():
        raise BenchmarkError(f"no trajsplit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import numpy
    import trajsplit
    from trajsplit import admm, scenario_io

    if not Path(trajsplit.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"trajsplit was imported from {trajsplit.__file__}, not {SRC}")
    return numpy, admm, scenario_io


def setup_seconds(paths: list[Path]) -> list[float]:
    """Cold import plus scenario loading, each in a fresh interpreter."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, paths)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def machine_facts(numpy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "trajsplit_threads": os.environ.get("TRAJSPLIT_THREADS", "default (cpu count)"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run_pass(workload, scenarios, admm, scenario_io, tracer=None) -> dict:
    """Solve every (problem, planner) pair once, in sequence, then check each."""
    try:
        if tracer is not None:
            tracer.reset()
            tracing.trace_layers(tracer)
            scenarios = {p.name: scenario_io.load_scenario(p.path) for p in workload.problems}
        reports, times = [], []
        start = time.perf_counter()
        for problem, planner in workload.solves():
            config = admm.SplitConfig(num_splits=planner.num_splits, rho=planner.rho, eps=planner.eps)
            t0 = time.perf_counter()
            report = admm.run(scenarios[problem.name], config)
            times.append(time.perf_counter() - t0)
            reports.append((report, config.samples_per_edge))
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()

    solves, split_residual = [], 0.0
    for (problem, planner), (report, samples), seconds in zip(workload.solves(), reports, times):
        label = f"{problem.name}/{planner.name}"
        traj = report.trajectory
        try:
            residual = oracle.check_solve(
                problem.data,
                planner.num_splits == 0,
                traj.positions(),
                traj.velocities(),
                traj.accelerations(),
                report.objective,
                report.collision_free,
                report.split_indices,
                samples,
            )
        except oracle.CheckFailed as exc:
            raise BenchmarkError(f"workload {workload.name}, solve {label}: check {exc}") from exc
        split_residual = max(split_residual, residual)
        solves.append({
            "solve": label,
            "seconds": seconds,
            "rounds": report.iterations,
            "converged": report.converged,
            "collision_free": report.collision_free,
            "failed": not (report.converged and report.collision_free),
        })
    result = {"traced": tracer is not None, "wall_s": wall, "solves": solves}
    if tracer is not None:
        layers = tracing.layer_metrics(tracer.totals())
        layers["admm.rounds"] = float(sum(s["rounds"] for s in solves))
        layers["admm.split_dynamics_residual"] = split_residual
        result["layers"] = layers
    return result


def measure(args, spec: dict) -> dict:
    numpy, admm, scenario_io = import_program()
    workload = inputs.generate(
        args.workload, args.seed, SRC / "trajsplit" / "scenarios",
        OUT / "inputs" / f"{args.workload}-seed{args.seed}",
    )
    paths = [p.path for p in workload.problems]
    setup = [] if args.trace else setup_seconds(paths)
    scenarios = {p.name: scenario_io.load_scenario(p.path) for p in workload.problems}

    tracer = tracing.Tracer() if args.trace else None
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(workload, scenarios, admm, scenario_io))
        if tracer is not None:
            passes.append(run_pass(workload, scenarios, admm, scenario_io, tracer))

    plain = [p for p in passes if not p["traced"]]
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            name: statistics.median(p["layers"][name] for p in traced) for name in traced[0]["layers"]
        }
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
        )
        wanted = spec["per_layer"]
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(p["wall_s"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        raise BenchmarkError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")

    all_solves = [s for p in passes for s in p["solves"]]
    plain_solves = [s["seconds"] for p in plain for s in p["solves"]]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_facts(numpy),
        "source_digest": inputs.SOURCE_DIGEST,
        "setup_samples_s": setup,
        "solve_s_median": statistics.median(plain_solves),
        "passes": passes,
        "attempted": len(all_solves),
        "failed": sum(s["failed"] for s in all_solves),
        "metrics": {
            m["name"]: {"value": int(metrics[m["name"]]) if m["unit"] == "count" else metrics[m["name"]],
                        "unit": m["unit"]}
            for m in wanted
        },
    }


def print_record(record: dict) -> None:
    first = record["passes"][0]
    print(f"workload {record['workload']}  seed {record['seed']}  passes {len(record['passes'])}")
    print(f"{'solve':<28} {'seconds':>9} {'rounds':>7}  status")
    for s in first["solves"]:
        status = "ok" if not s["failed"] else ("not converged" if not s["converged"] else "collision")
        print(f"{s['solve']:<28} {s['seconds']:>9.3f} {s['rounds']:>7d}  {status}")
    print(f"{'solve_s_median (untraced, not bounded)':<32} {record['solve_s_median']:>14.6g} s")
    for name, m in record["metrics"].items():
        print(f"{name:<32} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted {record['attempted']}  failed {record['failed']}")


def run_all(args) -> int:
    """Every workload in its own process, then one summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in inputs.WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        print(done.stdout, end="")
        if done.returncode != 0:
            print(done.stderr, end="", file=sys.stderr)
            return done.returncode
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        record = measure(args, load_spec())
    except (BenchmarkError, RuntimeError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print_record(record)
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": True,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
