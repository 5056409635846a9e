"""The segment worker process: a split run on two CPUs solves part of every
round in one forked worker.  Its outcome is bit-identical to solving every
segment in this process; mono and one-CPU runs start no process, nor do
runs in a daemonic process or when the fork is refused; deadlines
cut the worker's solves too; a dead worker is an error, never a partial
report, and is replaced by the next run; a worker exception surfaces here
with its type and message."""

import os
import signal
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from trajsplit import admm
from trajsplit.admm import SplitConfig, _stop_worker, run
from trajsplit.cli import bundled_scenario_dir
from trajsplit.errors import ConfigError, EvaluatorError, WorkerError
from trajsplit.geometry import ConvexPolygon
from trajsplit.scenario_io import load_scenario

# seconds and counts of factorizations depend on where the segments ran
PER_PROCESS = {"wall_seconds_total", "wall_seconds_primal", "wall_seconds_consensus", "iteration_seconds",
               "factorizations"}


def bundled(name):
    return load_scenario(bundled_scenario_dir() / name)


def hexagon_arm():
    scenario = bundled("arm_three_link.yaml")
    hexagons = []
    for circle, phase in zip(scenario.obstacles, (0.2, 0.9)):
        angles = phase + np.arange(6) * np.pi / 3.0
        hexagons.append(ConvexPolygon(circle.center + circle.radius * np.stack([np.cos(angles), np.sin(angles)], 1)))
    return replace(scenario, obstacles=tuple(hexagons))


CASES = {
    "circle_blocked split4": (lambda: bundled("circle_blocked.yaml"), SplitConfig(num_splits=4, rho=2.0)),
    "arm_two_link split2": (lambda: bundled("arm_two_link.yaml"), SplitConfig(num_splits=2)),
    "arm_three_link hexagons split3": (hexagon_arm, SplitConfig(num_splits=3)),
}


def outcome(report) -> dict:
    """Every report field that does not depend on where segments ran, the
    trajectory as bytes."""
    out = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in PER_PROCESS}
    traj = out.pop("trajectory")
    out["trajectory"] = (traj.positions().tobytes(), traj.velocities().tobytes(),
                         traj.accelerations().tobytes(), traj.dt)
    return out


def refuse_fork(monkeypatch):
    def refuse():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", refuse)


@pytest.fixture
def one_cpu_outcomes(monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        return {name: run(make(), config) for name, (make, config) in CASES.items()}


def test_pooled_runs_match_one_cpu_runs(one_cpu_outcomes, fresh_worker):
    for name, (make, config) in CASES.items():
        pooled = run(make(), config)
        assert admm._worker is not None and admm._worker.process.is_alive(), name
        assert outcome(pooled) == outcome(one_cpu_outcomes[name]), name
    # rounds after the first carry consensus state to the worker
    assert one_cpu_outcomes["circle_blocked split4"].iterations > 1


def test_mono_run_starts_no_process(two_cpus, monkeypatch):
    _stop_worker()
    refuse_fork(monkeypatch)
    report = run(bundled("circle_blocked.yaml"), SplitConfig(num_splits=0))
    assert report.converged and admm._worker is None


def test_one_cpu_run_starts_no_process(one_cpu, monkeypatch):
    _stop_worker()
    refuse_fork(monkeypatch)
    report = run(bundled("circle_blocked.yaml"), SplitConfig(num_splits=4, rho=2.0))
    assert report.converged and admm._worker is None


def test_busy_worker_leaves_the_run_here(two_cpus, monkeypatch):
    # another thread's run holds the worker: this run solves every segment itself
    _stop_worker()
    refuse_fork(monkeypatch)
    scenario, config = CASES["circle_blocked split4"][0](), CASES["circle_blocked split4"][1]
    with admm._worker_lock:
        report = run(scenario, config)
    assert report.converged and admm._worker is None


def test_mono_run_loads_neither_worker_nor_multiprocessing():
    src = Path(admm.__file__).resolve().parents[1]
    code = ("import sys; from trajsplit import SplitConfig, run; from trajsplit.cli import bundled_scenario_dir;"
            "from trajsplit.scenario_io import load_scenario;"
            "run(load_scenario(bundled_scenario_dir() / 'circle_blocked.yaml'), SplitConfig(num_splits=0));"
            "print('multiprocessing' in sys.modules, 'trajsplit.worker' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False False"


def test_zero_deadline_cuts_the_worker_segments_too(fresh_worker):
    scenario = bundled("circle_blocked.yaml")
    # without a deadline, every segment's first solve converges
    free = run(scenario, SplitConfig(num_splits=4, rho=2.0, max_admm_iterations=1))
    assert free.failed_segments == ()
    report = run(scenario, SplitConfig(num_splits=4, rho=2.0), deadline_seconds=0.0)
    assert report.deadline_reached and not report.converged
    assert report.iterations == 1
    # each solve stopped after its first SCP iteration, the worker's 3 and 4 included
    assert report.failed_segments == (0, 1, 2, 3, 4)
    assert report.nonconverged_segment_solves == 5


def test_killed_worker_is_replaced(fresh_worker):
    make, config = CASES["arm_two_link split2"]
    before = run(make(), config)
    old = admm._worker.process
    os.kill(old.pid, signal.SIGKILL)
    old.join(timeout=10)
    assert not old.is_alive()
    after = run(make(), config)
    assert admm._worker.process.pid != old.pid
    assert outcome(after) == outcome(before)


def test_worker_death_during_a_run_raises(fresh_worker, monkeypatch):
    make, config = CASES["circle_blocked split4"]
    before = run(make(), config)
    pid = admm._worker.process.pid
    real = admm.primal_update

    def kill_worker(*args, **kwargs):
        # the worker is solving its share of this round
        os.kill(pid, signal.SIGKILL)
        return real(*args, **kwargs)

    monkeypatch.setattr(admm, "primal_update", kill_worker)
    with pytest.raises(WorkerError, match=f"pid {pid}"):
        run(make(), config)
    monkeypatch.setattr(admm, "primal_update", real)
    after = run(make(), config)
    assert admm._worker.process.pid != pid
    assert outcome(after) == outcome(before)


def test_forked_child_runs_with_its_own_worker(fresh_worker):
    # a process forked after a pooled run by a bare os.fork must not talk to
    # its parent's worker
    make, config = CASES["circle_blocked split4"]
    expected = outcome(run(make(), config))
    parent_worker = admm._worker.process.pid
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ok = admm._worker is None and outcome(run(make(), config)) == expected
            code = 0 if ok and admm._worker.process.pid != parent_worker else 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert admm._worker.process.pid == parent_worker
    assert outcome(run(make(), config)) == expected


def pool_task(name):
    make, config = CASES[name]
    return outcome(run(make(), config)), admm._worker is None


def test_split_run_in_a_pool_worker_solves_there(one_cpu_outcomes, fresh_worker):
    # a multiprocessing Pool's workers are daemonic and may start no process
    import multiprocessing

    with multiprocessing.get_context("fork").Pool(1) as pool:
        for name in CASES:
            got, no_worker = pool.apply(pool_task, (name,))
            assert no_worker, name
            assert got == outcome(one_cpu_outcomes[name]), name


def test_refused_fork_leaves_the_run_here(one_cpu_outcomes, fresh_worker, monkeypatch):
    def refuse():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refuse)
    make, config = CASES["circle_blocked split4"]
    assert outcome(run(make(), config)) == outcome(one_cpu_outcomes["circle_blocked split4"])
    assert admm._worker is None
    # the run gave the worker lock back
    assert admm._worker_lock.acquire(blocking=False)
    admm._worker_lock.release()


@pytest.mark.parametrize("error", [EvaluatorError, ConfigError])
def test_worker_exception_surfaces_with_its_type(fresh_worker, monkeypatch, error):
    parent = os.getpid()
    real = admm.solve

    def failing(problem, options=None):
        if os.getpid() != parent:
            raise error("raised in the worker")
        return real(problem, options)

    # patched before the run forks the worker, so the worker runs it too
    monkeypatch.setattr(admm, "solve", failing)
    with pytest.raises(error, match="^raised in the worker$"):
        run(bundled("circle_blocked.yaml"), SplitConfig(num_splits=4, rho=2.0))
    assert admm._worker is None
