"""`verify all` on several lanes: the CLI process and forked workers.

Every test pins the number of usable CPUs, so each runs the same lanes on
any host with `os.fork`.
"""
import errno
import json
import os
import pathlib
import select
import subprocess
import sys
import time

import pytest

from lcqft import serialize, suites
from lcqft.cli import main
from lcqft.errors import NotSymplectic
from lcqft.suites import GOLDEN_CONFIGS, RunConfig, run_suite

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="workers are forked")

MASSIVE_ALL = ["verify", "all", "--spectrum", "1:2", "--sites", "8",
               "--seed", "7"]
ROOT = pathlib.Path(__file__).resolve().parent.parent


def _src_env() -> dict:
    """The environment of a child interpreter that imports lcqft from
    ROOT/src ahead of any PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)),
                        raising=False)


def _text(entry) -> str:
    return serialize.dumps(serialize.strip_timings(entry))


def _no_children():
    # every worker has been reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def in_worker(monkeypatch):
    """install(body) runs `body` as the gauge suite in a forked worker on two
    lanes: ccr, which the CLI process runs itself, waits until gauge has
    started elsewhere."""
    started, signal_start = os.pipe()
    ccr, cli_pid = suites.SUITE_FUNCS["ccr"], os.getpid()

    def first(config):
        assert select.select([started], [], [], 60)[0], "no worker took gauge"
        return ccr(config)

    def install(body):
        def gauge(config):
            assert os.getpid() != cli_pid
            os.write(signal_start, b"x")
            return body(config)

        _cpus(monkeypatch, 2)
        monkeypatch.setattr(suites, "SUITE_FUNCS", {
            **suites.SUITE_FUNCS, "ccr": first, "gauge": gauge})

    yield install
    os.close(started)
    os.close(signal_start)


@pytest.mark.parametrize("name", ["massive-all", "massless-all"])
def test_each_suite_equals_its_run_alone(name, monkeypatch):
    kwargs = dict(GOLDEN_CONFIGS)[name]
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def no_fork():
        raise AssertionError("a single suite forked a worker")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", counted_fork)
    together = run_suite(RunConfig(**kwargs))
    assert forks == [os.getpid()]
    monkeypatch.setattr(os, "fork", no_fork)
    assert [entry["name"] for entry in together["suites"]] \
        == list(suites.SUITE_NAMES)
    for entry in together["suites"]:
        alone = run_suite(RunConfig(**{**kwargs, "suite": entry["name"]}))
        assert [_text(e) for e in alone["suites"]] == [_text(entry)]
    _no_children()


def test_cli_output_is_the_same_on_one_and_two_lanes(monkeypatch, capfd):
    # workers print nothing: stdout and stderr are the serial run's
    printed = []
    for cpus in (1, 2):
        _cpus(monkeypatch, cpus)
        assert main(MASSIVE_ALL) == 0
        out, err = capfd.readouterr()
        printed.append((_text(json.loads(out)), err))
    assert printed[0] == printed[1]
    _no_children()


@pytest.mark.parametrize("exc, code, line", [
    (NotSymplectic("rce moved sigma by 1e-3"), 1,
     "error: rce moved sigma by 1e-3"),
    (MemoryError("Unable to allocate 2.98 GiB"), 2,
     "config error: 8 sites x 16 steps does not fit in memory: "
     "Unable to allocate 2.98 GiB")])
def test_an_exception_in_a_worker_ends_as_in_a_serial_run(
        exc, code, line, in_worker, monkeypatch, tmp_path, capsys):
    def fail(config):
        raise exc

    out = tmp_path / "report.json"
    argv = MASSIVE_ALL + ["--out", str(out)]
    with monkeypatch.context() as serial:
        _cpus(serial, 1)
        serial.setitem(suites.SUITE_FUNCS, "gauge", fail)
        assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == [line]
    in_worker(fail)
    assert main(argv) == code
    assert capsys.readouterr().err.splitlines() == [line]
    assert not out.exists()
    _no_children()


def test_the_first_failing_suite_in_order_is_raised(in_worker, monkeypatch,
                                                    capsys):
    # rce fails in the CLI process before gauge, earlier in the report,
    # fails in the worker: gauge's error is the one a serial run gives
    rce_failed, signal_failure = os.pipe()

    def gauge(config):
        select.select([rce_failed], [], [], 60)
        raise NotSymplectic("gauge")

    def rce(config):
        os.write(signal_failure, b"x")
        raise NotSymplectic("rce")

    in_worker(gauge)
    monkeypatch.setitem(suites.SUITE_FUNCS, "rce", rce)
    try:
        assert main(MASSIVE_ALL) == 1
    finally:
        os.close(rce_failed)
        os.close(signal_failure)
    assert capsys.readouterr().err.splitlines() == ["error: gauge"]
    _no_children()


def test_a_worker_that_ends_without_a_result_is_one_error_line(in_worker,
                                                              capsys):
    in_worker(lambda config: os._exit(0))
    assert main(MASSIVE_ALL) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: suite gauge ended without a result"]
    _no_children()


def test_an_interrupt_kills_the_workers(in_worker, monkeypatch):
    in_worker(lambda config: time.sleep(30))
    first = suites.SUITE_FUNCS["ccr"]

    def interrupted(config):
        first(config)  # returns once gauge runs in the worker
        raise KeyboardInterrupt

    monkeypatch.setitem(suites.SUITE_FUNCS, "ccr", interrupted)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        main(MASSIVE_ALL)
    assert time.monotonic() - t0 < 15
    _no_children()


def test_a_stop_at_the_first_suite_reaps_the_workers(monkeypatch):
    # the benchmark's set-up probe raises its own exception at the CLI
    # process's first suite call, which it makes through SUITE_FUNCS
    class Stop(Exception):
        pass

    def stop(config):
        raise Stop

    _cpus(monkeypatch, 2)
    monkeypatch.setitem(suites.SUITE_FUNCS, "ccr", stop)
    with pytest.raises(Stop):
        main(MASSIVE_ALL)
    _no_children()


def test_a_failed_fork_leaves_the_suites_to_the_cli_process(monkeypatch):
    # a sandbox out of process ids refuses the fork: the report is unchanged
    attempts = []

    def no_fork():
        attempts.append(1)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    config = dict(GOLDEN_CONFIGS)["massive-all"]
    _cpus(monkeypatch, 1)
    serial = run_suite(RunConfig(**config))
    _cpus(monkeypatch, 6)
    monkeypatch.setattr(os, "fork", no_fork)
    assert _text(run_suite(RunConfig(**config))) == _text(serial)
    assert attempts == [1]


def test_the_benchmark_set_up_probe_stops_at_the_first_suite(tmp_path):
    stats = tmp_path / "stats.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "setup",
         str(stats), *MASSIVE_ALL], cwd=ROOT, env=_src_env(),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == proc.stderr == ""
    assert json.loads(stats.read_text())["first_call"] is not None


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads the worker's state in /proc")
def test_a_worker_whose_cli_process_died_takes_no_further_suite(tmp_path):
    # the CLI process is SIGKILLed (as the benchmark does on a timeout)
    # while gauge runs in the worker, which then takes nothing more
    worker, later = tmp_path / "worker", tmp_path / "later"
    script = f"""
import os, signal, time
from lcqft import cli, suites
started, signal_start = os.pipe()
cli_pid = os.getpid()
def first(config):
    os.read(started, 1)
    os.kill(cli_pid, signal.SIGKILL)
def gauge(config):
    open({str(worker)!r}, "w").write(str(os.getpid()))
    os.write(signal_start, b"x")
    while os.getppid() == cli_pid:
        time.sleep(0.01)
def later(config):
    open({str(later)!r}, "w").write("ran")
suites.SUITE_FUNCS.update(ccr=first, gauge=gauge, rce=later, state=later,
                          observables=later, classify=later)
os.sched_getaffinity = lambda pid: {{0, 1}}
cli.main({MASSIVE_ALL!r})
"""
    proc = subprocess.run([sys.executable, "-c", script], env=_src_env(),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL, timeout=300)
    assert proc.returncode == -9
    stat = pathlib.Path(f"/proc/{worker.read_text()}/stat")
    deadline = time.monotonic() + 60
    # gone, or a zombie waiting for its new parent to reap it
    while stat.exists() and stat.read_text().rsplit(")", 1)[1].split()[0] \
            != "Z":
        assert time.monotonic() < deadline, "the worker outlived its parent"
        time.sleep(0.05)
    assert not later.exists()


def test_a_worker_whose_parent_is_gone_takes_nothing():
    queue, feed = os.pipe()
    os.write(feed, bytes([1, 2]))
    os.close(feed)
    try:
        # no process is its own parent
        assert list(suites._take(queue, os.getpid())) == []
        assert list(suites._take(queue, os.getppid())) == [1, 2]
    finally:
        os.close(queue)
