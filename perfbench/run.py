"""opticat's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it uses ``src/opticat`` there; nothing
needs installing).  Workloads are described in ``workloads.py``.

``--trace 0`` is the timed run.  One client in a closed loop starts one
``opticat`` (or ``python -m opticat.laws``) process at a time, waits for it
with ``os.wait4`` and checks its exit code, stdout and stderr against the
independent reference in ``reference.py``.  It prints the end-to-end metrics.

``--trace 1`` is the traced in-process run of ``tracing.py``; it prints the
per-layer metrics.

Both print a readable report and then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
every call that broke a rule of ``reference.judge``, and ``correct`` is true
when none did.

The ROADMAP item-2 inputs (see ``workloads.item2_probes``) fail until item 2
lands.  They run once per run, untimed and outside ``attempted``/``failed``:
after the timed loop of ``cli_small``, and in every traced run, where their
failure count is the per-layer metric ``cli.item2_failed``.
"""

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402
from reference import judge, judge_verdict  # noqa: E402
from workloads import CLI, HEAVY, LAWS, LIGHT  # noqa: E402

SETUP_REPS = 5
CALL_TIMEOUT_S = 60
WORKDIR = ".perfbench_work"
CLI_MAIN = "import sys; from opticat.cli import main; sys.exit(main())"


def log(line):
    print(line, flush=True)


def child_env(src):
    """The environment of every child: no inherited PYTHON* settings,
    opticat from this checkout, UTF-8 strict standard streams."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = src
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def program_argv(python, call):
    if call.program == CLI:
        return [python, "-c", CLI_MAIN, *call.args]
    if call.program == LAWS:
        return [python, "-m", "opticat.laws"]
    return [python, "-c", "import opticat.laws"]


def _kill(pid):
    def handler(signum, frame):
        os.kill(pid, signal.SIGKILL)
    return handler


def _drain(proc):
    """Read the child's stdout and stderr pipes to EOF, as a consumer of
    its output would."""
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            for key, _ in sel.select():
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
    return [b"".join(chunks[p]).decode("utf-8", errors="replace")
            for p in (proc.stdout, proc.stderr)]


def _cpu_split():
    """(child CPUs, client CPUs): children get one CPU of their own and the
    client the rest, which keeps the client's work and CPU migrations out of
    the children's times.  None with a single CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[-1]}, set(cpus[:-1])) if len(cpus) > 1 else None


CPU_SPLIT = _cpu_split()


def spawn(argv, stdin_path, env):
    """One child from spawn to exit: wall seconds, exit code, stdout,
    stderr and its rusage."""
    with open(stdin_path or os.devnull, "rb") as fin:
        t0 = time.perf_counter()
        if CPU_SPLIT:
            os.sched_setaffinity(0, CPU_SPLIT[0])  # inherited by the child
        try:
            proc = subprocess.Popen(argv, stdin=fin, stdout=subprocess.PIPE,
                                    stderr=subprocess.PIPE, env=env)
        finally:
            if CPU_SPLIT:
                os.sched_setaffinity(0, CPU_SPLIT[1])
        signal.signal(signal.SIGALRM, _kill(proc.pid))
        signal.alarm(CALL_TIMEOUT_S)
        try:
            with proc.stdout, proc.stderr:
                out, err = _drain(proc)
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, out, err, usage


def required_laws(python, env):
    proc = subprocess.run(
        [python, "-c", "import json, opticat.laws as L; print(json.dumps(list(L.REQUIRED_LAWS)))"],
        env=env, capture_output=True, text=True, timeout=CALL_TIMEOUT_S, check=True,
    )
    return json.loads(proc.stdout)


def _input_size(call):
    return len(" ".join(call.args)) + (os.path.getsize(call.doc) if call.doc else 0)


def setup(workload, seed, python, env, workdir):
    """Generate and write the inputs, then warm up with one untimed call of
    each class (bytecode caches, page cache).  The warm-up call is the
    class's smallest, so that its cost does not depend on the seed."""
    calls = workloads.generate(workload, seed, workdir)
    for cls in (LIGHT, HEAVY):
        call = min((c for c in calls if c.cls == cls), key=_input_size)
        spawn(program_argv(python, call), call.doc, env)
    return calls


def check(call, code, out, err, laws):
    if call.program == CLI:
        return judge(call.want, code, out, err)
    if call.program == LAWS:
        return judge_verdict(laws, code, out, err)
    if code != 0 or out or err:
        return f"importing opticat.laws: exit {code}, output {len(out) + len(err)} bytes"
    return None


def timed(calls, seconds, python, env, laws):
    samples = {LIGHT: [], HEAVY: []}
    cpu_ms, peak_kb = [], 0
    failures = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        call = calls[i % len(calls)]
        i += 1
        wall, code, out, err, usage = spawn(program_argv(python, call), call.doc, env)
        samples[call.cls].append(wall * 1e3)
        cpu_ms.append((usage.ru_utime + usage.ru_stime) * 1e3)
        peak_kb = max(peak_kb, usage.ru_maxrss)
        reason = check(call, code, out, err, laws)
        if reason:
            failures.append((call, reason))
    return samples, cpu_ms, peak_kb, i, failures


def _describe(call):
    if call is None:
        return "law suite"
    argv = " ".join(call.args) if call.program == CLI else call.program
    return argv if len(argv) <= 100 else argv[:97] + "..."


def report_failures(label, attempted, failures):
    log(f"{label}: {len(failures)}/{attempted} = {len(failures) / attempted:.4f}")
    for reason, n in Counter(r for _, r in failures).most_common():
        example = next(c for c, r in failures if r == reason)
        log(f"  {n} x {reason}  e.g. {_describe(example)}")


def item2_failed(seed, python, env, workdir):
    """Runs the ROADMAP item-2 probes once, untimed, and returns how many fail."""
    probes = workloads.item2_probes(seed, os.path.join(workdir, "item2"))
    workloads.attach_expected(probes)
    failures = []
    for call in probes:
        _, code, out, err, _ = spawn(program_argv(python, call), call.doc, env)
        reason = judge(call.want, code, out, err)
        if reason:
            failures.append((call, reason))
    report_failures("ROADMAP item-2 probes failing (not in attempted/failed)",
                    len(probes), failures)
    return len(failures)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "opticat", "cli.py")):
        print("perfbench: run from the root of an opticat checkout "
              "(src/opticat/cli.py not found)", file=sys.stderr)
        return 2
    python = sys.executable
    env = child_env(src)
    workdir = os.path.abspath(os.path.join(WORKDIR, args.workload))
    os.makedirs(workdir, exist_ok=True)
    log(f"machine: {platform.platform()}, {os.cpu_count()} cpus, "
        f"python {platform.python_version()}")
    log(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")

    setup_s = []
    for _ in range(1 if args.trace else SETUP_REPS):
        t0 = time.perf_counter()
        calls = setup(args.workload, args.seed, python, env, workdir)
        setup_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workloads.attach_expected(calls)
    laws = required_laws(python, env) if args.workload == "law_suite" else None
    log(f"setup: {len(calls)} distinct calls, {[round(s, 3) for s in setup_s]} s; "
        f"reference answers {time.perf_counter() - t0:.2f} s")

    if args.trace:
        import tracing
        metrics, attempted, failures = tracing.run(
            calls, args.seed, args.seconds, python, env, src, workdir, log)
        units = {name: tracing.unit(name) for name in metrics}
        for name in sorted(metrics):
            log(f"  {name} = {metrics[name]:.6g} {units[name]}")
    else:
        samples, cpu_ms, peak_kb, attempted, failures = timed(
            calls, args.seconds, python, env, laws)
        metrics, units = {"setup_s": statistics.median(setup_s)}, {"setup_s": "s"}
        for cls in (LIGHT, HEAVY):
            values = samples[cls]
            top = stats.tail(values)
            pct, tail_value = top if top else (100.0, max(values, default=0.0))
            metrics[f"{cls}_ms_p50"] = stats.median(values)
            metrics[f"{cls}_ms_tail"] = tail_value
            log(f"{cls}: {len(values)} processes, p50 {metrics[f'{cls}_ms_p50']:.2f} ms, "
                f"tail p{pct:.1f} {tail_value:.2f} ms"
                + ("" if top else " (fewer than 11 samples: the maximum)"))
        metrics["cpu_ms_mean"] = statistics.fmean(cpu_ms)
        metrics["peak_rss_mb"] = peak_kb / 1024
        units.update({k: "ms" for k in metrics if k.endswith(("_p50", "_tail", "_mean"))})
        units["peak_rss_mb"] = "MB"
        for name, value in metrics.items():
            log(f"  {name} = {value:.6g} {units[name]}")

    if args.trace:
        metrics["cli.item2_failed"] = item2_failed(args.seed, python, env, workdir)
        units["cli.item2_failed"] = tracing.unit("cli.item2_failed")
    elif args.workload == "cli_small":
        item2_failed(args.seed, python, env, workdir)
    report_failures("failed_share", attempted, failures)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
