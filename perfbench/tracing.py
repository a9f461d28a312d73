"""The traced in-process run that gives the per-layer numbers.

Spans are recorded from the benchmark's side only: the public names that
``opticat.cli.main`` and ``opticat.laws.run_all_law_checks`` look up in their
module namespaces are replaced by wrappers for the length of one call, and
the optic that ``compile_path`` returns is wrapped so that running it
(``get``/``match`` or the function ``map_optic`` returns) is a span too.
No library file is touched.  A layer's time is its self time: the span's
duration minus the spans nested in it.  Each call is also run untraced, and
the difference is reported as the tracing overhead.
"""

import contextlib
import io
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import stats
import workloads
from reference import PathError, judge, parse_path
from workloads import CLI, HEAVY, LIGHT, cli_call

CLI_MODULES = ("opticat", "base", "families", "functors", "probes", "iso",
               "prof", "encode", "cli")
CHECKERS = (
    "check_lens_laws", "check_prism_laws", "check_adapter_laws",
    "check_setter_laws", "check_achlens_laws", "check_optional_laws",
    "check_functor_laws", "check_optic_family_laws", "check_enhancing_laws",
    "check_functorization_laws", "check_iso_laws", "check_morphism",
)
FIXTURES = ("standard_shapes", "standard_naturals", "shape_pools",
            "standard_morphism_specs")
N_SWEEP = (50, 100, 200, 400, 800)
M_SWEEP = (1_000, 10_000, 100_000)
SWEEP_REPS = 3
STARTUP_REPS = 5
CLI_PER_LAW_RUN = 20


class Tracer:
    """Spans kept in memory: [name, start_ns, end_ns, parent, call_id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.call_id = 0

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.call_id])
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def wrap(self, name, fn, on_result=None):
        def wrapped(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result
        return wrapped

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, call in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "call": call}) + "\n")

    def self_times(self, first=0):
        """Per call id, per span name: total self time in ns and span count,
        for spans recorded since index ``first``."""
        child_ns = defaultdict(int)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child_ns[parent] += end - start
        out = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for i, (name, start, end, _, call) in enumerate(self.spans[first:], first):
            acc = out[call][name]
            acc[0] += end - start - child_ns[i]
            acc[1] += 1
        return out


@contextlib.contextmanager
def patched(module, replacements):
    old = {name: getattr(module, name) for name in replacements}
    for name, value in replacements.items():
        setattr(module, name, value)
    try:
        yield
    finally:
        for name, value in old.items():
            setattr(module, name, value)


class _TracedJson:
    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class _TracedOptic:
    """Forwards to a compiled optic; running it is a families.* span."""

    def __init__(self, optic, tracer):
        self._optic = optic
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._optic, name)
        if name in ("get", "match", "fwd"):
            return self._tracer.wrap("families.read", attr)
        if name == "build":
            return self._tracer.wrap("families.write", attr)
        if name == "map_optic":
            return lambda h: self._tracer.wrap("families.write", attr(h))
        return attr


def _cli_patches(cli, tracer):
    compile_path = tracer.wrap("cli.compile_path", cli.compile_path)

    def traced_compile(path):
        compiled = compile_path(path)
        if isinstance(compiled, tuple) and len(compiled) == 2:
            return _TracedOptic(compiled[0], tracer), compiled[1]
        return compiled

    return {
        "json": _TracedJson(tracer.wrap("cli.load", json.loads)),
        "parse_path": tracer.wrap("cli.parse_path", cli.parse_path),
        "compile_path": traced_compile,
        "render": tracer.wrap("cli.render", cli.render),
    }


def _invoke(cli, call, data):
    """Run ``opticat.cli.main`` in process as the console script would:
    returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    stdin = io.TextIOWrapper(io.BytesIO(data or b""), encoding="utf-8")
    old_stdin = sys.stdin
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(call.args))
            except Exception as exc:  # the CLI would die with a traceback
                print(f"Traceback: {type(exc).__name__}", file=sys.stderr)
                code = 1
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# Startup ------------------------------------------------------------------------

_IMPORTTIME = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def _importtime(python, env, target):
    """Self and cumulative microseconds per opticat module for one
    ``python -X importtime -c 'import target'``."""
    proc = subprocess.run(
        [python, "-X", "importtime", "-c", f"import {target}"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    self_us, total_us = {}, 0
    for m in _IMPORTTIME.finditer(proc.stderr):
        self_t, cum, indent, name = int(m[1]), int(m[2]), m[3], m[4]
        if name == "opticat" or name.startswith("opticat."):
            self_us[name] = self_t
            if len(indent) <= 1:
                total_us += cum
    return self_us, total_us


def startup_metrics(python, env):
    bare = []
    for _ in range(STARTUP_REPS):
        t0 = time.perf_counter()
        subprocess.run([python, "-c", "pass"], env=env, check=True, timeout=60)
        bare.append((time.perf_counter() - t0) * 1e3)
    runs = {t: [_importtime(python, env, t) for _ in range(STARTUP_REPS)]
            for t in ("opticat.cli", "opticat.laws")}
    out = {"startup.bare_python_ms": statistics.median(bare)}
    cli_runs = runs["opticat.cli"]
    out["startup.import_cli_ms"] = statistics.median(t for _, t in cli_runs) / 1e3
    out["startup.import_laws_ms"] = statistics.median(t for _, t in runs["opticat.laws"]) / 1e3
    own = 0.0
    for short in CLI_MODULES:
        name = "opticat" if short == "opticat" else f"opticat.{short}"
        value = statistics.median(s.get(name, 0) for s, _ in cli_runs) / 1e3
        out[f"startup.import.{short}_ms"] = value
        own += value
    out["startup.import.other_ms"] = out["startup.import_cli_ms"] - own
    out["startup.import.laws_ms"] = statistics.median(
        s.get("opticat.laws", 0) for s, _ in runs["opticat.laws"]) / 1e3
    return out


# CLI calls ----------------------------------------------------------------------

class CliLayers:
    """Runs CLI calls in process, traced and untraced, and accumulates the
    per-layer self times per call class."""

    LAYERS = ("cli.load", "cli.parse_path", "cli.compile_path",
              "families.read", "families.write", "cli.render")

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.by_class = {LIGHT: defaultdict(float), HEAVY: defaultdict(float)}
        self.calls = {LIGHT: 0, HEAVY: 0}
        self.untraced_ns = {LIGHT: 0, HEAVY: 0}
        self.sizes = defaultdict(float)
        self.attempted = 0
        self.failures = []

    def traced(self, call, data):
        """One traced call; returns ({span name: self ns}, (code, stdout, stderr))."""
        tracer = self.tracer
        tracer.call_id += 1
        first = len(tracer.spans)
        with patched(self.cli, _cli_patches(self.cli, tracer)):
            with tracer.span("cli.call"):
                result = _invoke(self.cli, call, data)
        per_call = tracer.self_times(first)[tracer.call_id]
        layers = {name: ns for name, (ns, _) in per_call.items()}
        return layers, result

    def run_pair(self, call, data):
        t0 = time.perf_counter_ns()
        untraced = _invoke(self.cli, call, data)
        self.untraced_ns[call.cls] += time.perf_counter_ns() - t0
        layers, traced = self.traced(call, data)
        acc = self.by_class[call.cls]
        for name, ns in layers.items():
            acc[name] += ns
        acc["cli.call.total"] += sum(layers.values())
        self.calls[call.cls] += 1
        self.sizes["doc_bytes"] += (
            os.path.getsize(call.input_file) if call.input_file else len(data or b""))
        self.sizes["out_bytes"] += len(traced[1].encode("utf-8"))
        try:
            self.sizes["path_steps"] += len(parse_path(call.path))
        except PathError:
            pass
        for code, out, err in (untraced, traced):
            self.attempted += 1
            reason = judge(call.want, code, out, err)
            if reason:
                self.failures.append((call, reason))

    def breakdown(self, cls):
        n = self.calls[cls]
        if not n:
            return None
        acc = self.by_class[cls]
        row = {name: acc[name] / n / 1e6 for name in self.LAYERS}
        row["call"] = acc["cli.call.total"] / n / 1e6
        row["remainder"] = acc["cli.call"] / n / 1e6
        row["untraced"] = self.untraced_ns[cls] / n / 1e6
        return row

    def metrics(self):
        n = sum(self.calls.values())
        out = {"cli.calls": n}
        total = defaultdict(float)
        for cls in (LIGHT, HEAVY):
            for name, ns in self.by_class[cls].items():
                total[name] += ns
        per = (lambda name: total[name] / n / 1e6) if n else (lambda name: 0.0)
        for name in ("cli.load", "cli.parse_path", "cli.compile_path", "cli.render"):
            out[f"{name}_ms"] = per(name)
        out["cli.call_ms"] = per("cli.call.total")
        out["cli.remainder_ms"] = per("cli.call")
        for name, cls in (("families.read", LIGHT), ("families.write", HEAVY)):
            k = self.calls[cls]
            out[f"{name}_ms"] = self.by_class[cls][name] / k / 1e6 if k else 0.0
        heavy = self.breakdown(HEAVY)
        out["cli.heavy.call_ms"] = heavy["call"] if heavy else 0.0
        out["cli.heavy.remainder_ms"] = heavy["remainder"] if heavy else 0.0
        for name in ("doc_bytes", "out_bytes", "path_steps"):
            out[f"cli.{name}"] = self.sizes[name] / n if n else 0.0
        untraced = sum(self.untraced_ns.values())
        out["trace.cli_overhead_ms"] = (total["cli.call.total"] - untraced) / n / 1e6 if n else 0.0
        return out


def _sweep_point(layers_run, reps):
    samples = defaultdict(list)
    for _ in range(reps):
        layers, _ = layers_run()
        for name, ns in layers.items():
            samples[name].append(ns / 1e6)
    return {name: statistics.median(v) for name, v in samples.items()}


def sweeps(cli, tracer, seed, workdir):
    """Path-length sweep on deep_path-style inputs and row-count sweep on
    bulk_rows-style inputs; returns the fitted log-log slopes."""
    rng = random.Random(f"sweep:{seed}")
    layers = CliLayers(cli, tracer)
    files = workloads._Files(os.path.join(workdir, "sweep"))
    by_n = []
    for n in N_SWEEP:
        steps = workloads.deep_steps(rng, n)
        data = workloads._chain(rng, steps).encode()
        path = workloads._path_text(steps)
        write = _sweep_point(lambda: layers.traced(cli_call("map", path, "incr"), data), SWEEP_REPS)
        read = _sweep_point(lambda: layers.traced(cli_call("match", path), data), SWEEP_REPS)
        by_n.append((n, write, read))
    by_m = []
    for m in M_SWEEP:
        text, _ = workloads.bulk_text(rng, m)
        doc = files.write(text)
        call = cli_call("map", "each.snd.some.key(v)", "incr", input_file=doc)
        by_m.append((m, _sweep_point(lambda: layers.traced(call, None), SWEEP_REPS)))

    def slope(points, layer):
        return stats.loglog_slope([x for x, _ in points], [p[layer] for _, p in points])

    ns = [(n, w) for n, w, _ in by_n]
    return {
        "cli.compile_path_slope_n": slope(ns, "cli.compile_path"),
        "families.write_slope_n": slope(ns, "families.write"),
        "families.read_slope_n": slope([(n, r) for n, _, r in by_n], "families.read"),
        "cli.load_slope_m": slope(by_m, "cli.load"),
        "families.write_slope_m": slope(by_m, "families.write"),
        "cli.render_slope_m": slope(by_m, "cli.render"),
    }, by_n, by_m


# Law suite ----------------------------------------------------------------------

class LawLayers:
    def __init__(self, laws, iso, tracer):
        self.laws, self.iso, self.tracer = laws, iso, tracer
        self.totals = defaultdict(float)
        self.cases = defaultdict(int)
        self.counts = defaultdict(int)
        self.runs = 0
        self.untraced_ns = 0
        self.attempted = 0
        self.failures = []

    def _patches(self):
        tracer, laws = self.tracer, self.laws

        def counter(name):
            def on_result(result):
                reports = [result] if hasattr(result, "cases") else result
                self.cases[name] += sum(r.cases for r in reports)
            return on_result

        out = {name: tracer.wrap(f"laws.{name}", getattr(laws, name), counter(name))
               for name in CHECKERS if hasattr(laws, name)}
        for name in dir(laws):
            if name in FIXTURES or name.endswith("_fixture") or name.startswith("gen_"):
                out[name] = tracer.wrap("laws.fixtures", getattr(laws, name))
        out["maps_agree"] = tracer.wrap("probes.maps_agree", laws.maps_agree)
        out["observational_eq"] = tracer.wrap("iso.observational_eq", laws.observational_eq)
        return out

    def _verdict(self, reports):
        self.attempted += 1
        names = {r.law for r in reports}
        failing = [r.law for r in reports if not r.passed]
        if names != set(self.laws.REQUIRED_LAWS):
            self.failures.append((None, "law set differs from REQUIRED_LAWS"))
        elif failing:
            self.failures.append((None, f"{len(failing)} laws not PASS"))

    def run_pair(self):
        t0 = time.perf_counter_ns()
        self._verdict(self.laws.run_all_law_checks())
        self.untraced_ns += time.perf_counter_ns() - t0
        tracer = self.tracer
        tracer.call_id += 1
        first = len(tracer.spans)
        with patched(self.laws, self._patches()), patched(
            self.iso, {"maps_agree": tracer.wrap("probes.maps_agree", self.iso.maps_agree)}
        ):
            with tracer.span("laws.suite"):
                reports = self.laws.run_all_law_checks()
        self._verdict(reports)
        for name, (ns, count) in tracer.self_times(first)[tracer.call_id].items():
            self.totals[name] += ns
            self.counts[name] += count
            self.totals["suite.total"] += ns
        self.runs += 1

    def metrics(self):
        n = self.runs
        per = lambda name: self.totals[name] / n / 1e6
        out = {"laws.suite_ms": per("suite.total"), "laws.remainder_ms": per("laws.suite"),
               "laws.fixtures_ms": per("laws.fixtures")}
        for name in CHECKERS:
            out[f"laws.{name}_ms"] = per(f"laws.{name}")
            out[f"laws.{name}.cases"] = self.cases[name] / n
        out["probes.maps_agree_ms"] = per("probes.maps_agree")
        out["probes.maps_agree.calls"] = self.counts["probes.maps_agree"] / n
        out["iso.observational_eq_ms"] = per("iso.observational_eq")
        out["trace.laws_overhead_ms"] = (self.totals["suite.total"] - self.untraced_ns) / n / 1e6
        return out


# The run ------------------------------------------------------------------------

def unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    if "_slope_" in name:
        return "slope"
    return "count"


def run(calls, seed, seconds, python, env, src, workdir, log):
    """Returns (metrics, attempted, failures)."""
    deadline = time.perf_counter() + seconds
    sys.path.insert(0, src)
    import opticat.cli as cli
    import opticat.iso as iso
    import opticat.laws as laws
    if not os.path.abspath(cli.__file__).startswith(src):
        raise RuntimeError(f"imported opticat from {cli.__file__}, not {src}")

    metrics = startup_metrics(python, env)
    tracer = Tracer()
    slopes, by_n, by_m = sweeps(cli, tracer, seed, workdir)
    metrics.update(slopes)
    for n, write, read in by_n:
        log(f"sweep n={n}: compile {write.get('cli.compile_path', 0):.3f} ms, "
            f"families.write {write.get('families.write', 0):.3f} ms, "
            f"families.read {read.get('families.read', 0):.3f} ms")
    for m, layers in by_m:
        log(f"sweep m={m}: load {layers.get('cli.load', 0):.2f} ms, families.write "
            f"{layers.get('families.write', 0):.2f} ms, "
            f"render {layers.get('cli.render', 0):.2f} ms")

    law_layers = LawLayers(laws, iso, tracer)
    laws.run_all_law_checks()  # warm-up: the first run in a process is slower
    law_layers.run_pair()
    cli_layers = CliLayers(cli, tracer)
    cli_calls = [c for c in calls if c.program == CLI]
    laws_only = not cli_calls
    if laws_only:
        # No CLI call of its own: measure the CLI layers on cli_small calls
        # from the same seed, between law-suite runs, so none reads 0.
        cli_calls = workloads.generate("cli_small", seed, os.path.join(workdir, "cli"))
        workloads.attach_expected(cli_calls)
    data = {id(c): workloads.doc_bytes(c) if c.input_file is None else None for c in cli_calls}
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        if laws_only:
            law_layers.run_pair()
        for _ in range(CLI_PER_LAW_RUN if laws_only else 1):
            call = cli_calls[i % len(cli_calls)]
            cli_layers.run_pair(call, data[id(call)])
            i += 1
    spans_path = os.path.join(workdir, "spans.jsonl")
    tracer.write(spans_path)
    log(f"{len(tracer.spans)} spans written to {os.path.relpath(spans_path)}")

    metrics.update(cli_layers.metrics())
    metrics.update(law_layers.metrics())
    for cls in (LIGHT, HEAVY):
        row = cli_layers.breakdown(cls)
        if row:
            parts = " + ".join(f"{k} {row[k]:.3f}" for k in CliLayers.LAYERS + ("remainder",))
            log(f"{cls} calls, in-process ms per call: {row['call']:.3f} = {parts}; "
                f"untraced {row['untraced']:.3f}, tracing overhead "
                f"{row['call'] - row['untraced']:.3f}")
    log(f"law suite runs: {law_layers.runs}, traced {metrics['laws.suite_ms']:.1f} ms, "
        f"tracing overhead {metrics['trace.laws_overhead_ms']:.1f} ms")
    attempted = cli_layers.attempted + law_layers.attempted
    return metrics, attempted, cli_layers.failures + law_layers.failures
