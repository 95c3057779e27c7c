"""Benchmark of the biclique-imbalance command line, end to end and per layer.

    python3 perfbench/run.py --workload chain_solve --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory; with no `src/` it exits with code 2 and prints no result.
Instance files are written under `.perfbench_work/` before timing starts and
removed at the end. Then one client calls `biclique_imbalance.cli.main(argv)`
in this process, in a closed loop: whole passes over the instance list until
`--seconds` seconds of wall time have passed, at least MIN_PASSES passes and
at least MIN_INSTANCES calls ran. stdout and stderr of each call are captured
and checked against answers the benchmark computes itself (`reference.py`,
which shares no code with `src/`).

On a shared machine the same call flips between a fast and a slow speed,
about 1.5x apart, many times a second, and is mostly slow. The fastest of a
few calls depends on whether one of them hit a fast moment, the typical call
does not. So each instance's latency is the median of its calls in the run,
the percentiles are taken over instances, and throughput is the instances of
one pass divided by the sum of those latencies (the length of a typical
pass).

The host's speed also drifts by a fifth or more over seconds to minutes, for
every process alike. After each call the benchmark times a fixed task of its
own (`calibration_task`). The call times of a pass are multiplied by
CAL_REFERENCE_S over the median task time of that pass, and setup_s and the
per-layer self times by CAL_REFERENCE_S over the median task time of the
run. So times read as on a host that runs the task in CAL_REFERENCE_S. The
task shares no code with the package, so a change to the package moves the
scaled times as much as the unscaled ones. The report prints the run's scale
and the unscaled end-to-end figures as well.

--trace 0 patches nothing and reports the end-to-end metrics. --trace 1
alternates untraced passes with passes that record spans around the
package's public functions (`tracing.py`), half the time each, reports the
per-layer metrics and writes the spans to
`.perfbench_out/spans-<workload>.tsv`. Both print a readable report of every
metric first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import copy
import gc
import io
import json
import math
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE = "biclique_imbalance"

sys.path.insert(0, str(HERE))

import instances  # noqa: E402
import selftest  # noqa: E402
import tracing  # noqa: E402
from reference import Outcome  # noqa: E402

MIN_INSTANCES = 100  # so that p90 has at least ten calls beyond it
MIN_PASSES = 5  # so that each instance's median is taken over several calls
SETUP_REPEATS = 21
# Median time of calibration_task on the 2-core Xeon host (Python 3.11) the
# bounds were set on, at a quiet moment.
CAL_REFERENCE_S = 0.00027
CAL_LINES = [f"v{i} v{(i * 7 + 3) % 400}" for i in range(400)]

SETUP_PROBE = """
import sys, time
src = sys.argv[1]
sys.path.insert(0, src)
start = time.perf_counter()
import biclique_imbalance.cli
elapsed = time.perf_counter() - start
if not biclique_imbalance.cli.__file__.startswith(src):
    sys.exit("imported the package from outside the checkout")
print(repr(elapsed))
"""


def calibration_task() -> float:
    """Seconds one fixed parse-and-BFS task takes, with the collector off.

    The collector is off so that the package's heap, which a change to the
    package can grow, does not slow the task. The task runs twice and the
    second run is timed, so that the caches the last call left behind matter
    less.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        _parse_and_search()
        start = time.perf_counter()
        _parse_and_search()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


def _parse_and_search() -> None:
    adj: dict[str, set[str]] = {}
    for line in CAL_LINES:
        a, b = line.split()
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    seen, queue = {"v0"}, ["v0"]
    for u in queue:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    " ".join(sorted(seen))


def load_cli():
    """Import the CLI module from this checkout's src/, or exit with code 2."""
    if not (SRC / PACKAGE / "cli.py").is_file():
        print(f"error: no {PACKAGE} sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import biclique_imbalance.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: {PACKAGE} was imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return cli


class SetupProbe:
    """Import time of the CLI in fresh interpreters, sampled between passes.

    Samples are spaced over the run so that one slow stretch of the machine
    cannot set the median. The first interpreter only warms the bytecode
    cache and is not counted.
    """

    def __init__(self, spacing: float):
        self.spacing = spacing
        self.times: list[float] = []
        self._sample()
        self.times.clear()
        self._start = time.perf_counter()

    def _sample(self) -> None:
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
            cwd=ROOT,
        )
        self.times.append(float(proc.stdout))

    def between_passes(self) -> None:
        """Catch up with one sample per `spacing` seconds since the start."""
        due = min(SETUP_REPEATS, int((time.perf_counter() - self._start) / self.spacing))
        while len(self.times) < due:
            self._sample()

    def median(self) -> float:
        while len(self.times) < SETUP_REPEATS:
            self._sample()
        return statistics.median(self.times)


class Phase:
    """The calls of one stretch of passes over the instance list."""

    def __init__(self, size: int):
        self.passes = 0
        self.busy = 0.0  # seconds spent inside cli.main
        self.samples: list[list[float]] = [[] for _ in range(size)]
        self.failures = [0] * size
        self.reasons: dict[int, str] = {}
        self.calibration: list[float] = []  # one calibration_task time per call

    @property
    def attempted(self) -> int:
        return sum(len(s) for s in self.samples)

    @property
    def failed(self) -> int:
        return sum(self.failures)

    def latencies(self) -> list[float]:
        """Median call of each instance; +inf for one that ever failed."""
        return [
            math.inf if failures else statistics.median(samples)
            for samples, failures in zip(self.samples, self.failures)
        ]

    def throughput(self) -> float:
        """Correct instances per pass over the length of a typical pass."""
        typical_pass = sum(statistics.median(samples) for samples in self.samples)
        return (self.attempted - self.failed) / self.passes / typical_pass

    def scaled(self) -> Phase:
        """A copy whose call times are multiplied by their pass's scale.

        A pass's scale is CAL_REFERENCE_S over the median calibration time
        of its calls. run_pass makes one call of every instance per pass, so
        sample p of an instance and calls p * size to (p + 1) * size - 1
        belong to pass p.
        """
        size = len(self.samples)
        scales = [
            CAL_REFERENCE_S / statistics.median(self.calibration[p * size : (p + 1) * size])
            for p in range(self.passes)
        ]
        out = copy.copy(self)
        out.samples = [[t * scale for t, scale in zip(ts, scales)] for ts in self.samples]
        return out


def call(cli, argv: list[str]) -> tuple[float, Outcome]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except (Exception, SystemExit) as exc:  # an escape from main is a failure
            code = None
            print(f"escaped: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return elapsed, Outcome(code, out.getvalue(), err.getvalue())


def run_pass(cli, work, phase: Phase, tracer=None) -> None:
    """One call of every instance, in order, each checked after it returns."""
    for index, inst in enumerate(work):
        if tracer is not None:
            tracer.request = index
        elapsed, outcome = call(cli, inst.argv)
        phase.busy += elapsed
        phase.samples[index].append(elapsed)
        phase.calibration.append(calibration_task())
        reason = inst.check(outcome)
        if reason is not None:
            phase.failures[index] += 1
            phase.reasons.setdefault(index, reason)
    phase.passes += 1


def done(phase: Phase, deadline: float, min_instances: int) -> bool:
    return time.perf_counter() >= deadline and phase.passes >= MIN_PASSES and phase.attempted >= min_instances


def host_scale(phases: list[Phase]) -> float:
    """CAL_REFERENCE_S over the run's median calibration time."""
    return CAL_REFERENCE_S / statistics.median(t for p in phases for t in p.calibration)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def finite(value: float) -> float:
    """JSON has no infinity: a percentile on a failed instance reads as the largest float."""
    return value if math.isfinite(value) else sys.float_info.max


def end_to_end(phase: Phase, setup: SetupProbe, scale: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; setup time is multiplied by `scale`."""
    latencies = phase.latencies()
    return {
        "setup_s": (scale * setup.median(), "s"),
        "instances_per_s": (phase.throughput(), "1/s"),
        "latency_p50_ms": (finite(1e3 * percentile(latencies, 0.5)), "ms"),
        "latency_p90_ms": (finite(1e3 * percentile(latencies, 0.9)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": ((phase.attempted - phase.failed) / phase.attempted, "ratio"),
    }


def per_layer(work, traced: Phase, spans, untraced: Phase, scale: float) -> dict[str, tuple[float, str]]:
    """Per-pass counts and self times (multiplied by `scale`) of each traced function, plus fits."""
    selfs = tracing.self_times(spans)
    count = len(tracing.NAMES)
    calls, raised, self_s = [0] * count, [0] * count, [0.0] * count
    per_request: dict[tuple[int, int], float] = defaultdict(float)
    for (name_id, start, end, _parent, request, exc), own in zip(spans, selfs):
        calls[name_id] += 1
        raised[name_id] += exc
        self_s[name_id] += own
        per_request[(name_id, request)] += end - start
    passes = traced.passes
    metrics: dict[str, tuple[float, str]] = {}
    for name_id, name in enumerate(tracing.NAMES):
        metrics[f"{name}.calls"] = (calls[name_id] / passes, "count")
        metrics[f"{name}.raised"] = (raised[name_id] / passes, "count")
        metrics[f"{name}.self_s"] = (scale * self_s[name_id] / passes, "s")
        metrics[f"{name}.share"] = (self_s[name_id] / traced.busy, "ratio")

    def slope(name: str, size) -> float:
        name_id = tracing.NAMES.index(name)
        points = [
            (size(work[request]), total / passes)
            for (nid, request), total in per_request.items()
            if nid == name_id
        ]
        return tracing.loglog_slope(points)

    metrics["chained.decompose.slope"] = (slope("chained.decompose", lambda i: i.size), "log-log")
    metrics["graph.parse_edge_list.slope"] = (slope("graph.parse_edge_list", lambda i: i.size), "log-log")
    metrics["graph.vertex_imbalance.slope"] = (slope("graph.vertex_imbalance", lambda i: i.vertices), "log-log")
    metrics["trace.overhead"] = (untraced.throughput() / traced.throughput(), "ratio")
    return metrics


def report(workload: str, work, phase: Phase, metrics: dict, title: str, scale: float) -> None:
    """Readable lines before the JSON result: metrics, failures, per-label median unscaled times."""
    print(f"== {workload}: {title}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(
        f"run scale {scale:.6g}: calibration task median "
        f"{1e3 * CAL_REFERENCE_S / scale:.6g} ms against {1e3 * CAL_REFERENCE_S:.6g} ms"
    )
    defects = sum(1 for inst in work if inst.defect)
    print(
        f"attempted {phase.attempted} in {phase.passes} passes of {len(work)} instances, "
        f"failed {phase.failed}, error_rate {phase.failed / phase.attempted:.6g} "
        f"(known-defect share {defects / len(work):.6g})"
    )
    for index, reason in sorted(phase.reasons.items()):
        tag = "known defect" if work[index].defect else "FAILED"
        print(f"  {tag}: {work[index].label}: {reason}")
    by_label: dict[str, list[float]] = defaultdict(list)
    for inst, samples in zip(work, phase.samples):
        by_label[inst.label].extend(samples)
    for label, times in sorted(by_label.items()):
        print(f"  {label:32s} median {1e3 * statistics.median(times):10.3f} ms unscaled, of {len(times)} calls")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(instances.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problems = selftest.problems()
    if problems:
        for problem in problems:
            print(f"error: self-test: {problem}", file=sys.stderr)
        return 1
    cli = load_cli()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    try:
        writer = instances.Writer(workdir, random.Random(f"{args.workload}/{args.seed}"))
        work = instances.WORKLOADS[args.workload](writer)
        setup = SetupProbe(spacing=args.seconds / (SETUP_REPEATS + 1))
        call(cli, work[0].argv)  # warm-up, untimed
        if args.trace == 0:
            phase = Phase(len(work))
            deadline = time.perf_counter() + args.seconds
            while not done(phase, deadline, MIN_INSTANCES):
                run_pass(cli, work, phase)
                setup.between_passes()
            phases = [phase]
            scale = host_scale(phases)
            metrics = end_to_end(phase.scaled(), setup, scale)
            report(args.workload, work, phase, metrics, "end to end", scale)
            raw = end_to_end(phase, setup, 1.0)
            print("unscaled: " + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()))
        else:
            # Untraced and traced passes alternate, so both see the same
            # stretches of machine speed and trace.overhead compares like
            # with like.
            untraced, traced = Phase(len(work)), Phase(len(work))
            tracer = tracing.Tracer()
            deadline = time.perf_counter() + args.seconds
            while not (done(untraced, deadline, 0) and done(traced, deadline, 0)):
                run_pass(cli, work, untraced)
                setup.between_passes()
                tracer.install()
                try:
                    run_pass(cli, work, traced, tracer)
                finally:
                    tracer.restore()
            phases = [untraced, traced]
            scale = host_scale(phases)
            scaled_untraced, scaled_traced = untraced.scaled(), traced.scaled()
            e2e = end_to_end(scaled_untraced, setup, scale)
            report(args.workload, work, untraced, e2e, "end to end, untraced passes", scale)
            metrics = per_layer(work, scaled_traced, tracer.spans, scaled_untraced, scale)
            report(args.workload, work, traced, metrics, "per layer, traced passes", scale)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{args.workload}.tsv", f"workload={args.workload} seed={args.seed}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    unexpected = [i for p in phases for i in p.reasons if not work[i].defect]
    result = {
        # Known-defect instances count in `failed` and in success_rate;
        # `correct` is false when any other instance got a wrong answer.
        "correct": not unexpected,
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
