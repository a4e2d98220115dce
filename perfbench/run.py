"""The qsl2 benchmark: one workload in one process, closed loop, one caller.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; it imports the package from
``src/``.  Workloads are grid, ladder, construct and verify (see
perfbench/README.md for why each exists).  With ``--trace 0`` the last
line of standard output is a JSON object holding the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of a traced run.  Every
op is checked against references the benchmark states itself.  Full
results, digests and trace spans are written under ``.bench_out/``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
from bisect import bisect_left  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3       # setup_s is the median of these
TRACE_MIN_PASSES = 2    # traced and untraced passes each, in a traced run

# Times are scaled by the machine's momentary speed (see SpeedClock): on a
# shared machine it drifts by +-25% over seconds.  A scaled time is the wall
# time on a machine where one probe takes PROBE_REF_S.
PROBE_REF_S = 0.002
PROBE_ITERS = 3400
PROBE_INTERVAL_S = 0.1
PROBE_WINDOW_S = 0.3    # probes this close to an interval set its scale

# (name, unit) of the end-to-end metrics, in report order
END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
              ("ok_share", "ratio")]


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def fresh_import():
    """Import qsl2 from this tree's src/, dropping any earlier import."""
    if not (SRC / "qsl2" / "__init__.py").is_file():
        raise BenchError(f"no qsl2 package under {SRC}")
    for name in [n for n in sys.modules if n == "qsl2" or n.startswith("qsl2.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("qsl2")
    if Path(pkg.__file__).resolve().parent != (SRC / "qsl2").resolve():
        raise BenchError(f"qsl2 imported from {pkg.__file__}, not {SRC}")


def set_up(workload_name: str, seed: int):
    """Import, generate inputs and complete set-up algebras, several times.

    Returns the workload and the (start, end) of each repeat.
    """
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_import()
        workload = workloads.BUILDERS[workload_name](seed)
        spans.append((t0, time.perf_counter()))
    return workload, spans


def run_op(op):
    try:
        return op.run()
    except Exception as exc:          # a raising op is a failed op
        return workloads.Outcome([f"raised {type(exc).__name__}: {exc}"])


def probe() -> float:
    """Seconds taken by a fixed piece of dict, tuple and integer work that
    does not touch qsl2."""
    was_enabled = gc.isenabled()
    gc.disable()          # the probe makes no cycles; keep collections out
    try:
        t0 = time.perf_counter()
        acc = {}
        for i in range(PROBE_ITERS):
            key = (i % 7, i % 5, i % 3, i % 11)
            acc[key] = acc.get(key, 0) + ((i * 31) ^ (i >> 3))
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class SpeedClock:
    """Wall time scaled by the machine's momentary speed.

    While running, a SIGALRM timer runs the probe every PROBE_INTERVAL_S in
    the main thread, so the speed is also sampled in the middle of long
    ops.  An interval's scaled time is its wall time, less the probes that
    ran inside it, times PROBE_REF_S over the median probe within
    PROBE_WINDOW_S of the interval.
    """

    def __init__(self):
        self.starts: list = []
        self.durations: list = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.resume()
        return self

    def __exit__(self, *exc):
        self.pause()
        signal.signal(signal.SIGALRM, self._previous)

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def resume(self):
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def _tick(self, signum, frame):
        start = time.perf_counter()
        duration = probe()
        self.starts.append(start)
        self.durations.append(duration)

    def times(self, t0: float, t1: float):
        """(scaled seconds, wall seconds) of the interval [t0, t1]."""
        inside = self.durations[bisect_left(self.starts, t0):
                                bisect_left(self.starts, t1)]
        wall = t1 - t0 - sum(inside)
        near = self.durations[bisect_left(self.starts, t0 - PROBE_WINDOW_S):
                              bisect_left(self.starts, t1 + PROBE_WINDOW_S)]
        if not near:
            raise BenchError("no speed probe near a timed interval")
        return wall * PROBE_REF_S / statistics.median(near), wall


class Pass:
    """One closed-loop pass over the op list.

    samples holds (op name, scaled seconds, wall seconds, outcome).
    """

    def __init__(self, samples):
        self.samples = samples
        self.scaled = sum(s[1] for s in samples)
        self.wall = sum(s[2] for s in samples)


def run_pass(ops, tracer=None):
    """One closed-loop pass; returns [(op name, start, end, outcome)]."""
    gc.collect()
    timed = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        if tracer is None:
            out = run_op(op)
        else:
            out = tracer.run_op(i, lambda: run_op(op))
        timed.append((op.name, t0, time.perf_counter(), out))
    return timed


def scale_pass(clock, timed) -> Pass:
    return Pass([(name, *clock.times(t0, t1), out)
                 for name, t0, t1, out in timed])


def wall_pass(timed) -> Pass:
    return Pass([(name, t1 - t0, t1 - t0, out)
                 for name, t0, t1, out in timed])


def measure(workload, seconds: float, trace: bool, clock):
    """Run passes for at least `seconds` and the workload's minimum count.

    Returns (untraced passes, traced passes, per-pass layer snapshots,
    tracer), each pass as run_pass returns it.  A traced run alternates
    untraced and traced passes, so both see the same machine state and
    their difference is the overhead.  The probe timer is paused during
    traced passes, so it adds nothing to their spans.
    """
    untraced, traced, snapshots = [], [], []
    tracer = None
    start = time.perf_counter()
    if not trace:
        while (len(untraced) < workload.min_passes
               or time.perf_counter() - start < seconds):
            untraced.append(run_pass(workload.ops))
        return untraced, traced, snapshots, tracer

    modules = {n: m for n, m in sys.modules.items()
               if n == "qsl2" or n.startswith("qsl2.")}
    modules["workloads"] = workloads
    tracer = tracing.Tracer(modules)
    while (len(traced) < TRACE_MIN_PASSES
           or time.perf_counter() - start < seconds):
        untraced.append(run_pass(workload.ops))
        tracer.begin_pass(keep_spans=not traced)
        clock.pause()
        tracer.install()
        try:
            traced.append(run_pass(workload.ops, tracer))
        finally:
            tracer.uninstall()
            clock.resume()
        snapshots.append(tracer.snapshot())
    return untraced, traced, snapshots, tracer


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_outputs(passes):
    """Failure accounting, soundness and byte-stability over all passes."""
    attempted = failed = 0
    unsound, failed_ops, digests, unstable = [], {}, {}, []
    for p in passes:
        for name, _, _, out in p.samples:
            attempted += 1
            if out.failures:
                failed += 1
                entry = failed_ops.setdefault(name, [0, out.failures[0]])
                entry[0] += 1
            if out.unsound and name not in unsound:
                unsound.append(name)
            h = hashlib.sha256(out.output.encode()).hexdigest()
            if digests.setdefault(name, h) != h and name not in unstable:
                unstable.append(name)
    digest = hashlib.sha256("".join(
        f"{name}\t{h}\n" for name, h in sorted(digests.items())).encode())
    return {"attempted": attempted, "failed": failed, "unsound": unsound,
            "unstable": unstable, "failed_ops": failed_ops,
            "digest": digest.hexdigest(), "op_digests": digests}


def op_times(workload, passes, column):
    """pass_s, op_p50_ms and op_tail_ms from scaled (1) or wall (2) times.

    op_p50_ms is the median over the op list of each op's median time: the
    pooled median of a short op list falls between the samples of two ops
    and is as noisy as their extremes.
    """
    op_ms = [s[column] * 1000.0 for p in passes for s in p.samples]
    tail = percentile(op_ms, workload.tail_pct)
    per_op = [statistics.median(p.samples[i][column] * 1000.0 for p in passes)
              for i in range(len(workload.ops))]
    return {"pass_s": statistics.median(sum(s[column] for s in p.samples)
                                        for p in passes),
            "op_p50_ms": statistics.median(per_op),
            "op_tail_ms": tail}, {
        "percentile": workload.tail_pct, "samples": len(op_ms),
        "beyond": sum(1 for v in op_ms if v > tail)}


def per_layer(untraced, traced, snapshots):
    out = {}
    for name, unit in tracing.PER_LAYER:
        if name != "trace.overhead_share":
            value = statistics.median(s[name] for s in snapshots)
            # counts repeat exactly from pass to pass; a fractional
            # median shows where they did not
            out[name] = (int(value) if unit == "count" and value == int(value)
                         else value)
    # wall times: the probe timer is paused during traced passes
    plain = statistics.median(p.wall for p in untraced)
    with_trace = statistics.median(p.wall for p in traced)
    out["trace.overhead_share"] = (with_trace - plain) / plain
    return out


def environment():
    try:
        # the ceiling keeps git from reporting an enclosing repository
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        commit = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src = hashlib.sha256()
    for path in sorted((SRC / "qsl2").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": src.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def write_out(stem: str, doc: dict, spans=None):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    if spans:
        with open(OUT_DIR / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for op_id, span, parent, layer, t0, t1, self_s in spans:
                fh.write(json.dumps({"op": op_id, "span": span,
                                     "parent": parent, "layer": layer,
                                     "start": t0, "end": t1,
                                     "self": self_s}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t_setup = time.perf_counter()
    with SpeedClock() as clock:
        try:
            workload, setup_spans = set_up(args.workload, args.seed)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        warmup = run_pass(workload.warmup)
        raw_untraced, raw_traced, snapshots, tracer = measure(
            workload, args.seconds, bool(args.trace), clock)
        time.sleep(PROBE_WINDOW_S)     # probes after the last op set its scale
    setup_times = [clock.times(t0, t1)[0] for t0, t1 in setup_spans]
    warm_s = scale_pass(clock, warmup).scaled
    setup_s = (t_setup - _T_START) + statistics.median(setup_times) + warm_s
    untraced = [scale_pass(clock, timed) for timed in raw_untraced]
    traced = [wall_pass(timed) for timed in raw_traced]

    check = check_outputs(untraced + traced)
    correct = not check["unsound"] and not check["unstable"]
    attempted, failed = check["attempted"], check["failed"]

    wall, tail_info = op_times(workload, untraced, 2)
    if args.trace:
        values = per_layer(untraced, traced, snapshots)
        units = dict(tracing.PER_LAYER)
    else:
        values, tail_info = op_times(workload, untraced, 1)
        values["setup_s"] = setup_s
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        values["ok_share"] = 1.0 - failed / attempted
        units = dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}

    env = environment()
    ops_per_pass = len(workload.ops)
    print(f"# qsl2 benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(untraced)}+{len(traced)} traced "
          f"ops/pass={ops_per_pass}")
    print(f"# commit {env['commit']}  src {env['src_sha256'][:16]}  "
          f"python {env['python']}  nproc {env['nproc']}")
    print(f"# set-up: {SETUP_REPEATS} repeats, median "
          f"{statistics.median(setup_times):.4f} s; warm-up {warm_s:.4f} s")
    for name, m in metrics.items():
        note = f"  (wall {wall[name]:.6g})" if name in wall else ""
        if name == "op_tail_ms":
            note += (f"  (p{tail_info['percentile']} of {tail_info['samples']} "
                     f"op samples, {tail_info['beyond']} beyond)")
        print(f"{name:40s} {m['value']:.6g} {m['unit']}{note}")
    print(f"{'fail_share':40s} {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} ops failed)")
    for name, (count, reason) in sorted(check["failed_ops"].items()):
        print(f"failed op {name} x{count}: {reason}")
    for name in check["unsound"]:
        print(f"INCORRECT op {name}: certified an answer the reference contradicts")
    for name in check["unstable"]:
        print(f"INCORRECT op {name}: output bytes differ between passes")
    print(f"digest {check['digest']}  (sha256 of {len(check['op_digests'])} "
          f"op outputs; informational)")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    write_out(stem, {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": env, "metrics": metrics,
        "fail_share": failed / attempted, "tail": tail_info,
        "wall": wall, "passes_scaled": [p.scaled for p in untraced],
        "op_median_ms": {
            name: statistics.median(p.samples[i][1] * 1000.0 for p in untraced)
            for i, name in enumerate(op.name for op in workload.ops)},
        "passes_wall": [p.wall for p in untraced],
        "traced_passes_wall": [p.wall for p in traced],
        "probes": len(clock.durations),
        "probe_median_s": statistics.median(clock.durations),
        "setup_repeats_s": setup_times, "warmup_s": warm_s,
        "failed_ops": check["failed_ops"], "unsound": check["unsound"],
        "unstable": check["unstable"], "digest": check["digest"],
        "op_digests": check["op_digests"], "inputs": workload.inputs},
        tracer.spans if tracer else None)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
