"""ndsolve benchmark: seeded workloads through the ``ndsolve`` command line.

    python3 bench/run.py --workload desk|graver --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy.  Each op is one in-process
call of ``ndsolve.cli.main`` with a literal command line and captured
output.  The loop is closed (one op at a time, one process, no threads) and
runs whole passes over the workload's op list while the next pass is
projected to end within S seconds (at least one); every pass starts from an
empty Graver-basis cache, so passes repeat identical work.  Each op is cut
into pieces at the entry and exit of the exact-LP solver (``PieceClock``);
an op's time is the sum of its pieces' best times over the passes, and
``ops_per_s`` is the ops of one pass over the sum of these op times.  The
workload is set up again before every pass after the first; each set-up is
cut at every instance it builds, and ``setup_s`` is the sum of its pieces'
best times.  The traced run alternates traced and untraced passes, with at
least two traced ones.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of ``spans.Tracer``, the tracing overhead, and checks
that every work counter repeats exactly between two traced passes.  Every
pass is judged by ``check.judge``: the first pass in full, while every later
one must print byte-identical output.  The last stdout line is the JSON result; the
line before it is a self-describing report.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TAIL_BEYOND = 10
SETUP_SAMPLE_S = 0.1


def use_checkout_sources():
    """Put the checkout's src first on sys.path, or exit when it is absent."""
    src = ROOT / "src"
    if not (src / "ndsolve" / "cli.py").is_file():
        sys.exit(f"bench: no ndsolve sources at {src}")
    sys.path.insert(0, str(src))


def call(main, argv):
    """(exit code, stdout) of one CLI invocation.

    An exception escaping the CLI is recorded as exit code -1 with its
    traceback as output, so one crashing op fails the gate, not the run.
    """
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse rejects a command line
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            return -1, traceback.format_exc()
    return code, out.getvalue()


class PieceClock:
    """Cuts each op and each set-up into pieces at fixed calls.

    While installed, the exact-LP solver at the names its callers use
    (``ndsolve.backends.solve_lp`` for ``solve_boxed``,
    ``ndsolve.algorithms.solve_lp`` for proximity and rounding) and the
    benchmark's own per-instance set-up (``workloads._case``) are wrapped to
    record a ``perf_counter`` stamp on entry and exit, and nothing else.
    The work between two stamps is the same in every pass, so each piece can
    take its best time separately (see ``BestTimes``).
    """

    def __init__(self):
        self.stamps = []
        self._undo = []

    def __enter__(self):
        from ndsolve import algorithms, backends

        import workloads

        stamps, clock = self.stamps, time.perf_counter
        for owner, attr in ((backends, "solve_lp"), (algorithms, "solve_lp"), (workloads, "_case")):
            original = getattr(owner, attr)

            def stamped(*args, _fn=original, **kwargs):
                stamps.append(clock())
                try:
                    return _fn(*args, **kwargs)
                finally:
                    stamps.append(clock())

            setattr(owner, attr, stamped)
            self._undo.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False


def timed(fn, clock=None):
    """(result of fn(), its piece durations): one piece without ``clock``,
    else the stretches between the clock's stamps."""
    if clock is not None:
        clock.stamps.clear()
    t0 = time.perf_counter()
    result = fn()
    t1 = time.perf_counter()
    cuts = [t0] + (clock.stamps if clock is not None else []) + [t1]
    return result, [b - a for a, b in zip(cuts, cuts[1:])]


class BestTimes:
    """Each op's best times over the passes folded in so far.

    ``pieces[i]`` holds the best time of each of op i's pieces, or None
    once two passes cut the op into different numbers of pieces; ``whole[i]``
    is op i's best whole-op time.  Only these are kept, so memory does not
    grow with the number of passes.
    """

    def __init__(self):
        self.pieces, self.whole = None, None

    def fold(self, times):
        if self.whole is None:
            self.pieces = [list(t) for t in times]
            self.whole = [sum(t) for t in times]
            return
        for i, t in enumerate(times):
            self.whole[i] = min(self.whole[i], sum(t))
            best = self.pieces[i]
            if best is not None and len(best) == len(t):
                self.pieces[i] = [min(a, b) for a, b in zip(best, t)]
            else:
                self.pieces[i] = None

    def per_op(self):
        """Each op's time: the sum of its pieces' best times, or its best
        whole-op time where the piece count differed between passes."""
        return [sum(b) if b is not None else w for b, w in zip(self.pieces, self.whole)]


def one_pass(ops, main, clear_cache, best, reference=None, clock=None):
    """(wall seconds, outputs) of one pass; op times are folded into `best`.

    Each op's time is a list of the durations of its pieces (see ``timed``).
    Given ``reference`` (the first pass's outputs), each output is compared
    with it as soon as it is printed and dropped; the pass then keeps only
    the indices of the ops whose output differed, so memory does not grow
    with the number of passes.
    """
    clear_cache()
    start = time.perf_counter()
    times, kept = [], []
    for i, op in enumerate(ops):
        result, pieces = timed(lambda: call(main, op.argv), clock)
        times.append(pieces)
        if reference is None:
            kept.append(result)
        elif result != reference[i]:
            kept.append(i)
    wall = time.perf_counter() - start
    best.fold(times)
    return wall, kept


def timed_build(build, seed, workdir, best, clock):
    """(cases, ops, seconds) of one set-up in a fresh `workdir`; its pieces
    are folded into `best`."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (cases, ops), pieces = timed(lambda: build(seed, str(workdir)), clock)
    best.fold([pieces])
    return cases, ops, sum(pieces)


def timed_builds(build, seed, workdir, best, clock):
    """Seconds of each set-up, repeated in a fresh `workdir` until together
    they take SETUP_SAMPLE_S (at least one)."""
    took = []
    while sum(took) < SETUP_SAMPLE_S:
        took.append(timed_build(build, seed, workdir, best, clock)[2])
    return took


def run_passes(ops, main, clear_cache, seconds, resetup, best, clock):
    """Whole passes while the next, with the set-up before it, is projected
    to end within `seconds` of the start (at least one pass).

    ``resetup()`` builds the workload again and returns the seconds of each
    build; it runs before every pass after the first, so the set-up samples
    are spread over the run as the op samples are.  Op times are folded
    into `best`.  Returns the passes and the set-up times.
    """
    start = time.perf_counter()
    passes = [one_pass(ops, main, clear_cache, best, clock=clock)]
    setups, last = [], 0.0
    while time.perf_counter() - start + passes[-1][0] + last <= seconds:
        took = resetup()
        setups += took
        last = sum(took)
        passes.append(one_pass(ops, main, clear_cache, best, passes[0][1], clock))
    return passes, setups


def tail(values):
    """(value, percentile, ops beyond) of the highest percentile with at
    least TAIL_BEYOND ops above it (the maximum for short lists)."""
    s = sorted(values)
    idx = len(s) - TAIL_BEYOND - 1 if len(s) > TAIL_BEYOND else len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s), len(s) - idx - 1


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def judge_passes(cases, ops, passes, judge):
    """Gate the first pass; later passes must repeat its output exactly."""
    failed, errors = judge(cases, ops, passes[0][1])
    for n, (_, differed) in enumerate(passes[1:], start=2):
        for i in differed:
            errors.append(f"{ops[i].case} {ops[i].route}: pass {n} printed other output than pass 1")
    return len(failed), errors


def end_to_end(ops, passes, best, failed_per_pass):
    """Metric values plus report fields from untraced passes, whose op times
    `best` holds."""
    wall = sum(p[0] for p in passes)
    completed = len(ops) - failed_per_pass  # per pass
    per_op = best.per_op()
    tail_s, tail_pct, beyond = tail(per_op)
    by_problem = {}
    for op, t in zip(ops, per_op):
        by_problem[op.problem] = by_problem.get(op.problem, 0.0) + t
    metrics = {
        "ops_per_s": completed / sum(per_op),
        "solve_ms_p50": statistics.median(per_op) * 1000.0,
        "solve_ms_tail": tail_s * 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "measured_s": wall,
        "ops_per_s_wall": completed * len(passes) / wall,
        "ops_per_s_whole_ops": completed / sum(best.whole),
        "pieces_per_pass": sum(len(b) for b in best.pieces if b is not None),
        "ops_cut_unevenly": sum(b is None for b in best.pieces),
        "pass_s": [p[0] for p in passes],
        "percentile_sample": f"best of {len(passes)} passes for each piece of {len(ops)} ops",
        "solve_ms_p50_ops": len(per_op),
        "solve_ms_tail_percentile": tail_pct,
        "solve_ms_tail_ops_beyond": beyond,
        "problem_s_per_pass": by_problem,
    }
    return metrics, report


def traced_layers(ops, main, clear_cache, seconds, tracer, best, clock):
    """Traced and untraced passes in turn while the next is projected to end
    within `seconds`: at least two traced passes and one untraced between.

    The untraced passes' op times are folded into `best`.  Returns both
    pass lists (every pass after the first compared with its output), the
    per-layer metrics (times are the best over the traced passes, counters
    come from the first) and every counter that differed between traced
    passes.
    """
    base, traced, snapshots = [], [], []
    reference = None
    while len(traced) < 2 or sum(p[0] for p in base + traced) + traced[-1][0] <= seconds:
        if len(traced) > len(base):
            base.append(one_pass(ops, main, clear_cache, best, reference, clock))
            continue
        tracer.reset()
        with tracer:
            traced.append(one_pass(ops, tracer.main, clear_cache, BestTimes(), reference, clock))
        reference = reference or traced[0][1]
        snapshots.append((tracer.layer_metrics(), dict(tracer.calls), dict(tracer.counts)))
    first = snapshots[0]
    drift = [
        f"traced pass {n}: {key} {first[part].get(key)} -> {snap[part].get(key)}"
        for n, snap in enumerate(snapshots[1:], start=2)
        for part in (1, 2)
        for key in sorted(set(first[part]) | set(snap[part]))
        if first[part].get(key) != snap[part].get(key)
    ]
    layers = {
        name: min(s[0][name] for s in snapshots) if name.endswith("ms") else value
        for name, value in first[0].items()
    }
    untraced_ms = min(p[0] for p in base) * 1000.0
    traced_ms = min(p[0] for p in traced) * 1000.0
    layers["trace.overhead_ms"] = traced_ms - untraced_ms
    layers["trace.overhead_frac"] = (traced_ms - untraced_ms) / untraced_ms
    return base, traced, layers, drift


def metric_units():
    """Unit of every metric, as BENCHMARK.json lists it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def measure(workload, seed, seconds, trace, build=None):
    """Set up, run and judge one workload; returns the result object.

    ``build(seed, workdir) -> (cases, ops)`` defaults to the workload's own
    generator at full size.
    """
    from ndsolve import cli
    from ndsolve.backends import clear_graver_cache

    import check
    import spans
    import workloads

    units = metric_units()
    build = build or workloads.WORKLOADS[workload]
    workdir = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    spare = workdir.with_name(workdir.name + "-setup")
    try:
        best, setup = BestTimes(), BestTimes()
        with PieceClock() as clock:
            cases, ops, first_setup = timed_build(build, seed, workdir, setup, clock)
            if trace:
                base, traced, layers, drift = traced_layers(
                    ops, cli.main, clear_graver_cache, seconds, spans.Tracer(), best, clock
                )
                passes = traced[:1] + base + traced[1:]  # the first holds the outputs
                setups = []
            else:
                passes, setups = run_passes(
                    ops, cli.main, clear_graver_cache, seconds,
                    lambda: timed_builds(build, seed, spare, setup, clock), best, clock,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(spare, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    failed_per_pass, errors = judge_passes(cases, ops, passes, check.judge)
    if trace:
        errors += drift
    attempted = len(ops) * len(passes)
    e2e, report = end_to_end(ops, base if trace else passes, best, failed_per_pass)
    setups = [first_setup] + setups
    report.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        trace=trace,
        python=platform.python_version(),
        nproc=os.cpu_count(),
        git_commit=git_commit(),
        setup_samples=len(setups),
        setup_s_whole_best=min(setups),
        setup_s_median=statistics.median(setups),
        setup_s_max=max(setups),
        fail_frac=failed_per_pass / len(ops),
        errors=errors[:20],
    )
    if trace:
        metrics = dict(layers)
        for problem in ("cds", "maxqcut", "sumcol"):
            metrics[f"{problem}_s"] = report["problem_s_per_pass"].get(problem, 0.0)
        metrics["fail_frac"] = report["fail_frac"]
    else:
        metrics = dict(e2e, setup_s=setup.per_op()[0])
    print(json.dumps({"report": report}))
    for line in errors[:20]:
        print(f"bench: {line}", file=sys.stderr)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed_per_pass * len(passes),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "graver"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_checkout_sources()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
