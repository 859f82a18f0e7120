#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the orbitspectra command line.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times fresh interpreters that run orbitspectra.cli as `python -m`
does (PYTHONPATH=src), one at a time: whole passes over the workload's
invocations for S seconds, each after one set-up probe (`--help`). Each
child is reaped with os.wait4, so its CPU time is its own. Its peak RSS is
the VmHWM it reads from /proc/self/status at exit: wait4's ru_maxrss would
also count this process's memory, because a spawned child keeps the
high-water mark of the address space it replaces at exec.

On a shared machine the speed drifts (by up to 1.6x over minutes on the
2-core Intel Xeon the bounds were set on). So after each pass a fixed
computation that does not use the package is timed for a tenth of the
pass's time, and wall_s, cpu_s and setup_s are reported scaled to the
speed at which that computation takes REF_NOMINAL_S. The report keeps
the unscaled times.

--trace 1 runs the same invocations in this process through cli.main,
alternating untraced passes with passes traced by tracer.py, and reports
the per-layer metrics and the tracing overhead.

Every output is checked (workloads.py). The last stdout line is one JSON
object with the keys correct, attempted, failed and metrics; the metrics
are the end_to_end (trace 0) or per_layer (trace 1) lists of
BENCHMARK.json. A fuller report, with every sample, the environment and
the raw spans, is written to perfbench/.work/.
"""

import argparse
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_invocations  # noqa: E402

SETUP_ARGV = ("--help",)
SETUP_PROBES = 7  # at least this many set-up samples per run
# after each pass, reference computations are timed for this share of the
# pass's wall time; the scale is their mean time over the whole run
REF_SHARE = 0.1
REF_NOMINAL_S = 0.007  # one reference computation on a quiet 2-core Xeon, Python 3.11
# the run stops starting work after this many seconds and kills a child
# that is still running at the hard limit
SOFT_LIMIT_S = 150
HARD_LIMIT_S = 170
STRIPPED_ENV = ("ORBITSPECTRA_BACKEND", "ORBITSPECTRA_THREADS")
# what `python -m orbitspectra.cli` runs, plus a record of the child's own
# memory high-water mark (in kB) written at exit
CHILD_MAIN = """\
import atexit, os, runpy


def record_hwm():
    with open("/proc/self/status") as status, open(os.environ["PERFBENCH_HWM"], "w") as out:
        out.write(next(line for line in status if line.startswith("VmHWM:")).split()[1])


atexit.register(record_hwm)
runpy.run_module("orbitspectra.cli", run_name="__main__", alter_sys=True)
"""


class RunTimeout(BaseException):
    """Raised in an in-process pass that outlives the hard limit."""


# ---------------------------------------------------------------- children


def run_child(argv, env, workdir, deadline):
    """Run one CLI process to completion; returns its measurements.

    The child is reaped with os.wait4, whose rusage covers that child
    alone. A child still running at the deadline is killed.
    """
    out_path, err_path, hwm_path = workdir / "stdout", workdir / "stderr", workdir / "hwm"
    hwm_path.unlink(missing_ok=True)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", CHILD_MAIN, *argv],
            cwd=ROOT, env={**env, "PERFBENCH_HWM": str(hwm_path)},
            stdout=out, stderr=err, stdin=subprocess.DEVNULL,
        )
        pidfd = os.pidfd_open(proc.pid)

        def kill(signum, frame):
            try:
                signal.pidfd_send_signal(pidfd, signal.SIGKILL)
            except ProcessLookupError:
                pass

        previous = signal.signal(signal.SIGALRM, kill)
        signal.setitimer(signal.ITIMER_REAL, max(0.01, deadline - time.monotonic()))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill(None, None)
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.close(pidfd)
        wall = time.perf_counter() - start
    # Popen must not reap the pid again later: it may belong to another process by then
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "argv": list(argv),
        "exit": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": int(hwm_path.read_text()) / 1024 if hwm_path.exists() else None,
        "stdout": out_path.read_text(encoding="utf-8", errors="replace"),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace")[-2000:],
    }


def output_error(inv, exit_code, stdout):
    """None when the invocation exited 0 and its output checks out."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    try:
        return inv.check(stdout, inv.expect)
    except (ValueError, KeyError, IndexError) as exc:
        return f"unparseable output: {exc!r}"


def setup_probe(env, workdir, deadline):
    row = run_child(SETUP_ARGV, env, workdir, deadline)
    ok = row["exit"] == 0 and row["stdout"].startswith("usage: orbitspectra")
    row["error"] = None if ok else f"exit {row['exit']}, stdout {row['stdout'][:80]!r}"
    return row


def timed_pass(invocations, env, workdir, deadline):
    rows = []
    for inv in invocations:
        row = run_child(inv.argv, env, workdir, deadline)
        row["error"] = output_error(inv, row["exit"], row["stdout"])
        if row["peak_rss_mb"] is None:
            row["error"] = row["error"] or "no memory report"
        rows.append(row)
    return {
        "wall_s": sum(r["wall_s"] for r in rows),
        "cpu_s": sum(r["cpu_s"] for r in rows),
        "peak_rss_mb": max(r["peak_rss_mb"] or 0.0 for r in rows),
        "invocations": rows,
    }


def reference_work():
    """Fixed pure-Python work in the style of the package's kernels, but
    independent of it: fraction-free elimination on a 30x30 integer matrix,
    whose entries grow to about 250 bits, and BFS from 30 sources of a
    600-vertex circulant graph."""
    n = 30
    a = [[(i * 7 + j * 13) % 17 - 8 + 300 * (i == j) for j in range(n)] for i in range(n)]
    prev = 1
    for c in range(n - 1):
        piv, prow = a[c][c], a[c]
        for row in a[c + 1:]:
            head = row[c]
            for j in range(c + 1, n):
                row[j] = (piv * row[j] - head * prow[j]) // prev
        prev = piv
    m = 600
    adj = [[(v + s) % m for s in (1, -1, 7, -7, 45, -45)] for v in range(m)]
    total = 0
    for src in range(0, m, 20):
        dist = [-1] * m
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist)
    return a[-1][-1], total


def reference_block(seconds):
    """Times reference computations for about `seconds`; returns
    (calls, total seconds)."""
    calls, start = 0, time.perf_counter()
    while True:
        reference_work()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return calls, elapsed


# ---------------------------------------------------------------- in process


def inprocess_pass(invocations, tracer=None):
    """One pass through cli.main in this process, traced when tracer is given."""
    from orbitspectra import cli

    rows = []
    start = time.perf_counter()
    for inv in invocations:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    status = cli.main(list(inv.argv))
                else:
                    with tracer.installed():
                        status = cli.main(list(inv.argv))
            except SystemExit as exc:
                status = exc.code
        text = out.getvalue()
        rows.append({
            "argv": list(inv.argv),
            "exit": status,
            "stdout_bytes": len(text.encode("utf-8")),
            "stdout": text,
            "error": output_error(inv, status, text),
        })
    return {"wall_s": time.perf_counter() - start, "invocations": rows}


def layer_metrics(tracer, stdout_bytes):
    spans = tracer.summary()

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return spans.get(name, {}).get("calls", 0)

    def self_time(layer):
        return sum(row["self_s"] for name, row in spans.items() if name.startswith(layer + "."))

    rank_calls = calls("exactla.rank")
    hits = tracer.counts.get("exactla.rank_hits", 0)
    return {
        "cli.self_s": self_time("cli"),
        "cli.stdout_bytes": stdout_bytes,
        "graphs.build_s": total("graphs.build"),
        "graphs.bfs_s": total("graphs.bfs"),
        "graphs.self_s": self_time("graphs"),
        "graphs.bfs_calls": calls("graphs.bfs"),
        "graphs.bfs_sources": tracer.counts.get("graphs.bfs_sources", 0),
        "perms.gens_s": total("perms.gens"),
        "perms.orbits_s": total("perms.orbits"),
        "perms.transitivity_s": total("perms.transitivity"),
        "perms.edge_checks": tracer.counts.get("perms.edge_checks", 0),
        "spectral.quotient_s": total("spectral.quotient"),
        "spectral.quotient_calls": calls("spectral.quotient"),
        "spectral.quotient_order": tracer.maxima.get("spectral.quotient_order", 0),
        "spectral.self_s": self_time("spectral"),
        "exactla.rank_s": total("exactla.rank"),
        "exactla.rank_calls": rank_calls,
        "exactla.rank_hits": hits,
        "exactla.rank_hit_ratio": hits / rank_calls if rank_calls else 0.0,
        "exactla.pivot_bits_max": tracer.maxima.get("exactla.pivot_bits_max", 0),
        "exactla.charpoly_s": total("exactla.charpoly"),
        "exactla.charpoly_calls": calls("exactla.charpoly"),
        "exactla.charpoly_order_max": tracer.maxima.get("exactla.charpoly_order_max", 0),
        "exactla.coeff_bits_max": tracer.maxima.get("exactla.coeff_bits_max", 0),
        "exactla.roots_s": total("exactla.roots"),
        "exactla.self_s": self_time("exactla"),
        "kernels.bfs_s": total("kernels.bfs"),
        "kernels.bareiss_s": total("kernels.bareiss"),
        "kernels.berkowitz_s": total("kernels.berkowitz"),
        "trace.spans": len(tracer.spans),
    }


# ---------------------------------------------------------------- statistics


def describe(values):
    """Median, and the highest percentile with at least ten samples beyond
    it (None below eleven samples), with the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    tail = None
    if n > 10:
        k = n - 10
        tail = {"percentile": 100 * k // n, "value": ordered[k - 1]}
    return {"median": statistics.median(ordered), "tail": tail, "samples": n}


# ---------------------------------------------------------------- environment


def git_rev():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def backend():
    try:
        import orbitspectra
    except ImportError as exc:
        return f"unimportable: {exc}"
    name = getattr(orbitspectra, "backend_name", None)
    return name() if name else "python (no backend switch)"


def environment(stripped):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "backend": backend(),
        "stripped_env": stripped,
    }


# ---------------------------------------------------------------- runs


def timed_run(invocations, seconds, workdir, t_start):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    hard = t_start + HARD_LIMIT_S
    setup_probe(env, workdir, hard)  # fills the bytecode cache
    probes, passes = [], []
    window = time.monotonic()
    refs = []
    while True:
        # one set-up probe before each pass, so that the probes see the same
        # drift in machine speed as the passes
        probes.append(setup_probe(env, workdir, hard))
        passes.append(timed_pass(invocations, env, workdir, hard))
        refs.append(reference_block(REF_SHARE * passes[-1]["wall_s"]))
        elapsed = time.monotonic() - window
        typical = statistics.median(p["wall_s"] for p in passes)
        if elapsed + typical > seconds or time.monotonic() + typical > t_start + SOFT_LIMIT_S:
            break
    probes += [setup_probe(env, workdir, hard) for _ in range(SETUP_PROBES - len(probes))]
    rows = probes + [r for p in passes for r in p["invocations"]]
    scale = REF_NOMINAL_S * sum(n for n, _ in refs) / sum(t for _, t in refs)
    raw = {
        "setup_s": describe([p["wall_s"] for p in probes]),
        "wall_s": describe([p["wall_s"] for p in passes]),
        "cpu_s": describe([p["cpu_s"] for p in passes]),
    }
    stats = {
        "setup_s": describe([p["wall_s"] * scale for p in probes]),
        "wall_s": describe([p["wall_s"] * scale for p in passes]),
        "cpu_s": describe([p["cpu_s"] * scale for p in passes]),
        "peak_rss_mb": describe([p["peak_rss_mb"] for p in passes]),
    }
    metrics = {name: s["median"] for name, s in stats.items()}
    for r in rows:
        del r["stdout"]
    detail = {
        "stats": stats,
        "unscaled_stats": raw,
        "speed_scale": scale,
        "reference_blocks": refs,
        "setup_probes": probes,
        "passes": passes,
    }
    return metrics, rows, detail


def traced_run(invocations, seconds, t_start):
    import orbitspectra.cli  # noqa: F401  (import cost stays out of the passes)

    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    signal.setitimer(signal.ITIMER_REAL, HARD_LIMIT_S - (time.monotonic() - t_start))
    untraced, traced, tracers = [], [], []
    window = time.monotonic()
    try:
        while True:
            tracer = Tracer()
            traced_first = len(traced) % 2 == 1
            if traced_first:
                traced.append(inprocess_pass(invocations, tracer))
            untraced.append(inprocess_pass(invocations))
            if not traced_first:
                traced.append(inprocess_pass(invocations, tracer))
            tracers.append(tracer)
            elapsed = time.monotonic() - window
            typical = statistics.median(p["wall_s"] for p in untraced + traced) * 2
            if elapsed + typical > seconds or time.monotonic() + typical > t_start + SOFT_LIMIT_S:
                break
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    per_pass = [
        layer_metrics(t, sum(r["stdout_bytes"] for r in p["invocations"]))
        for t, p in zip(tracers, traced)
    ]
    # times are medians over the traced passes; counts come from the first
    metrics = {
        name: statistics.median(m[name] for m in per_pass) if isinstance(first, float) else first
        for name, first in per_pass[0].items()
    }
    untraced_s = statistics.median(p["wall_s"] for p in untraced)
    traced_s = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    counts_repeat = all(counts_only(m) == counts_only(per_pass[0]) for m in per_pass)
    spans = tracers[0].summary()
    dominant = max(spans, key=lambda name: spans[name]["self_s"]) if spans else None
    rows = [r for p in untraced + traced for r in p["invocations"]]
    for r in rows:
        del r["stdout"]
    detail = {
        "untraced_wall_s": describe([p["wall_s"] for p in untraced]),
        "traced_wall_s": describe([p["wall_s"] for p in traced]),
        "counts_repeat_across_passes": counts_repeat,
        "dominant_self_time_span": dominant,
        "span_summary": spans,
        "unbound": sorted(set(tracers[0].unbound)),
        "spans": _relative_spans(tracers[0].spans),
        "passes": {"untraced": untraced, "traced": traced},
    }
    return metrics, rows, detail


def counts_only(metrics):
    return {k: v for k, v in metrics.items() if not isinstance(v, float)}


def _raise_timeout(signum, frame):
    raise RunTimeout(f"in-process pass still running after {HARD_LIMIT_S} s")


def _relative_spans(spans):
    origin = spans[0][1] if spans else 0
    return [[name, start - origin, end - origin, parent] for name, start, end, parent in spans]


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    t_start = time.monotonic()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "orbitspectra" / "cli.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    declared = declared_metrics(args.trace)

    # the children and the in-process passes run without the backend and
    # thread switches, so every run measures the same configuration
    stripped = [name for name in STRIPPED_ENV if os.environ.pop(name, None) is not None]
    env_block = environment(stripped)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        invocations = make_invocations(args.workload, args.seed, workdir)
        if args.trace:
            values, rows, detail = traced_run(invocations, args.seconds, t_start)
        else:
            values, rows, detail = timed_run(invocations, args.seconds, workdir, t_start)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env_block["loadavg_end"] = os.getloadavg()

    failed = [r for r in rows if r["error"]]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    result = {
        "correct": not failed,
        "attempted": len(rows),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env_block,
        "failed_frac": len(failed) / len(rows),
        "failures": [{"argv": r["argv"], "error": r["error"]} for r in failed],
        "result": result,
        **detail,
    }
    WORK.mkdir(exist_ok=True)
    report_path = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for r in failed:
        print(f"FAILED {' '.join(r['argv'])}: {r['error']}", file=sys.stderr)
    print(f"report: {report_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
