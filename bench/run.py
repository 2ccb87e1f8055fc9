"""Closed-loop benchmark of the bga command line: one client, one process.

    python3 bench/run.py --workload hh2 --seed 1 --seconds 40 --trace 0

Run from the repository root.  The benchmark draws a pool of random
bipartite ribbon graphs from the seed, writes them as graph JSON files, and
calls ``bga.cli.main(argv)`` in-process on each, one job after the other.
A job is one graph taken through the workload's command sequence.  Every
output is checked against closed counts computed from the graph alone
(``checks.py``), and every repeat of a job must print the same bytes.

The pool is run in whole passes, in the same order each pass, for as many
passes as fit in ``--seconds`` (at least one).  The speed of a shared host
drifts by up to a half over minutes and jitters by a fifth within a
second, so a small fixed reference computation (``reference``) is timed
before and after every job and every ``PROBE_PERIOD`` while it runs, and
job and cold-start times are reported rescaled to a host on which the
reference takes ``NOMINAL_REF_S``: the seconds a job takes on such a host.
A job's time is the median of its rescaled runs.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` one pass runs untraced and a second pass runs with every
layer module wrapped in spans (``spans.py``); the last line carries the
per-layer metrics per job.  The line before the last is a report:
environment, pool histogram, tail percentile, failed ratio, output digest
and, when traced, each layer's share of the job time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import graphs  # noqa: E402
import spans  # noqa: E402

clock = time.perf_counter

# cold starts before and after the passes; setup_s is their median
SETUP_SAMPLES = (8, 7)
# time of one reference() on the host the benchmark was tuned on, a 2 vCPU
# share of a 2.1 GHz Xeon; reported times are seconds on a host where
# reference() takes this long
NOMINAL_REF_S = 0.0003
# wall seconds between two probes of the host's speed while a job runs; the
# speed changes within tens of milliseconds
PROBE_PERIOD = 0.01


def _slots(ladder, shapes=graphs.SHAPES, hh2=None):
    """(shape, dim, hh2 count or None) slots from (dimension, count) pairs;
    shapes take turns among those that reach the dimension, and ``hh2``
    maps a dimension to the HH^2 count its graphs must have."""
    out, turn = [], 0
    for d, count in ladder:
        fits = [s for s in shapes if graphs.reaches(s, d)]
        for _ in range(count):
            out.append((fits[turn % len(fits)], d, hh2 and hh2(d)))
            turn += 1
    return out


def _hh2_job(main, path):
    return [_call(main, ["hh2", "--input", path])]


def _family_job(main, path):
    runs = [_call(main, ["cocycles", "--input", path])]
    kinds = []
    try:
        for c in json.loads(runs[0][2])["cocycles"]:
            if c["kind"] not in kinds:
                kinds.append(c["kind"])
    except (ValueError, KeyError, TypeError):
        pass  # the check of the cocycles output reports what is wrong
    for kind in kinds:
        runs.append(_call(main, ["deform", "--input", path, "--deform-type",
                                 kind, "--t", "formal:4"]))
    return runs


def _deform_t1_job(main, path):
    return [_call(main, ["deform", "--input", path, "--deform-type", "A",
                         "--t", "1", "--check-semisimple"]),
            _call(main, ["basis", "--input", path])]


def _family_size(dim):
    """HH^2 count of a family slot: near the middle of what random graphs
    and hubs of this dimension have."""
    return round(4 + dim / 16)


# Target dimensions are spaced geometrically and the small ones get more
# slots: job cost grows like dim^1.7 (hh2, family) or dim^4 (deform-t1), so
# the small end is cheap and gives a pass enough jobs for a tail with ten
# jobs beyond it, while the large end sets that tail.  Exact dimensions keep
# a pass's cost close to independent of the seed, but graphs of one
# dimension still differ in cost by up to a factor of three (hh2, family),
# so the pools are large: 60 jobs or more, and several slots at the
# dimensions where the median and the tail fall.  A pass takes about ten
# seconds on a 2.1 GHz Xeon, so two to four fit in a 40-second run.
WORKLOADS = {
    "hh2": {
        "why": "bga hh2 on dimension 40-160, the headline HH^2 computation: "
               "linalg.rref takes about 40% of job time, rewrite.reduce "
               "(inside cocycle_space) about 25%",
        "slots": _slots([(40, 6), (44, 6), (48, 6), (52, 6), (56, 6),
                         (60, 6), (68, 4), (76, 4), (84, 8), (92, 8),
                         (120, 1), (140, 1), (160, 1)]),
        "job": _hh2_job,
    },
    "family": {
        "why": "bga cocycles, then deform --t formal:4 per cocycle kind, on "
               "dimension 24-80: rewrite.reduce, ambiguities and system "
               "set-up dominate, rebuilt on every call",
        # the cost of cocycles grows with the family size, so each slot
        # fixes it too; below dimension 40 only random graphs reach it often
        "slots": _slots([(24, 8), (28, 8), (32, 8), (36, 8)], ("random",),
                        _family_size)
                 + _slots([(40, 6), (44, 6), (48, 6), (52, 4), (56, 4),
                           (64, 2), (72, 2), (80, 2)], ("random", "hub"),
                          _family_size),
        "job": _family_job,
    },
    "deform-t1": {
        "why": "bga deform --t 1 --check-semisimple, then bga basis, on "
               "dimension 8-26: the all-triples associativity check "
               "(rewrite.assoc) takes over 90% of job time",
        "slots": _slots([(8, 6), (9, 6), (10, 6), (11, 6), (12, 6), (13, 6),
                         (14, 5), (15, 5), (16, 5), (17, 5), (18, 3),
                         (20, 3), (22, 2), (24, 1), (26, 1)]),
        "job": _deform_t1_job,
    },
}


def reference():
    """Fixed work of the engine's kind, from the standard library only:
    Fraction arithmetic and a dict keyed by tuples."""
    acc, seen = Fraction(0), {}
    for i in range(1, 80):
        key = (i % 37, i % 11, "ab" * (i % 5))
        seen[key] = seen.get(key, 0) + i
        acc += Fraction(i % 7 + 1, i % 13 + 1)
    return acc


def reference_s(count=3):
    """Wall seconds of one reference(): the median of ``count`` runs back to
    back, so that one run slowed by the scheduler does not count."""
    samples = []
    for _ in range(count):
        t0 = clock()
        reference()
        samples.append(clock() - t0)
    return statistics.median(samples)


_probes = []


def _probe(signum, frame):
    t0 = clock()
    reference()
    _probes.append(clock() - t0)


@contextlib.contextmanager
def probing():
    """Times reference() every PROBE_PERIOD seconds from a SIGALRM handler,
    which Python runs between two bytecodes of the job; yields the list
    the times go to."""
    del _probes[:]
    old = signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD, PROBE_PERIOD)
    try:
        yield _probes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def rescale(wall, ref):
    """Seconds on a host where reference() takes NOMINAL_REF_S, from wall
    seconds and the reference's time around them."""
    return wall * NOMINAL_REF_S / ref


def _call(main, argv):
    """(argv, exit code, stdout) of one in-process CLI call."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception:  # a crash fails the job; the loop keeps running
        return argv, "exception", traceback.format_exc()
    return argv, rc, buf.getvalue()


def make_pool(workload, seed):
    """One graph per slot, in a seeded random order."""
    rng = random.Random(f"{workload}:{seed}")
    docs = [graphs.sample(shape, d, rng, hh2)
            for shape, d, hh2 in WORKLOADS[workload]["slots"]]
    rng.shuffle(docs)
    return docs


def histogram(docs):
    """Jobs per dimension, in increasing dimension."""
    out = {}
    for d in sorted(graphs.dimension(doc) for doc in docs):
        out[str(d)] = out.get(str(d), 0) + 1
    return out


class Runner:
    """Runs and checks jobs; remembers each command's first output to catch
    a repeat that prints different bytes."""

    def __init__(self, job, main, docs, paths):
        self.job_fn, self.main = job, main
        self.docs, self.paths = docs, paths
        self.outputs = {}
        self.problems = []
        self.attempted = self.failed = 0

    def run(self, i, probe=False):
        """Wall seconds of job i, whether it passed every check, and, with
        ``probe``, the reference times probed while it ran; the probes'
        time is not counted in the job's."""
        t0 = clock()
        with probing() if probe else contextlib.nullcontext([]) as probes:
            runs = self.job_fn(self.main, self.paths[i])
        dt = clock() - t0 - sum(probes)
        probes = list(probes)
        bad = []
        for argv, rc, text in runs:
            bad += checks.check_run(self.docs[i], argv, rc, text)
            if self.outputs.setdefault((i, tuple(argv)), text) != text:
                bad.append(f"{argv[0]}: stdout differs from an earlier run")
        self.attempted += 1
        if bad:
            self.failed += 1
            self.problems.append({"job": i, "problems": bad[:5]})
        return dt, not bad, probes

    def outputs_digest(self):
        """SHA-256 over every command's first stdout, in pool order."""
        h = hashlib.sha256()
        for key in sorted(self.outputs):
            h.update(self.outputs[key].encode())
        return h.hexdigest()


def run_passes(runner, n, seconds):
    """Whole passes over jobs 0..n-1, at least one, while the next pass is
    expected to end within ``seconds``.  Returns each job's wall times and
    rescaled times, one per pass, and whether all its runs passed.  A run
    is rescaled by the mean of the reference times just before it, probed
    during it and just after it."""
    raw = [[] for _ in range(n)]
    scaled = [[] for _ in range(n)]
    ok = [True] * n
    start = clock()
    before = reference_s()
    while True:
        pass_start = clock()
        for i in range(n):
            dt, passed, probes = runner.run(i, probe=True)
            after = reference_s()
            raw[i].append(dt)
            scaled[i].append(
                rescale(dt, statistics.mean(probes + [before, after])))
            ok[i] = ok[i] and passed
            before = after
        now = clock()
        if now - start + (now - pass_start) > seconds:
            return raw, scaled, ok


def tail(values):
    """(value, percentile, count beyond): the highest order statistic with
    ten values above it, or the maximum when there are not eleven."""
    s = sorted(values)
    n = len(s)
    if n < 11:
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def cold_starts(count):
    """Rescaled seconds of fresh interpreters importing bga.cli and
    answering ``validate --input EX1``, and whether every answer was
    right."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = ("import sys\nfrom bga.cli import main\n"
            "sys.exit(main(['validate', '--input', 'EX1']))")
    samples, ok = [], True
    for _ in range(count):
        before = reference_s(15)
        t0 = clock()
        proc = subprocess.run([sys.executable, "-c", code], cwd=str(ROOT),
                              env=env, capture_output=True, text=True,
                              timeout=60, check=False)
        wall = clock() - t0
        after = reference_s(15)
        samples.append(rescale(wall, (before + after) / 2))
        try:
            out = json.loads(proc.stdout)
        except ValueError:
            ok = False
            continue
        ok = ok and proc.returncode == 0 and out.get("ok") is True \
            and out.get("dimension") == 7
    return samples, ok


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def preflight(main):
    """Whether ``bga selftest`` reports every bundled fixture ok."""
    _, rc, text = _call(main, ["selftest"])
    try:
        return rc == 0 and json.loads(text)["ok"] is True
    except (ValueError, KeyError, TypeError):
        return False


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(job_s, ok, setup_s):
    return {
        "jobs_per_s": _metric(sum(ok) / sum(job_s), "1/s"),
        "job_s.p50": _metric(statistics.median(job_s), "s"),
        "job_s.tail": _metric(tail(job_s)[0], "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


_SPAN_METRICS = {
    # metric -> (span name, field of spans.summarise: 0 calls, 1 busy s,
    # 2 self s)
    "rewrite.assoc.self_s": ("rewrite.assoc", 2),
    "rewrite.table.self_s": ("rewrite.table", 2),
    "rewrite.reduce.calls": ("rewrite.reduce", 0),
    "rewrite.reduce.self_s": ("rewrite.reduce", 2),
    "rewrite.ambiguities.calls": ("rewrite.ambiguities", 0),
    "rewrite.ambiguities.self_s": ("rewrite.ambiguities", 2),
    "rewrite.diamond.self_s": ("rewrite.diamond", 2),
    "rewrite.system.calls": ("rewrite.system", 0),
    "rewrite.system.self_s": ("rewrite.system", 2),
    "rewrite.words.self_s": ("rewrite.words", 2),
    "linalg.rref.calls": ("linalg.rref", 0),
    "linalg.rref.self_s": ("linalg.rref", 2),
    "hochschild.cocycle_space.self_s": ("hochschild.cocycle_space", 2),
    "hochschild.coboundary.self_s": ("hochschild.coboundary", 2),
    "hochschild.hh2.self_s": ("hochschild.hh2", 2),
    "hochschild.verify_cocycle.calls": ("hochschild.verify_cocycle", 0),
    "hochschild.verify_cocycle.self_s": ("hochschild.verify_cocycle", 2),
    "hochschild.verify_basis.self_s": ("hochschild.verify_basis", 2),
    "hochschild.family.self_s": ("hochschild.family", 2),
    "deform.verify_formal.calls": ("deform.verify_formal", 0),
    "deform.verify_formal.self_s": ("deform.verify_formal", 2),
    "deform.deform.self_s": ("deform.deform", 2),
    "deform.deformed_algebra.self_s": ("deform.deformed_algebra", 2),
    "deform.semisimplicity.self_s": ("deform.semisimplicity", 2),
    "cli.emit.self_s": ("cli.emit", 2),
    "cli.cmd.hh2.busy_s": ("cli.cmd.hh2", 1),
    "cli.cmd.cocycles.busy_s": ("cli.cmd.cocycles", 1),
    "cli.cmd.deform.busy_s": ("cli.cmd.deform", 1),
    "cli.cmd.basis.busy_s": ("cli.cmd.basis", 1),
}

_COUNT_METRICS = ("rewrite.multiply.calls", "rewrite.redex_scans",
                  "linalg.rref.cells")


def per_layer(tracer, jobs, overhead):
    """Per-job layer metrics from the spans of ``jobs`` traced jobs, and
    each layer's share of the traced job time."""
    by_name, table_reduces = spans.summarise(tracer)
    out = {}
    for metric, (name, field) in _SPAN_METRICS.items():
        value = by_name.get(name, (0, 0.0, 0.0))[field]
        out[metric] = _metric(value / jobs,
                              "s" if metric.endswith("_s") else "count")
    out["rewrite.table.reduces"] = _metric(table_reduces / jobs, "count")
    for name in _COUNT_METRICS:
        out[name] = _metric(tracer.counts[name] / jobs, "count")
    rows = tracer.counts["linalg.rref.rows"]
    out["linalg.rref.rank_ratio"] = _metric(
        tracer.counts["linalg.rref.rank"] / rows if rows else 0.0, "ratio")
    job_time = by_name["bench.job"][1]
    shares = {}
    for layer in spans.LAYERS:
        self_s = sum(row[2] for name, row in by_name.items()
                     if name.split(".")[0] == layer)
        shares[layer] = self_s / job_time
        out[f"{layer}.self_s"] = _metric(self_s / jobs, "s")
        out[f"{layer}.share"] = _metric(shares[layer], "ratio")
    out["trace.overhead"] = _metric(overhead, "ratio")
    return out, shares


def traced_pass(runner, n):
    """Every job once with spans on; returns the tracer and the job times."""
    tracer = spans.Tracer()
    patches = spans.install(tracer, clock)
    times = []
    try:
        for i in range(n):
            tracer.job = i
            sid = tracer.open("bench.job", clock())
            times.append(runner.run(i)[0])
            tracer.close(sid, clock())
    finally:
        spans.uninstall(patches)
    return tracer, times


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bga" / "cli.py").is_file():
        print(f"bench: no bga sources under {SRC}; run from the root of a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from bga.cli import main as bga_main

    spec = WORKLOADS[args.workload]
    report = {
        "workload": args.workload, "why": spec["why"], "seed": args.seed,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "git_commit": git_commit(), "preflight_ok": preflight(bga_main),
    }
    setup, setup_ok = cold_starts(SETUP_SAMPLES[0])
    docs = make_pool(args.workload, args.seed)
    report["dimension_histogram"] = histogram(docs)
    n = len(docs)
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = []
        for i, doc in enumerate(docs):
            path = work / f"g{i:03d}.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            paths.append(str(path))
        runner = Runner(spec["job"], bga_main, docs, paths)
        if args.trace:
            raw, times, ok = run_passes(runner, n, 0.0)
            tracer, traced = traced_pass(runner, n)
        else:
            raw, times, ok = run_passes(runner, n, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    more, more_ok = cold_starts(SETUP_SAMPLES[1])
    setup_ok = setup_ok and more_ok

    job_s = [statistics.median(t) for t in times]
    if args.trace:
        untraced = sum(t[0] for t in raw)
        metrics, shares = per_layer(tracer, n, sum(traced) / untraced)
        out_dir = HERE / "_out"
        out_dir.mkdir(exist_ok=True)
        span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write_spans(tracer, span_file)
        report.update({
            "layer_share": {k: round(v, 4) for k, v in shares.items()},
            "spans": len(tracer.names),
            "span_file": str(span_file.relative_to(ROOT)),
        })
    else:
        metrics = end_to_end(job_s, ok, statistics.median(setup + more))
    _, pct, beyond = tail(job_s)
    report.update({
        "jobs": n, "runs_per_job": min(len(t) for t in times),
        "tail_percentile": round(pct, 2), "tail_jobs_beyond": beyond,
        "attempted": runner.attempted,
        "failed_ratio": runner.failed / runner.attempted,
        "setup_ok": setup_ok, "outputs_sha256": runner.outputs_digest(),
        "problems": runner.problems[:10],
    })
    correct = report["preflight_ok"] and setup_ok and runner.failed == 0
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
