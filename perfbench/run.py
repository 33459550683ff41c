"""qcoh benchmark: seeded request streams, run in process by one closed-loop
client, with every output checked against a recorded digest.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # each workload in a fresh process
    python3 perfbench/run.py --record-oracle              # re-record perfbench/oracle.json

--trace 0 replays the seed's round of requests until --seconds have passed
(whole rounds, at least 100 requests) and reports the end-to-end metrics.
--trace 1 runs the round in two fresh worker processes with different hash
seeds.  Each runs it twice untraced (a warm-up, then the baseline for the
tracing overhead) and once traced.  The run reports span
and count metrics per layer, the tracing overhead, and fails when the two
workers disagree on any count.  A traced run does a fixed amount of work,
so that its counts repeat exactly; it ignores --seconds.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from math import ceil
from pathlib import Path

import calibrate
import workloads
from workloads import ROOT, WORKLOADS

HERE = Path(__file__).resolve()
DEFAULT_SEED = 0
SETUP_SAMPLES = 9
MIN_REQUESTS = 100
LAST_ROUND_START_S = 120  # no round starts after this, so a run ends within 180 s
WORKER_TIMEOUT_S = 80
CALIBRATION_WINDOW_S = 0.03
TRACE_DIR = ROOT / ".perfbench-out"

UNITS = {
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _parser():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-oracle", action="store_true",
                   help="run every request a seed can draw and record its output digest")
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return p


def _result_line(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}, sort_keys=True))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(failures, limit=5):
    for key, reason in failures[:limit]:
        print("  FAILED %s: %s" % (key, reason))
    if len(failures) > limit:
        print("  ... and %d more failures" % (len(failures) - limit))


class Inputs:
    """The seed's round and its generated files, in a temporary directory
    inside the checkout that is removed on exit."""

    def __init__(self, workload, seed):
        self.requests, self.files = workloads.make_round(workload, seed)
        self.seed = seed
        self.dir = None
        self.digests = None

    def __enter__(self):
        self.dir = tempfile.mkdtemp(prefix=".perfbench-inputs-", dir=ROOT)
        self.digests = workloads.write_files(self.files, self.seed, self.dir)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.dir, ignore_errors=True)


# -- end-to-end run ---------------------------------------------------------------


def setup_times(workload):
    """Set-up seconds in fresh interpreters, scaled to the reference speed;
    the first start, which may compile bytecode, is dropped."""
    probe = HERE.parent / "probe_setup.py"
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, str(probe), workload],
                              capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
        if i:
            got = json.loads(proc.stdout)
            samples.append(got["setup_s"] * calibrate.REF_SECONDS / got["ref_s"])
    return samples


class Pass:
    """Requests run back to back, with a reference burst after every
    CALIBRATION_WINDOW_S of request time.

    `raw` holds each request's wall seconds and `scaled` the same scaled
    to the reference speed, by the mean of the bursts just before and just
    after the request's window.  Call `finish` before reading `scaled`."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.raw = []
        self.scaled = []
        self.failures = []
        self.refs = [calibrate.reference_time()]
        self._window = []

    def run(self, req, run_one):
        res = run_one(req)
        self.raw.append(res.seconds)
        self._window.append(res.seconds)
        if sum(self._window) >= CALIBRATION_WINDOW_S:
            self._close_window()
        reason = workloads.failure_reason(res, self.oracle.get(req.key))
        if reason:
            self.failures.append((req.key, reason))

    def _close_window(self):
        self.refs.append(calibrate.reference_time())
        scale = 2 * calibrate.REF_SECONDS / (self.refs[-2] + self.refs[-1])
        self.scaled.extend(s * scale for s in self._window)
        self._window = []

    def finish(self):
        if self._window:
            self._close_window()
        return self

    def req_per_s(self):
        return len(self.scaled) / sum(self.scaled)


def measure(workload, seed, seconds):
    setup_samples = setup_times(workload)
    qcoh = workloads.import_qcoh()
    setup = workloads.Setup(workload)
    oracle = workloads.load_oracle()["workloads"][workload]
    chain = workloads.library_chain(qcoh.sections)

    def run_one(req):
        return workloads.run_request(req, setup, qcoh.cli.main, chain)

    rounds = 0
    with Inputs(workload, seed) as inputs, workloads.chdir(inputs.dir):
        timing = Pass(oracle)
        start = time.perf_counter()
        while True:
            for req in inputs.requests:
                timing.run(req, run_one)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= LAST_ROUND_START_S or (
                elapsed >= seconds and len(timing.raw) >= MIN_REQUESTS
            ):
                break
        timing.finish()
        per_round = len(inputs.requests)
    n = len(timing.scaled)
    p90_rank = ceil(0.9 * n)

    def summary(latencies):
        return {
            "req_per_s": n / sum(latencies),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_p90_ms": sorted(latencies)[p90_rank - 1] * 1e3,
        }

    metrics = summary(timing.scaled)
    metrics["setup_s"] = statistics.median(setup_samples)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    raw = summary(timing.raw)
    failures = timing.failures
    print("workload %s  seed %d  %d rounds of %d requests  wall %.1f s  busy %.1f s"
          % (workload, seed, rounds, per_round, elapsed, sum(timing.raw)))
    print("  %-15s %12s %12s" % ("", "scaled", "raw wall"))
    for name, value in metrics.items():
        print("  %-15s %12.4f %12s %s" % (
            name, value, "%.4f" % raw[name] if name in raw else "", UNITS[name]))
    print("  latency samples %d, %d beyond p90; setup_s is the median of %d fresh interpreters"
          % (n, n - p90_rank, len(setup_samples)))
    print("  host speed: reference burst %.2f ms (median) against %.2f ms nominal"
          % (1e3 * statistics.median(timing.refs), 1e3 * calibrate.REF_SECONDS))
    print("  fail_rate       %12.4f   (%d of %d requests failed)"
          % (len(failures) / n, len(failures), n))
    _print_failures(failures)
    _result_line(not failures, n, len(failures),
                 {name: _metric(v, UNITS[name]) for name, v in metrics.items()})
    return 0 if not failures else 1


# -- traced run ---------------------------------------------------------------------


def trace_worker(workload, seed, worker):
    """A warm-up pass, an untraced pass and a traced pass over the round;
    prints the counts and timings as JSON."""
    import tracing

    qcoh = workloads.import_qcoh()
    oracle = workloads.load_oracle()["workloads"][workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.root("setup", 0):
            setup = workloads.Setup(workload)
    finally:
        tracer.uninstall()
    chain = workloads.library_chain(qcoh.sections)

    def run_one(req):
        return workloads.run_request(req, setup, qcoh.cli.main, chain)

    request_ids = itertools.count(1)

    def run_traced(req):
        with tracer.root("request", next(request_ids)):
            res = run_one(req)
        if req.argv is not None:
            tracer.values["cli.output_bytes"] += len(res.out)
        digits = workloads.max_denominator_digits(res.out)
        if digits > tracer.values["algebra.max_denominator_digits"]:
            tracer.values["algebra.max_denominator_digits"] = digits
        return res

    with Inputs(workload, seed) as inputs, workloads.chdir(inputs.dir):
        warm, untraced, traced = Pass(oracle), Pass(oracle), Pass(oracle)
        for req in inputs.requests:
            warm.run(req, run_one)
        for req in inputs.requests:
            untraced.run(req, run_one)
        tracer.install()
        try:
            for req in inputs.requests:
                traced.run(req, run_traced)
        finally:
            tracer.uninstall()
        warm.finish(), untraced.finish(), traced.finish()
        files = inputs.digests
        n = len(inputs.requests)
    failures = warm.failures + untraced.failures + traced.failures
    span_file = None
    if worker == 0:
        TRACE_DIR.mkdir(exist_ok=True)
        span_file = TRACE_DIR / ("spans-%s.jsonl.gz" % workload)
        spans = tracer.write(span_file)
    else:
        spans = len(tracer.start)
    print(json.dumps({
        "attempted": 3 * n,
        "failed": len(failures),
        "failures": failures[:5],
        "counts": tracer.counts(),
        "timings": tracer.timings(),
        "shares": tracer.layer_shares(),
        "untraced_req_per_s": untraced.req_per_s(),
        "traced_req_per_s": traced.req_per_s(),
        "files": files,
        "spans": spans,
        "span_file": str(span_file.relative_to(ROOT)) if span_file else None,
    }, sort_keys=True))
    return 0


def _run_worker(workload, seed, worker):
    env = dict(os.environ, PYTHONHASHSEED=str(worker + 1))
    proc = subprocess.run(
        [sys.executable, str(HERE), "--workload", workload, "--seed", str(seed),
         "--trace", "1", "--worker", str(worker)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=env,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError("trace worker %d failed: %s" % (worker, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _count_unit(name):
    if name == "cli.output_bytes":
        return "bytes"
    if name == "algebra.max_denominator_digits":
        return "digits"
    return "count"


def trace_run(workload, seed):
    import tracing

    first = _run_worker(workload, seed, 0)
    second = _run_worker(workload, seed, 1)
    mismatched = sorted(k for k in first["counts"] if first["counts"][k] != second["counts"].get(k))
    files_differ = first["files"] != second["files"]
    failures = [tuple(f) for f in first["failures"] + second["failures"]]
    failed = first["failed"] + second["failed"]
    attempted = first["attempted"] + second["attempted"]
    correct = not failed and not mismatched and not files_differ

    metrics = {}
    for name, value in first["counts"].items():
        metrics[name] = _metric(value, _count_unit(name))
    for name, value in first["timings"].items():
        metrics[name] = _metric(value, "s")
    for layer, share in first["shares"].items():
        metrics[layer + ".self_share"] = _metric(share, "ratio")
    ratio = first["traced_req_per_s"] / first["untraced_req_per_s"]
    metrics["bench.traced_req_per_s_ratio"] = _metric(ratio, "ratio")

    print("workload %s  seed %d  traced: one round per worker, two workers" % (workload, seed))
    print("  %-34s %10s %12s %12s" % ("span", "calls", "total_s", "self_s"))
    for name, _, _ in tracing.SPANS:
        calls = first["counts"][name + ".calls"]
        note = "" if calls else "   (never reached by this workload's requests)"
        print("  %-34s %10d %12.4f %12.4f%s" % (
            name, calls, first["timings"][name + ".total_s"],
            first["timings"][name + ".self_s"], note))
    print("  counts:")
    for name, _, _, _ in tracing.COUNTERS:
        calls = first["counts"][name + ".calls"]
        note = "" if calls else "   (never reached by this workload's requests)"
        print("  %-34s %10d%s" % (name + ".calls", calls, note))
    for name in tracing.VALUE_COUNTS:
        print("  %-34s %10d" % (name, first["counts"][name]))
    print("  self-time share per layer (bench = client and qcoh code outside the spans):")
    for layer, share in first["shares"].items():
        print("  %-34s %9.1f%%" % (layer, 100 * share))
    print("  tracing overhead: traced/untraced req_per_s = %.3f (%.2f vs %.2f 1/s)"
          % (ratio, first["traced_req_per_s"], first["untraced_req_per_s"]))
    print("  spans kept: %d, written to %s" % (first["spans"], first["span_file"]))
    if mismatched:
        print("  DETERMINISM: counts differ between the two workers: %s" % ", ".join(mismatched))
    if files_differ:
        print("  DETERMINISM: the two workers generated different input files")
    _print_failures(failures)
    _result_line(correct, attempted, failed, metrics)
    return 0 if correct else 1


# -- all workloads ----------------------------------------------------------------


def run_all(seed, seconds, trace):
    """Each workload in its own fresh process, one after the other."""
    combined, correct, attempted, failed = {}, True, 0, 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.stderr:
            sys.stderr.write(proc.stderr)
        if not lines or not lines[-1].startswith("{"):
            print("workload %s produced no result (exit %d)" % (workload, proc.returncode))
            return 2
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for name, metric in result["metrics"].items():
            combined["%s.%s" % (workload, name)] = metric
    _result_line(correct, attempted, failed, combined)
    return 0 if correct else 1


# -- oracle -------------------------------------------------------------------------


def record_oracle():
    """Run every request any seed can draw, insist that it passes, and
    record the sha256 of its canonical output."""
    qcoh = workloads.import_qcoh()
    chain = workloads.library_chain(qcoh.sections)
    recorded = {}
    for workload in WORKLOADS:
        setup = workloads.Setup(workload)
        digests = {}
        with Inputs(workload, DEFAULT_SEED) as inputs, workloads.chdir(inputs.dir):
            for req in workloads.request_space(workload):
                res = workloads.run_request(req, setup, qcoh.cli.main, chain)
                if res.exit != 0 or res.error or (
                    req.argv is not None and not workloads.passing_status(res)
                ):
                    raise RuntimeError("request does not pass: %s: exit %r %s"
                                       % (req.key, res.exit, res.error))
                digests[req.key] = workloads.digest(res.out)
        recorded[workload] = dict(sorted(digests.items()))
        print("%s: %d requests recorded" % (workload, len(digests)))
    payload = {
        "about": "sha256 of the canonical output of every request a seed can draw: "
                 "CLI stdout bytes, or the sorted JSON of Q and H_0 for library requests",
        "python": platform.python_version(),
        "workloads": recorded,
    }
    with open(workloads.ORACLE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def _stop(signum, frame):
    sys.exit(128 + signum)  # unwinds, so temporary inputs are removed


def main(argv=None):
    signal.signal(signal.SIGTERM, _stop)
    args = _parser().parse_args(argv)
    try:
        workloads.import_qcoh()
    except workloads.SourceMissing as exc:
        sys.stderr.write("perfbench: %s\n" % exc)
        return 2
    if args.record_oracle:
        return record_oracle()
    if args.workload is None:
        _parser().error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    if args.worker is not None:
        return trace_worker(args.workload, args.seed, args.worker)
    if args.trace:
        return trace_run(args.workload, args.seed)
    return measure(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
