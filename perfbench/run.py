#!/usr/bin/env python3
"""PrimePar benchmark: planning, training and plan serving.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the repository's libraries, primepar_worker, primepar_serve and
perfbench_driver from source into .bench_build/, runs one workload,
checks its outputs and prints one JSON object as the last line of
stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
ones. Every process this script starts is stopped and reaped before it
exits, on success and on failure. See perfbench/README.md.
"""

import argparse
import ctypes
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".perfbench_out")


def declared_metrics():
    """Metric name -> unit for the end-to-end and the per-layer sets,
    as BENCHMARK.json at the checkout root declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# The train job: one transformer block on 16 emulated devices
# (perfbench_driver's trainModel() and trainOptions() hold the same),
# run by primepar_worker in the traced run's TCP leg.
TRAIN_JOB = ["--devices", "16", "--batch", "4", "--hidden", "256",
             "--heads", "4", "--ffn", "1024", "--seq", "64",
             "--lr", "1e-4", "--momentum", "0.9"]

BUILD_TIMEOUT_S = 850
# Every process of a run must end within this many seconds of its
# start; on a failure path the rest are killed within 10 s more.
PROCESS_TIMEOUT_S = 150
# Steps of the traced run's TCP leg.
TCP_STEPS = 20


class BenchError(Exception):
    """A run that cannot produce a result (build, crash, hang)."""


LIBC = ctypes.CDLL(None, use_errno=True)


def _die_with_parent():
    # Children must not outlive this script even if it is killed.
    LIBC.prctl(1, signal.SIGKILL)  # PR_SET_PDEATHSIG


def build():
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(min(4, os.cpu_count() or 1))])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT,
                                 timeout=BUILD_TIMEOUT_S)
            if rc != 0:
                with open(log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    return os.path.join(BUILD, name)


class Proc:
    """A child process whose stdout lines are timestamped as they
    arrive; stderr goes to a log file. Reaped with wait4 so its
    resource usage is known."""

    def __init__(self, name, argv):
        self.name = name
        self.lines = []  # (arrival time, line)
        self.cond = threading.Condition()
        self.eof = False
        self.rusage = None
        self.returncode = None
        self.stderr_path = os.path.join(OUT, name + ".stderr")
        self.err = open(self.stderr_path, "w")
        self.p = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                  stderr=self.err, text=True,
                                  preexec_fn=_die_with_parent)
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self):
        for line in self.p.stdout:
            now = time.monotonic()
            with self.cond:
                self.lines.append((now, line.rstrip("\n")))
                self.cond.notify_all()
        with self.cond:
            self.eof = True
            self.cond.notify_all()

    def wait_line(self, pred, deadline):
        """First (time, line) with pred(line), waiting until deadline."""
        seen = 0
        with self.cond:
            while True:
                for t, line in self.lines[seen:]:
                    if pred(line):
                        return t, line
                seen = len(self.lines)
                left = deadline - time.monotonic()
                if self.eof or left <= 0:
                    raise BenchError("%s: no expected output (see %s)"
                                     % (self.name, self.stderr_path))
                self.cond.wait(min(left, 1.0))

    def reap(self, timeout):
        """Wait for exit up to timeout, then kill; always reaps."""
        deadline = time.monotonic() + timeout
        while self.returncode is None:
            pid, status, ru = os.wait4(self.p.pid, os.WNOHANG)
            if pid == self.p.pid:
                self.rusage = ru
                self.returncode = os.waitstatus_to_exitcode(status)
                self.p.returncode = self.returncode
                break
            if time.monotonic() >= deadline:
                self.p.kill()
                _, status, ru = os.wait4(self.p.pid, 0)
                self.rusage = ru
                self.returncode = os.waitstatus_to_exitcode(status)
                self.p.returncode = self.returncode
                break
            time.sleep(0.005)
        self.reader.join(timeout=5)
        self.err.close()
        return self.returncode


def reap_all(procs, timeout):
    """Reap every process; returns how each ended, for diagnostics."""
    deadline = time.monotonic() + timeout
    for proc in procs:
        if proc.returncode is None:
            proc.reap(max(0.0, deadline - time.monotonic()))
    return ", ".join("%s exit %s" % (p.name, p.returncode) for p in procs)


def ready_time(proc, deadline):
    """When perfbench_driver finished set-up, on time.monotonic()'s
    clock (CLOCK_MONOTONIC, as the driver's steady_clock)."""
    _, line = proc.wait_line(lambda l: l.startswith("PERFBENCH_READY "),
                             deadline)
    return float(line.split()[1])


def driver_result(proc, deadline):
    _, line = proc.wait_line(lambda l: l.startswith("PERFBENCH_RESULT "),
                             deadline)
    return json.loads(line[len("PERFBENCH_RESULT "):])


def run_driver(mode, args, extra=()):
    """plan_table2_d32 / train_block_d16: the driver alone."""
    argv = [binary("perfbench_driver"), mode, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    argv += list(extra)
    t0 = time.monotonic()
    deadline = t0 + PROCESS_TIMEOUT_S
    proc = Proc(mode, argv)
    try:
        ready = ready_time(proc, deadline)
        result = driver_result(proc, deadline)
        proc.reap(max(0.0, deadline - time.monotonic()))
    finally:
        reap_all([proc], 10)
    if proc.returncode != 0:
        raise BenchError("%s exited with %d (see %s)"
                         % (mode, proc.returncode, proc.stderr_path))
    if not args.trace:
        result["metrics"]["setup_s"] = ready - t0
    return result


def tcp_losses_match(reference, reported):
    """Every step loss a process printed must equal the in-process
    run's at %.17g — bit-identical, not close. reported maps step ->
    loss text; returns a diagnostic or ""."""
    if sorted(reported) != list(range(len(reference))):
        return "steps %d..%d reported, expected 0..%d" % (
            min(reported, default=-1), max(reported, default=-1),
            len(reference) - 1)
    for step, text in sorted(reported.items()):
        if text != reference[step]:
            return "step %d loss %s, in-process %s" % (
                step, text, reference[step])
    return ""


def run_train(args):
    """train_block_d16. The traced run adds a TCP leg: the same job for
    TCP_STEPS steps under a coordinator and two sharded workers on
    loopback, checked against the in-process losses."""
    if not args.trace:
        return run_driver("train", args)
    ref_path = os.path.join(OUT, "train_losses.txt")
    result = run_driver("train", args, ["--losses-out", ref_path])
    with open(ref_path) as f:
        reference = [l.strip() for l in f if l.strip()][:TCP_STEPS]
    failures, rusage = run_tcp2(args.seed, reference)
    for f in failures:
        sys.stderr.write("check failed: %s\n" % f)
    result["correct"] = result["correct"] and not failures
    for metric, field in (("dist.worker_user_s", "ru_utime"),
                          ("dist.worker_sys_s", "ru_stime"),
                          ("dist.worker_vcsw", "ru_nvcsw")):
        result["metrics"][metric] = (
            sum(getattr(ru, field) for ru in rusage) / len(reference))
    return result


def run_tcp2(seed, reference):
    """Runs the train job for len(reference) steps as a coordinator
    and two sharded workers over loopback TCP. Returns the failed
    checks and the workers' rusage."""
    steps = len(reference)
    procs, workers = [], []
    failures = []
    deadline = time.monotonic() + PROCESS_TIMEOUT_S
    try:
        coord = Proc("tcp2_coordinator", [
            binary("primepar_worker"), "--serve", "--workers", "2",
            "--steps", str(steps), "--seed", str(seed)] + TRAIN_JOB)
        procs.append(coord)
        _, line = coord.wait_line(
            lambda l: l.startswith("PRIMEPAR_COORD_PORT="), deadline)
        port = line.split("=", 1)[1]
        workers = [Proc("tcp2_worker%d" % i, [
            binary("primepar_worker"), "--connect", "127.0.0.1:" + port,
            "--threads", "1"]) for i in range(2)]
        procs += workers
        coord.wait_line(lambda l: l.startswith("coordinator:"), deadline)
        for p in procs:
            if p.reap(max(0.0, deadline - time.monotonic())) != 0:
                failures.append("%s exited with %d" % (p.name, p.returncode))
    except BenchError as e:
        raise BenchError("%s; %s" % (e, reap_all(procs, 10)))
    finally:
        reap_all(procs, 10)

    for w in workers:
        mine = {}
        for _, l in w.lines:
            parts = l.split()
            if len(parts) >= 6 and parts[0] == "worker" and parts[2] == "step":
                mine[int(parts[3])] = parts[5]
        failures.append(tcp_losses_match(reference, mine))
    final = {}
    for _, l in coord.lines:
        if l.startswith("final step "):
            parts = l.split()
            final[int(parts[2])] = parts[4]
    failures.append(tcp_losses_match(reference, final))
    summary = [l for _, l in coord.lines if l.startswith("coordinator:")]
    if not summary or "0 worker(s) lost, 0 divergence(s)" not in summary[-1]:
        failures.append("coordinator summary: %s" % summary)
    return [f for f in failures if f], [w.rusage for w in workers]


def run_serve(args):
    """serve_mix: a primepar_serve daemon with an empty store and one
    DP thread per run, driven by perfbench_driver's closed loop."""
    store = os.path.join(OUT, "serve_store.pps")
    if os.path.exists(store):
        os.remove(store)
    procs = []
    t0 = time.monotonic()
    try:
        daemon = Proc("serve_daemon", [
            binary("primepar_serve"), "--store", store, "--threads", "1",
            "--dp-slots", "1"])
        procs.append(daemon)
        deadline = t0 + PROCESS_TIMEOUT_S
        _, line = daemon.wait_line(
            lambda l: l.startswith("PRIMEPAR_SERVE_PORT="), deadline)
        client = Proc("serve_client", [
            binary("perfbench_driver"), "serve", "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--port", line.split("=", 1)[1], "--store", store])
        procs.append(client)
        ready = ready_time(client, deadline)
        result = driver_result(client, deadline)
        # The client sent the shutdown verb; both must now exit.
        for p in (client, daemon):
            if p.reap(max(0.0, deadline - time.monotonic())) != 0:
                raise BenchError("%s exited with %d (see %s)"
                                 % (p.name, p.returncode, p.stderr_path))
    except BenchError as e:
        raise BenchError("%s; %s" % (e, reap_all(procs, 10)))
    finally:
        reap_all(procs, 10)
        if os.path.exists(store):
            os.remove(store)
    if not args.trace:
        result["metrics"]["setup_s"] = ready - t0
        result["metrics"]["peak_rss_mb"] = daemon.rusage.ru_maxrss / 1024
    return result


WORKLOADS = {
    "plan_table2_d32": lambda a: run_driver("plan", a),
    "train_block_d16": run_train,
    "serve_mix": run_serve,
}


def finish(result, trace):
    """Fill every metric of the chosen set, in its unit. Per-layer
    metrics a workload does not exercise read 0."""
    units = declared_metrics()[1 if trace else 0]
    metrics = {}
    for name, unit in units.items():
        value = result["metrics"].get(name)
        if value is None:
            if not trace:
                raise BenchError("metric %s was not measured" % name)
            value = 0
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": bool(result["correct"]),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": metrics}


def selftest():
    """Each correctness check must reject a perturbed input."""
    rc = subprocess.call([binary("perfbench_driver"), "selftest"])
    ref = ["0.001", "-0.002", "0.0030000000000000001"]
    ok = (tcp_losses_match(ref, {0: "0.001", 1: "-0.002",
                                 2: "0.0030000000000000001"}) == ""
          and tcp_losses_match(ref, {0: "0.001", 1: "-0.002",
                                     2: "0.0030000000000000002"}) != ""
          and tcp_losses_match(ref, {0: "0.001", 1: "-0.002"}) != "")
    print("%s  a TCP loss one digit off, or a missing step, is rejected"
          % ("ok  " if ok else "FAIL"))
    return 0 if rc == 0 and ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload or --selftest is required")
    try:
        build()
        os.makedirs(OUT, exist_ok=True)
        if args.selftest:
            return selftest()
        result = finish(WORKLOADS[args.workload](args), args.trace)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
