"""dqcemu benchmark: one workload, end to end or traced by layer.

Run from the root of a checkout (it imports the checkout's ``src``):

    python3 perfbench/run.py --workload nocomm-qpe20 --seed 1 --seconds 10 --trace 0

One single-threaded, closed-loop client raises a real vQPU family with
``orchestrator.qraise`` and keeps at most one program outstanding over at
most two client connections. Every program's output is checked against its
closed-form law. ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same loop with spans around the benchmark's calls into each layer,
then replays the workloads' inputs in-process, and prints the per-layer
metrics. The last line of stdout is one JSON object; the metric names and
units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
RUNS = ROOT / "perfbench" / "runs"
TTL = "00:10:00"  # the family's own deadline if this process dies
SETUP_RAISES = 6  # raise/drop cycles per run, the workload's family included
WATCHDOG_S = 170
MAX_FAILED_PROGRAMS = 20
STAGES = ("setup", "submit", "result", "teardown")
# Stages counted in the result line's attempted/failed. Teardown is counted
# and printed with error_rate, but left out there: qdrop loses the race
# between a vQPU's shutdown ack and its exit at random, more often on a
# loaded host, so those counts would differ between runs of the same code.
RESULT_STAGES = ("setup", "submit", "result")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# span name -> (metric, scale to the metric's unit)
SPAN_METRICS = {
    "orchestrator.qraise": ("orchestrator.qraise_s", 1),
    "orchestrator.qdrop": ("orchestrator.qdrop_s", 1),
    "client.submit": ("client.submit_ms", 1e3),
    "client.upgrade": ("client.upgrade_ms", 1e3),
    "protocol.status_rtt": ("protocol.status_rtt_us", 1e6),
    "wire.encode": ("wire.encode_us", 1e6),
    "wire.decode": ("wire.decode_us", 1e6),
    "backend.validate": ("backend.validate_us", 1e6),
    "circuit.bind_params": ("circuit.bind_params_us", 1e6),
    "engine.run_sampled": ("engine.run_sampled_s", 1),
    "engine.shot_rng": ("engine.shot_rng_us", 1e6),
    "gates.gate_matrix": ("gates.gate_matrix_us", 1e6),
    "channel.inmem_bit": ("channel.inmem_bit_us", 1e6),
    "channel.tcp_send": ("channel.tcp_send_us", 1e6),
    "executor.merge": ("executor.merge_ms", 1e3),
    "executor.shot.q11": ("executor.shot_ms.q11", 1e3),
    "executor.shot.q19": ("executor.shot_ms.q19", 1e3),
}
for _w in (2, 11, 20):
    for _c in ("diag", "ctrl", "perm", "dense"):
        SPAN_METRICS[f"statevector.apply.{_c}.q{_w}"] = (
            f"statevector.apply_us.{_c}.q{_w}", 1e6)
    for _k in ("measure", "reset"):
        SPAN_METRICS[f"statevector.{_k}.q{_w}"] = (f"statevector.{_k}_us.q{_w}", 1e6)


class Watchdog(BaseException):
    """Raised by SIGALRM so that teardown still runs before the deadline."""


def _alarm(_signum, _frame):
    raise Watchdog(f"run exceeded {WATCHDOG_S} s")


@dataclass
class Sample:
    k: int
    latency: float
    records: list
    result_frames: float  # per job
    traced: bool


def pid_gone(pid: int) -> bool:
    try:
        reaped, _ = os.waitpid(pid, os.WNOHANG)
        return reaped == pid
    except ChildProcessError:  # not a child of this process, or reaped
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except PermissionError:
            return False
        return False


def ensure_dead(pids) -> None:
    """Kill and reap any of `pids` still running, so no run leaks into the next."""
    for pid in pids:
        if pid_gone(pid):
            continue
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            continue
        deadline = time.monotonic() + 5.0
        while not pid_gone(pid) and time.monotonic() < deadline:
            time.sleep(0.01)


def vm_hwm_kib(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise ValueError(f"no VmHWM for pid {pid}")


def host_info() -> dict:
    import numpy as np
    caches = {}
    try:
        out = subprocess.run(["getconf", "-a"], capture_output=True, text=True,
                             timeout=10).stdout
        for line in out.splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[0] in ("LEVEL1_DCACHE_SIZE",
                                                "LEVEL2_CACHE_SIZE",
                                                "LEVEL3_CACHE_SIZE"):
                caches[parts[0].split("_")[0].lower()] = int(parts[1])
    except (OSError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "caches_bytes": caches,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS}}


class Session:
    """One run: set-up cycles, the workload's closed loop, teardown and,
    when traced, the layer probes and replays."""

    def __init__(self, workload, seed: int, seconds: float, trace: bool, home: Path):
        from tracing import NullTracer, Tracer
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.home = home
        self.null = NullTracer()
        self.tracer = Tracer() if trace else self.null
        self.ops = {stage: [0, 0] for stage in STAGES}  # attempted, failed
        self.errors: list[str] = []
        self.incorrect = 0
        self.pids: set[int] = set()
        self.raise_s: list[float] = []
        self.samples: list[Sample] = []
        self.layer: dict = {}
        self.rss_mib = None

    def totals(self, stages=STAGES) -> tuple[int, int]:
        """Operations attempted and failed, over `stages`."""
        return (sum(self.ops[s][0] for s in stages),
                sum(self.ops[s][1] for s in stages))

    def attempt(self, stage: str, fn, *args, **kwargs):
        """(True, value) or, counting the failure, (False, None)."""
        self.ops[stage][0] += 1
        try:
            return True, fn(*args, **kwargs)
        except Exception as exc:  # every failure is counted, none is fatal
            self.ops[stage][1] += 1
            self.errors.append(f"{stage}: {type(exc).__name__}: {exc}")
            return False, None

    def family_pids(self, family: str) -> list[int]:
        from dqcemu.registry import read_registry
        return [e.pid for e in read_registry(self.home) if e.family == family]

    def raise_family(self, workload=None):
        """Raise a family for the workload (by default this run's), timing
        qraise only for this run's own family."""
        from dqcemu.orchestrator import qraise
        tracer = self.tracer if workload is None else self.null
        t0 = time.perf_counter()
        with tracer.span("orchestrator.qraise"):
            ok, family = self.attempt("setup", qraise, n=2, ttl=TTL, quiet=True,
                                      **(workload or self.w).family)
        if not ok:
            return None
        if workload is None:
            self.raise_s.append(time.perf_counter() - t0)
        self.pids.update(self.family_pids(family))
        return family

    def drop_family(self, family: str, own: bool = True) -> None:
        from dqcemu.orchestrator import qdrop
        pids = self.family_pids(family)
        with (self.tracer if own else self.null).span("orchestrator.qdrop"):
            self.attempt("teardown", qdrop, family, quiet=True)
        ensure_dead(pids)

    def server_rss_mib(self, family: str):
        """Largest peak resident memory of the family's processes."""
        peaks = []
        for pid in self.family_pids(family):
            try:
                peaks.append(vm_hwm_kib(pid))
            except (OSError, ValueError) as exc:
                self.errors.append(f"server_rss_mib: pid {pid}: {exc}")
        return max(peaks) / 1024 if peaks else None

    def program(self, w, qpus, k: int, state: dict, traced: bool):
        """Submit program k, wait for its last result and check it."""
        tracer = self.tracer if traced else self.null
        inp = w.inputs(self.seed, k)
        logs = [q.connection.frame_log for q in qpus]
        marks = [len(log) for log in logs]
        t0 = time.perf_counter()
        with tracer.span("program", workload=w.name, k=k):
            name = "client.upgrade" if w.is_rebind(k) else "client.submit"
            with tracer.span(name):
                ok, jobs = self.attempt("submit", w.submit, qpus, inp, state)
            if not ok:
                return None
            with tracer.span("client.result"):
                ok, records = self.attempt("result", w.collect, jobs)
        latency = time.perf_counter() - t0
        if not ok:
            return None
        problem = w.check(inp, records)
        if problem is not None:
            self.ops["result"][1] += 1
            self.incorrect += 1
            self.errors.append(f"result: incorrect output of program {k}: {problem}")
            return None
        frames = sum(log[m:].count("result") for log, m in zip(logs, marks))
        return Sample(k, latency, records, frames / len(jobs), traced)

    def closed_loop(self, qpus) -> None:
        """The family's first program warms it up and is not measured. Then
        programs run back to back until `seconds` have passed; a traced run
        alternates traced and untraced programs and needs one of each."""
        state: dict = {}
        warmup = type(self.w)(self.w.warmup_shots or self.w.shots)
        self.program(warmup, qpus, 0, state, traced=False)
        start = time.perf_counter()
        k, failed = 1, 0
        while True:
            traced = self.trace and (k // 2) % 2 == 0
            sample = self.program(self.w, qpus, k, state, traced)
            if sample is None:
                failed += 1
            else:
                self.samples.append(sample)
            k += 1
            kinds = {s.traced for s in self.samples}
            enough = len(kinds) == (2 if self.trace else 1)
            if failed >= MAX_FAILED_PROGRAMS:
                break
            if enough and time.perf_counter() - start >= self.seconds:
                break

    def run(self) -> None:
        from dqcemu.client import get_qpus
        import layers
        for _ in range(SETUP_RAISES - 1):
            family = self.raise_family()
            if family is not None:
                self.drop_family(family)
        family = self.raise_family()
        if family is None:
            return
        qpus = []
        try:
            qpus = get_qpus(family=family)
            self.closed_loop(qpus)
            self.rss_mib = self.server_rss_mib(family)
            if self.trace:
                if self.w.name != "nocomm-small-jobs":
                    self.attempt("result", layers.upgrade_probe, qpus[0], self.tracer)
                for q in qpus:
                    q.close()
                endpoint = qpus[0].entry.endpoint
                self.attempt("result", layers.status_probe, endpoint, self.tracer)
                self.attempt("result", layers.tcp_send_probe, endpoint, self.tracer)
        finally:
            for q in qpus:
                q.close()
            self.drop_family(family)
        if self.trace and self.samples:
            self.layer_metrics()

    def aux_samples(self, workload) -> list[Sample]:
        """Two measured programs of `workload` on a family of its own, for a
        traced run whose workload lacks that family's layer."""
        from dqcemu.client import get_qpus
        family = self.raise_family(workload)
        if family is None:
            return []
        qpus, samples = [], []
        try:
            qpus = get_qpus(family=family)
            state: dict = {}
            for k in range(3):  # the first program warms the family up
                sample = self.program(workload, qpus, k, state, traced=False)
                if sample is not None and k > 0:
                    samples.append(sample)
        finally:
            for q in qpus:
                q.close()
            self.drop_family(family, own=False)
        return samples

    def layer_metrics(self) -> None:
        import layers
        from workloads import ClassicalIpea2, QuantumTelegate8
        traced = [s for s in self.samples if s.traced]
        untraced = [s for s in self.samples if not s.traced]
        m = self.layer
        m["client.result_frames_per_job"] = statistics.median(
            s.result_frames for s in traced)
        m["client.poll_lag_ms"] = 1e3 * statistics.median(
            s.latency - max(r.metadata["queue_wait"] + r.time_taken for r in s.records)
            for s in traced)
        m["server.queue_wait_ms"] = 1e3 * statistics.median(
            r.metadata["queue_wait"] for s in traced for r in s.records)
        m["server.time_taken_s"] = statistics.median(
            r.time_taken for s in traced for r in s.records)
        m["trace.overhead_pct"] = 100 * (
            statistics.median(s.latency for s in traced)
            / statistics.median(s.latency for s in untraced) - 1)
        if self.w.family.get("quantum_comm"):
            merged = self.samples
        else:
            merged = self.aux_samples(QuantumTelegate8(layers.MERGED_SUITE_SHOTS))
        if merged:
            m["executor.forward_overhead_ms"] = 1e3 * statistics.median(
                s.latency - s.records[0].time_taken for s in merged)
        if self.w.family.get("classical_comm"):
            chained = self.samples
        else:
            chained = self.aux_samples(ClassicalIpea2(layers.IPEA_SUITE_SHOTS))
        if chained:
            m.update(layers.suite(self.w, self.seed, self.samples, chained,
                                  self.tracer))
        for span, (metric, scale) in SPAN_METRICS.items():
            if self.tracer.durations(span):
                m[metric] = scale * self.tracer.median(span)

    def end_to_end(self) -> dict:
        latencies = sorted(s.latency for s in self.samples)
        if not latencies or not self.raise_s or self.rss_mib is None:
            return {}
        rank = math.ceil(0.99 * len(latencies))
        return {"setup_s": statistics.median(self.raise_s),
                "program_s": statistics.median(latencies),
                "program_p99_s": latencies[rank - 1],
                "server_rss_mib": self.rss_mib}


def report(session: Session, host: dict, args) -> None:
    w = session.w
    n = len(session.samples)
    attempted, failed = session.totals()
    e2e = session.end_to_end()
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"  why: {w.why}")
    print(f"  shots per program: {w.shots} over 2 vQPUs; {w.n} phase bits")
    print(f"  host: {json.dumps(host)}")
    if e2e:
        print(f"  setup_s {e2e['setup_s']:.4f} s: median of "
              f"{len(session.raise_s)} qraise calls")
        print(f"  program_s {e2e['program_s']:.6f} s: median of {n} "
              f"programs (the family's first program excluded)")
        print(f"  program_p99_s {e2e['program_p99_s']:.6f} s: nearest rank "
              f"over {n} programs, {n - math.ceil(0.99 * n)} beyond it")
        print(f"  server_rss_mib {e2e['server_rss_mib']:.1f} MiB: largest "
              f"VmHWM of the family's processes")
    stages = ", ".join(f"{s} {f}/{a}" for s, (a, f) in session.ops.items())
    print(f"  error_rate {failed / max(attempted, 1):.6f}: {failed} of "
          f"{attempted} operations failed ({stages})")
    attempted, failed = session.totals(RESULT_STAGES)
    print(f"  result line: {failed} of {attempted} operations failed "
          f"({', '.join(RESULT_STAGES)}; teardown left out)")
    for err in session.errors[:20]:
        print(f"    {err}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text()) \
        if (ROOT / "BENCHMARK.json").is_file() else None
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if bench is None or not (SRC / "dqcemu" / "__init__.py").is_file():
        print("perfbench: run from the root of a dqcemu checkout (needs "
              "BENCHMARK.json and src/dqcemu)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(Path(__file__).resolve().parent))
    # spawned vQPUs must import this checkout's code, not an installed copy
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    home = RUNS / f"home-{os.getpid()}"
    os.environ["CUNQA_HOME"] = str(home)  # a private registry per run

    import dqcemu
    if Path(dqcemu.__file__).resolve().parent != (SRC / "dqcemu").resolve():
        print(f"perfbench: imported {dqcemu.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    host = host_info()
    session = Session(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace), home)
    signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(WATCHDOG_S)
    try:
        session.run()
    except Watchdog as exc:
        session.errors.append(str(exc))
    finally:
        signal.alarm(0)
        ensure_dead(session.pids)
        shutil.rmtree(home, ignore_errors=True)

    report(session, host, args)
    section = "per_layer" if args.trace else "end_to_end"
    values = session.layer if args.trace else session.end_to_end()
    missing = [m["name"] for m in bench[section] if m["name"] not in values]
    if missing:
        print(f"perfbench: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    if args.trace:
        RUNS.mkdir(parents=True, exist_ok=True)
        trace_path = RUNS / f"trace-{args.workload}-{args.seed}.jsonl"
        session.tracer.write(trace_path)
        print(f"  spans: {trace_path.relative_to(ROOT)}")
        for m in bench[section]:
            print(f"  {m['name']} {values[m['name']]:.6g} {m['unit']}")
        hours = values["executor.shot_ms.q19"] * 1e4 / 3.6e6
        print(f"  1c n=16 (10^4 shots of the 19-qubit merged circuit), "
              f"extrapolated from executor.shot_ms.q19: {hours:.2f} h")
    attempted, failed = session.totals(RESULT_STAGES)
    print(json.dumps({
        "correct": session.incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in bench[section]},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
