"""Workload process: runs one workload's op list through repairbound.cli.main.

Usage: python3 worker.py SPEC_JSON RESULT_JSON

SPEC_JSON names the workload, seed, seconds and whether to trace.  The
process runs in the work directory with the package on PYTHONPATH, and
writes what it saw (per-op exit codes, stdout, seconds, output digests and
host-speed probe times, peak RSS, and with tracing the per-layer record)
to RESULT_JSON.  Each op runs pinned to the CPU that is fastest just
before it; an untraced run also samples the host's speed on that CPU while
the op runs.  A traced run writes its spans, at exit, to the path the spec
names.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ops_for  # noqa: E402


def digest(path: Path) -> str:
    """sha256 of an output file, with its run-config list sorted.

    The run-config records the argv order of --dir, which the seed permutes;
    sorting that one list lets outputs be compared across seeds.
    """
    blob = path.read_bytes()
    try:
        obj = json.loads(blob)
    except ValueError:
        return hashlib.sha256(blob).hexdigest()
    meta = obj.get("meta", obj) if isinstance(obj, dict) else {}
    if isinstance(meta, dict) and isinstance(meta.get("run-config"), list):
        meta["run-config"] = sorted(meta["run-config"])
    return hashlib.sha256(json.dumps(obj, indent=1).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process, from VmHWM.

    ru_maxrss would also count the parent's resident memory at the fork that
    started this process.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


SAMPLE_EVERY_S = 0.1  # host-speed samples while an op runs


def fraction_loop_s(iterations: int = 500) -> float:
    """Seconds for a fixed stdlib-only Fraction loop: the host-speed probe.

    It runs no repairbound code, so a change to the program leaves it as
    it is.
    """
    t0 = perf_counter()
    acc = 0
    for i in range(1, iterations + 1):
        acc += (Fraction(i, i % 97 + 1) + Fraction(i % 89 + 1, i % 83 + 2)).numerator
    return perf_counter() - t0


def probe_s() -> float:
    """The host's current speed on this process's CPU: best of 3 loops."""
    return min(fraction_loop_s() for _ in range(3))


def pin_fastest_cpu(cpus: list) -> float:
    """Move this process to the CPU on which the probe runs fastest now and
    return that probe time.

    On a shared host each vCPU has spells in which it runs at half speed,
    mostly not at the same time as the others.  Pinned, the op and the
    probes taken while it runs share one CPU.
    """
    if len(cpus) < 2:
        return probe_s()
    times = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times[cpu] = probe_s()
    fastest = min(times, key=times.get)
    os.sched_setaffinity(0, {fastest})
    return times[fastest]


class HostSampler:
    """Times the probe loop every SAMPLE_EVERY_S while an op runs.

    The samples are taken by a SIGALRM handler, so in the op's own thread
    and on its CPU; ``spent`` is the handler's time, which the op's time
    leaves out.
    """

    def __init__(self):
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = perf_counter()
        self.samples.append(fraction_loop_s())
        self.spent += perf_counter() - t0

    def start(self):
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def run_op(cli, op, tracer, sampler, op_id, cpus) -> dict:
    """Run one op; with a sampler, sample the host's speed while it runs."""
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.op = op_id
    before = pin_fastest_cpu(cpus)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        if sampler is not None:
            sampler.start()
        try:
            code = cli.main(list(op.argv))
        except Exception:  # a crash is a failed op, not the end of the run
            code = None
            traceback.print_exc(file=err)
        finally:
            if sampler is not None:
                sampler.stop()
        seconds = perf_counter() - t0
    samples = []
    if sampler is not None:
        seconds -= sampler.spent
        samples = sampler.samples
    files = [*op.certs] + ([op.report[0]] if op.report else [])
    return {
        "op": op.name,
        "code": code,
        "seconds": seconds,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue(),
        "digests": {f: digest(Path(f)) for f in files if Path(f).is_file()},
        # probe seconds on the op's CPU: before, while and after it ran
        "probe_s": [before, *samples, probe_s()],
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import repairbound.cli as cli

    tracer = None
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    # a traced run leaves the host unsampled: the handler's time would land
    # in whichever layer it interrupts
    sampler = None if tracer else HostSampler()
    ops = ops_for(spec["workload"], spec["seed"])
    cpus = sorted(os.sched_getaffinity(0))[:8]
    iterations = []
    start = perf_counter()
    while True:
        records = [
            run_op(cli, op, tracer, sampler, f"{len(iterations)}:{i}", cpus)
            for i, op in enumerate(ops)
        ]
        iterations.append(records)
        elapsed = perf_counter() - start
        # start another repetition only if it should end within the budget
        if elapsed + elapsed / len(iterations) > spec["seconds"]:
            break
    result = {
        "iterations": iterations,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["counters"] = tracer.deterministic()
        result["layers"] = tracer.metrics()
        Path(spec["spans"]).write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"], "spans": tracer.spans})
        )
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
