"""repairbound benchmark: two CLI workloads with exact output checks.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-544 --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

Each workload runs as a sequence of ``repairbound.cli.main(argv)`` calls in
one single-threaded workload process (``worker.py``), one process at a time.
With ``--trace 0`` the run repeats the op list for ``--seconds`` and reports
the end-to-end metrics, timing each op against a host-speed probe taken on
its CPU around and during it (see ``end_to_end``); with ``--trace 1`` it
runs the op list once untraced and once traced and reports the per-layer
metrics of ``layers.py``.  Every op is checked against the outputs pinned in
``workloads.py``; every written certificate is re-verified with
``certificate.verify`` outside the timed region; every written certificate
and report is hashed and compared across repetitions and, through
``.perfbench_out/state.json``, across the runs of the same ``src/`` made in
the same checkout.
A check that fails counts the op as failed; it never aborts the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORK = OUT / "work"
STATE = OUT / "state.json"

sys.path.insert(0, str(HERE))

from worker import fraction_loop_s, pin_fastest_cpu  # noqa: E402
from workloads import WORKLOADS, ops_for  # noqa: E402

# layers each workload must call at least once, so that a refactor cannot
# silently zero one; a traced run that records no call of one fails loudly
EXPECTED_LAYERS = {
    "verify-544": (
        "ratlp.incremental.init", "ratlp.incremental.solve", "certificate.check_row",
        "certificate.load", "certificate.verify", "cli.main",
    ),
    "prove": (
        "ratlp.solve", "ratlp.check_duals", "instance.enumerate_rows",
        "universe.canon_mask", "universe.closure_mask", "prover.default_family",
        "prover.prove", "region.from_halfplanes", "cutset.facets", "cli.main",
    ),
}
# layers a workload must not call: the active-set verifier rung belongs to
# verify-544 alone
UNUSED_LAYERS = {
    w: ("ratlp.incremental.init", "ratlp.incremental.add_rows", "ratlp.incremental.solve")
    for w in WORKLOADS
    if w != "verify-544"
}

# the CLI's verdict exit codes (valid or success, invalid, unverified); an op
# that fails with one of them made a wrong claim, while exit 3 (usage or I/O
# error) or a crash is a failure without a claim
VERDICTS = (0, 1, 2)
SETUP_SAMPLES = 8
DRIFT_LOOP = 40000  # iterations of the host-drift diagnostic's Fraction loop
RUN_LIMIT_S = 170  # a run must end within 180 s, waiting included


class BenchError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env.pop("REPAIRBOUND_LOG", None)  # the log level is written into outputs
    return env


def setup_samples(count: int) -> list:
    """Seconds for fresh interpreters to import repairbound.cli (cold start)."""
    cmd = [sys.executable, "-c", "import repairbound.cli"]
    env = child_env()
    cpus = os.sched_getaffinity(0)
    samples = []
    try:
        for _ in range(count):
            pin_fastest_cpu(sorted(cpus)[:8])  # the interpreter inherits the CPU
            t0 = perf_counter()
            # no timeout: with one, the wait polls in steps of up to 50 ms
            subprocess.run(cmd, env=env, cwd=ROOT, check=True)
            samples.append(perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    spec = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "spans": str(OUT / f"{workload}.spans.json"),
    }
    spec_path, result_path = OUT / "spec.json", OUT / "worker-result.json"
    spec_path.write_text(json.dumps(spec))
    result_path.unlink(missing_ok=True)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
        cwd=WORK,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=max(deadline - perf_counter(), 1),
    )
    if proc.returncode != 0:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(result_path.read_text())


def units(kind: str) -> dict:
    """Metric name -> unit, for "end_to_end" or "per_layer" of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def src_files() -> list:
    return sorted((ROOT / "src").rglob("*.py"))


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in src_files())


def src_version() -> str:
    """Content hash of src/ and of the op lists: the outputs and counters of
    earlier runs are compared only with runs of the same code on the same
    ops."""
    h = hashlib.sha256()
    for p in [*src_files(), HERE / "workloads.py", HERE / "layers.py"]:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def load_states() -> dict:
    """Source version -> what earlier runs of that version saw."""
    try:
        return json.loads(STATE.read_text())
    except FileNotFoundError:
        return {}


def save_state(version: str, state: dict) -> None:
    every = load_states()
    every[version] = state
    tmp = STATE.with_suffix(".tmp")
    tmp.write_text(json.dumps(every, indent=1, sort_keys=True))
    os.replace(tmp, STATE)


def reverify(certs: dict) -> list:
    """Re-check written certificates with certificate.verify; list problems."""
    from repairbound.certificate import CertificateError, load, verify
    from repairbound.universe import build_universe

    problems, universes = [], {}
    for path, (n, k, bound) in certs.items():
        if (n, k) not in universes:
            universes[n, k] = build_universe(n, k)
        try:
            report = verify(universes[n, k], load(WORK / path))
        except (CertificateError, OSError) as e:
            problems.append(f"{path}: cannot re-verify: {e}")
            continue
        if report.overall != "VALID" or report.bound != bound:
            problems.append(f"{path}: re-verify gave {report.overall} {report.bound}")
    return problems


def check(workload: str, ops: list, result: dict, state: dict) -> dict:
    """Compare every op execution with its oracle; count failures."""
    failed = incorrect = 0
    notes = {}  # reason -> number of op executions that failed with it
    iterations = result["iterations"]
    for it, records in enumerate(iterations):
        last = it == len(iterations) - 1
        for i, (op, rec) in enumerate(zip(ops, records)):
            problems = []
            if rec["code"] != 0:
                problems.append(f"exit {rec['code']}: {rec['stderr'].strip()}")
            lines = sorted(rec["stdout"]) if op.unordered else rec["stdout"]
            if rec["code"] == 0 and tuple(lines) != op.stdout:
                problems.append(f"stdout {rec['stdout']} != {list(op.stdout)}")
            for path, dig in rec["digests"].items():
                if dig != iterations[0][i]["digests"].get(path):
                    problems.append(f"{path}: bytes differ between repetitions")
                seen = state["digests"].setdefault(f"{workload}/{path}", dig)
                if seen != dig:
                    problems.append(f"{path}: bytes differ from an earlier run")
            if last and rec["code"] == 0:
                if op.report:
                    path, depths = op.report
                    try:
                        got = tuple(r["depth"] for r in json.loads((WORK / path).read_text())["rows"])
                    except (OSError, ValueError, KeyError, TypeError) as e:
                        got = f"unreadable ({e!r})"
                    if got != depths:
                        problems.append(f"{path}: row depths {got}, expected {depths}")
                problems += reverify(op.certs)
            if problems:
                failed += 1
                incorrect += rec["code"] in VERDICTS
                note = f"{op.name}: " + "; ".join(problems)
                notes[note] = notes.get(note, 0) + 1
    attempted = len(iterations) * len(ops)
    return {"attempted": attempted, "failed": failed, "incorrect": incorrect, "notes": notes}


def end_to_end(ops: list, result: dict, outcome: dict, setup: float) -> tuple:
    """End-to-end metrics, and per op its median seconds and reference cost.

    An op's reference cost is its time divided by the mean time of the host
    probe loop on its CPU before, while (every ``worker.SAMPLE_EVERY_S``)
    and after it ran: the number of probe loops the op took.  The host's
    speed drops by up to 2x for seconds to minutes at a time, and op time
    and probe time drop together, so the ratio holds where the seconds
    swing.  ``wall_ref`` sums each op's median ratio over the run's
    repetitions.
    """
    iterations = result["iterations"]
    per_op = {}
    for i, op in enumerate(ops):
        recs = [rep[i] for rep in iterations]
        per_op[op.name] = {
            "s": statistics.median(r["seconds"] for r in recs),
            "ref": statistics.median(r["seconds"] / statistics.mean(r["probe_s"]) for r in recs),
        }
    return {
        "wall_ref": sum(o["ref"] for o in per_op.values()),
        "setup_s": setup,
        "peak_rss_mb": result["peak_rss_mb"],
        "ok_share": (outcome["attempted"] - outcome["failed"]) / outcome["attempted"],
    }, per_op


def per_layer(workload: str, untraced: dict, traced: dict, state: dict) -> dict:
    calls = traced["counters"]
    missing = [n for n in EXPECTED_LAYERS[workload] if not calls[f"{n}.calls"]]
    if missing:
        raise BenchError(f"{workload}: traced run recorded no calls of {missing}")
    unused = [n for n in UNUSED_LAYERS.get(workload, ()) if calls[f"{n}.calls"]]
    if unused:
        raise BenchError(f"{workload}: traced run called {unused}, which it must not use")
    seen = state["counters"].setdefault(workload, traced["counters"])
    diff = {k: (seen.get(k), v) for k, v in traced["counters"].items() if seen.get(k) != v}
    if diff:
        raise BenchError(f"{workload}: counters differ from an earlier traced run: {diff}")

    def wall(result):
        return sum(r["seconds"] for r in result["iterations"][0])

    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = wall(traced) - wall(untraced)
    return layers


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    ops = ops_for(workload, seed)
    version = src_version()
    state = load_states().get(version, {"digests": {}, "counters": {}})
    drift_before = fraction_loop_s(DRIFT_LOOP)
    if trace:
        untraced = run_worker(workload, seed, 0, False, deadline)
        traced = run_worker(workload, seed, 0, True, deadline)
        outcomes = [check(workload, ops, r, state) for r in (untraced, traced)]
        metrics = per_layer(workload, untraced, traced, state)
        per_op = {}
    else:
        setup_samples(1)  # untimed: writes the bytecode cache
        # half the cold starts before the workload and half after, so the
        # median spans more of the host's speed swings
        setup = setup_samples(SETUP_SAMPLES // 2)
        result = run_worker(workload, seed, seconds, False, deadline)
        setup += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        outcomes = [check(workload, ops, result, state)]
        metrics, per_op = end_to_end(ops, result, outcomes[0], statistics.median(setup))
    drift_after = fraction_loop_s(DRIFT_LOOP)
    save_state(version, state)

    wanted = units("per_layer" if trace else "end_to_end")
    absent = sorted(set(wanted) - set(metrics))
    if absent:
        raise BenchError(f"{workload}: no value for the metrics {absent}")
    attempted = sum(o["attempted"] for o in outcomes)
    failed = sum(o["failed"] for o in outcomes)
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "correct": not any(o["incorrect"] for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "fail_share": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in wanted.items()},
        "per_op": per_op,
        # informational: seconds swing with the host's speed
        "wall_s": sum(o["s"] for o in per_op.values()),
        "notes": [f"{count}x {note}" for o in outcomes for note, count in o["notes"].items()],
        # informational, never used to rescale a metric
        "host_fraction_loop_s": {"before": drift_before, "after": drift_after},
        "src_lines": src_lines(),
    }
    if not trace:
        report["setup_samples_s"] = setup
    (OUT / f"{workload}.result.json").write_text(json.dumps(report, indent=1))
    return report


def describe(report: dict) -> None:
    print(
        f"{report['workload']} seed={report['seed']} trace={int(report['trace'])} "
        f"attempted={report['attempted']} failed={report['failed']} "
        f"fail_share={report['fail_share']:.4f} correct={report['correct']}"
    )
    for name, m in report["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for name, o in report["per_op"].items():
        print(f"  op {name!r}: {o['ref']:.1f} ref, {o['s']:.4f} s")
    if report["per_op"]:
        print(f"  wall_s = {report['wall_s']:.4f} s (median seconds, not a metric)")
    for note in report["notes"]:
        print(f"  FAILED {note}")
    drift = report["host_fraction_loop_s"]
    print(
        f"  host Fraction loop {drift['before']:.4f} s before, {drift['after']:.4f} s after; "
        f"src/ has {report['src_lines']} lines"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [
        ROOT / "src" / "repairbound" / "cli.py",
        ROOT / "data" / "prop1.cert.json",
        ROOT / "BENCHMARK.json",
    ]
    absent = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if absent:
        print(f"error: not a repairbound checkout, missing {absent}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            reports.append(run_workload(name, args.seed, args.seconds, bool(args.trace)))
            describe(reports[-1])
    except (BenchError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": m for r in reports for name, m in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            },
            ensure_ascii=False,
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
