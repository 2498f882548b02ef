"""The benchmark's per-layer tracer (perfbench/layers.py) wraps package
functions by name; a refactor that renames or drops one must fail here,
not only in a traced benchmark run."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
LAYERS_PY = BENCH / "layers.py"


def traced_layers():
    # exec the source instead of importing it, so no bytecode cache is
    # written next to the benchmark
    namespace = {"__name__": "perfbench_layers"}
    source = LAYERS_PY.read_text(encoding="utf-8")
    exec(compile(source, str(LAYERS_PY), "exec"), namespace)
    return namespace["LAYERS"]


def test_every_traced_layer_resolves():
    layers = traced_layers()
    assert layers
    for name, modname, attr, _hot in layers:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"layer {name}: {modname}.{attr} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"layer {name}: {modname}.{attr} is not callable"


def bench_names(path, names, namespace):
    """Run only the top-level assignments to `names` of a benchmark
    script, read with ast, so none of its imports or side effects run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    keep = [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)
    ]
    exec(compile(ast.Module(keep, []), str(path), "exec"), namespace)
    return namespace


# a small op list per workload that calls each layer the benchmark's
# workload calls: the prove workload's solve and region ops on one
# (4,3,3) direction, and the verify-544 workload's verify of prop1
TRACED_OPS = {
    "prove": [
        ["solve", "--n", "4", "--k", "3", "--depth", "1", "--dir", "4,6"],
        ["region", "--n", "4", "--k", "3", "--cutset", "--cert", "bound-n4-k3-d3-4-6.cert.json"],
    ],
    "verify-544": [["verify", str(ROOT / "data" / "prop1.cert.json")]],
}

TRACE_SCRIPT = """
import json, sys
bench, src, ops = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path[:0] = [bench, src]
from layers import Tracer
tracer = Tracer()
tracer.install()
from repairbound import cli
codes = [cli.main(argv) for argv in ops]
print(json.dumps({"codes": codes, "calls": tracer.calls}))
"""


def traced_calls(ops, cwd):
    """Exit codes of the ops and the calls of each traced layer, run in a
    fresh interpreter that writes no bytecode cache."""
    argv = [sys.executable, "-B", "-c", TRACE_SCRIPT, str(BENCH), str(ROOT / "src")]
    proc = subprocess.run(
        [*argv, json.dumps(ops)], cwd=cwd, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_expected_layer_is_called(tmp_path):
    # resolving is not enough: a layer that the package bypasses, as a
    # private copy of check_duals would be, records no call, and a traced
    # benchmark run then fails on it
    ns = bench_names(BENCH / "workloads.py", {"WORKLOADS"}, {})
    ns = bench_names(BENCH / "run.py", {"EXPECTED_LAYERS", "UNUSED_LAYERS"}, ns)
    expected, unused = ns["EXPECTED_LAYERS"], ns["UNUSED_LAYERS"]
    assert set(expected) == set(TRACED_OPS) >= set(unused)
    for workload, ops in TRACED_OPS.items():
        run = traced_calls(ops, tmp_path)
        assert run["codes"] == [0] * len(ops), workload
        calls = run["calls"]
        assert [n for n in expected[workload] if not calls[n]] == [], workload
        assert [n for n in unused.get(workload, ()) if calls[n]] == [], workload
