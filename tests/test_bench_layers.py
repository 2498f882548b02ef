"""The benchmark's per-layer tracer (perfbench/layers.py) wraps package
functions by name; a refactor that renames or drops one must fail here,
not only in a traced benchmark run."""

import importlib
from pathlib import Path

LAYERS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


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
