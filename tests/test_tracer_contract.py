"""The per-layer benchmark run wraps methods by name from each class's own
namespace (`bench/tracer.py`, `METHODS`); a method that moved into a base
class would make every traced run fail."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_method_is_defined_in_its_class_body():
    methods = load_tracer().METHODS
    assert methods
    for (layer, cls_name), names in methods.items():
        cls = getattr(importlib.import_module(f"contractads.{layer}"), cls_name)
        for name in names:
            assert name in vars(cls), f"{layer}.{cls_name}.{name} is not in the class body"


def test_every_traced_layer_is_a_module():
    for layer in load_tracer().LAYERS:
        importlib.import_module(f"contractads.{layer}")
