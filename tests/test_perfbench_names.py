"""The program names the benchmark harness looks up, checked in tier-1.

``perfbench/`` times the program from outside: ``spans.py`` wraps entry
points by attribute name, and ``run.py`` reads ``FlatDetector('hb').kernel``.
A name deleted or renamed in ``src/`` would otherwise fail only a benchmark
run, so this installs the wrappers on a fresh tracer, puts every original
back, and reads ``kernel``.
"""

import importlib.util
import pathlib

from repro.detector.flat import FlatDetector

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


def test_span_wrappers_find_every_name_and_restore_it():
    spans = load_spans()
    tracer = spans.Tracer()
    try:
        spans.install_layer_wrappers(tracer)
        patches = list(tracer._patches)
    finally:
        tracer.restore()
    assert patches
    for owner, attr, original in patches:
        assert current(owner, attr) is original, f"{owner!r}.{attr}"


def test_kernel_name_is_readable():
    assert FlatDetector("hb").kernel == "pure"
