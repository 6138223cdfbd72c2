"""The benchmark's span recorder still fits the package.

``perfbench/spans.py`` wraps public voltlift functions and methods by name
from outside the package; a rename or a moved method breaks it.  This test
installs the recorder on the current package and checks that every name
resolves, that traced calls record spans, and that uninstalling restores
every original object.
"""

import importlib.util
import sys
from pathlib import Path

import voltlift

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every (owner, attribute) the recorder may patch, with its current object."""
    out = {}
    attrs = {attr for _, attr in spans.FUNCTIONS.values()}
    for name, mod in list(sys.modules.items()):
        if name == "voltlift" or name.startswith("voltlift."):
            for attr in attrs & set(mod.__dict__):
                out[(name, attr)] = mod.__dict__[attr]
    for module, cls_name, attr in spans.METHODS.values():
        cls = getattr(sys.modules[module], cls_name)
        out[(module, cls_name, attr)] = cls.__dict__[attr]
    return out


def test_tracer_wraps_every_name_and_uninstall_restores_it():
    spans = _load_spans()
    before = _bindings(spans)
    for module, attr in spans.FUNCTIONS.values():
        assert hasattr(sys.modules[module], attr), f"{module}.{attr} is gone"
    for module, cls_name, attr in spans.METHODS.values():
        assert attr in getattr(sys.modules[module], cls_name).__dict__, \
            f"{module}.{cls_name}.{attr} is not defined on that class"

    tracer = spans.Tracer()
    tracer.install()
    try:
        for module, attr in spans.FUNCTIONS.values():
            assert getattr(sys.modules[module], attr) is not before[(module, attr)]
        for module, cls_name, attr in spans.METHODS.values():
            cls = getattr(sys.modules[module], cls_name)
            assert cls.__dict__[attr] is not before[(module, cls_name, attr)]
        with tracer.job_span(0):
            vg = voltlift.johnson_base(5, 2)
            voltlift.lift_spectrum(vg)
        with tracer.job_span(1):
            line = voltlift.circulant_linegraph_base(13, [1, 5])
    finally:
        tracer.uninstall()

    assert _bindings(spans) == before
    recorded = {name for name, *_ in tracer.spans}
    for name in ("orbits.johnson_base", "orbits.token_base_graph",
                 "orbits.circulant_linegraph_base",
                 "orbits.k_set_decomposition", "voltage.match_voltage_pairing",
                 "spectra.lift_spectrum", "voltage.character_matrix",
                 "voltage.base_matrix", "spectra.eigenvalues", "spectra.group"):
        assert name in recorded, name
    # the builder is counted once: it builds through no traced builder
    assert tracer.counts[1]["orbits.base_vertices"] == line.n
