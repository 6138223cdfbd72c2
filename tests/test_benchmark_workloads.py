"""The benchmark's workloads still run on the package.

``perfbench/workloads.py`` builds its instances and jobs from the public
``voltlift`` API, including parts no other module calls: ``group.elements()``,
``Representation(group, {element: matrix})`` and
``check_representation(...).passed``.  This test builds every workload at one
seed and runs and summarises each instance's job once, so a change that
breaks one of those names fails here, not only in the benchmark's smoke run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the class is made
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", list(WORKLOADS.BUILDERS))
def test_every_instance_job_runs_and_summarises(name):
    workload = WORKLOADS.build(name, 1)
    assert workload.instances
    for inst in workload.instances:
        result = inst.summarise(inst.job())
        assert result.problems == [], (inst.label, result.problems)
        assert len(result.values) == inst.lift_vertices, inst.label
