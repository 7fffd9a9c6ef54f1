"""The benchmark's set-up children build the package's objects through its
public API (perfbench/workloads.py, imported read-only).  An API change that
would break them fails here, not in a benchmark run."""

import sys
from pathlib import Path

import pytest

_PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")
sys.path.insert(0, _PERFBENCH)
try:
    from workloads import WORKLOADS
finally:
    sys.path.remove(_PERFBENCH)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_each_workload_sets_up_at_smoke_sizes(name, tmp_path):
    workload = WORKLOADS[name]
    params = workload.params(smoke=True)
    if workload.prepare:
        workload.prepare(params, 0, str(tmp_path))
    workload.setup(params, 0, str(tmp_path))
