"""Every request the benchmark can draw, against its recorded output.

perfbench/oracle.json holds the sha256 digest of the output of every
request in `workloads.request_space` of the three workloads.  One seeded
benchmark run reaches only the requests its seed draws; this replays all
of them in process, with the seeded input files written to a temporary
directory.  perfbench/workloads.py is imported, never changed.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ("solve", "construct", "ring"))
def test_every_benchmark_request_matches_the_oracle(workloads, workload, tmp_path, monkeypatch):
    qcoh = workloads.import_qcoh()
    setup = workloads.Setup(workload)
    chain = workloads.library_chain(qcoh.sections)
    oracle = workloads.load_oracle()["workloads"][workload]
    requests = workloads.request_space(workload)
    assert sorted(req.key for req in requests) == sorted(oracle)
    workloads.write_files(workloads.make_round(workload, 1)[1], 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    failures = []
    for req in requests:
        result = workloads.run_request(req, setup, qcoh.cli.main, chain)
        reason = workloads.failure_reason(result, oracle[req.key])
        if reason:
            failures.append((req.key, reason))
    assert not failures, failures[:5]
