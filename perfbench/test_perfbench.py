"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.import_qcoh()


def _files(workload):
    return workloads.SLOTS[workload]()[1]


def test_same_seed_gives_byte_identical_files(tmp_path):
    for workload in ("construct", "ring"):
        specs = _files(workload)
        assert specs
        first, second, other = (tmp_path / workload / d for d in ("a", "b", "c"))
        for d in (first, second, other):
            d.mkdir(parents=True)
        workloads.write_files(specs, 7, first)
        workloads.write_files(specs, 7, second)
        workloads.write_files(specs, 8, other)
        for spec in specs:
            data = (first / spec.name).read_bytes()
            assert data == (second / spec.name).read_bytes()
        assert any(
            (first / s.name).read_bytes() != (other / s.name).read_bytes() for s in specs
        )


def test_generated_files_parse_with_one_line_per_product(tmp_path):
    from qcoh.operators import load_operators, load_relations

    qcoh = workloads.import_qcoh()
    for workload in ("construct", "ring"):
        specs = _files(workload)
        workloads.write_files(specs, 3, tmp_path)
        for spec in specs:
            model = qcoh.resolve_model(spec.model)
            subs = qcoh.expression_substitutions(model)
            load = load_operators if spec.kind == "ops" else load_relations
            assert len(load(tmp_path / spec.name, model.rank, subs)) == spec.lines


def test_round_depends_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        keys = [r.key for r in workloads.make_round(workload, 5)[0]]
        assert keys == [r.key for r in workloads.make_round(workload, 5)[0]]
        assert keys != [r.key for r in workloads.make_round(workload, 6)[0]]
        assert len(keys) >= 20


def test_oracle_covers_exactly_the_request_space():
    recorded = workloads.load_oracle()["workloads"]
    for workload in workloads.WORKLOADS:
        space = {r.key for r in workloads.request_space(workload)}
        assert space == set(recorded[workload])


def test_max_denominator_digits_reads_rationals_only():
    out = json.dumps({"c": "-3/1234", "op": "q1*D2", "x": "7", "y": "22/7"}).encode()
    assert workloads.max_denominator_digits(out) == 4
    assert workloads.max_denominator_digits(b'{"source": "rel-f3-2.rel"}') == 0


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    clock = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    real = tracing.time.perf_counter
    tracing.time.perf_counter = lambda: next(clock)
    try:
        outer = tracer.index["sections.q_factorize"]
        inner = tracer.index["operators.apply_gauge"]
        tracer.begin(outer)   # 0.0
        tracer.begin(inner)   # 1.0
        tracer.finish()       # 3.0: inner lasted 2
        tracer.begin(inner)   # 4.0
        tracer.finish()       # 4.5: inner lasted 0.5
        tracer.finish()       # 10.0: outer lasted 10
    finally:
        tracing.time.perf_counter = real
    assert tracer.calls[inner] == 2 and tracer.total[inner] == 2.5
    assert tracer.self_time[outer] == 7.5
    assert list(tracer.parent) == [-1, 0, 0]


def test_tracer_wraps_every_lookup_name_and_restores_it():
    qcoh = workloads.import_qcoh()
    before = (qcoh.sections.solve_fundamental, qcoh.cli.solve_fundamental,
              qcoh.HLaurent.__mul__, qcoh.model.ModelSpec.cup)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qcoh.cli.solve_fundamental is qcoh.sections.solve_fundamental
        assert qcoh.cli.solve_fundamental is not before[0]
        model = qcoh.resolve_model("cp1")
        qcoh.cli.solve_fundamental(model, 2)
    finally:
        tracer.uninstall()
    after = (qcoh.sections.solve_fundamental, qcoh.cli.solve_fundamental,
             qcoh.HLaurent.__mul__, qcoh.model.ModelSpec.cup)
    assert after == before
    counts = tracer.counts()
    assert counts["sections.solve_fundamental.calls"] == 1
    assert counts["model.resolve_model.calls"] == 1
    assert counts["sections.degrees_solved"] == 2
    assert counts["algebra.HLaurent.mul.calls"] > 0
