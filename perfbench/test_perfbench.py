"""Self-tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

They check the generated inputs, the metric names against BENCHMARK.json and
that every traced span fires on the workload meant to exercise it.
"""

import json
import pathlib
import re
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from compapprox.harness import runner  # noqa: E402
from tracing import EXPECTED_SPANS, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SYNTHETIC = [w for w in workloads.WORKLOADS if w != "fixtures"]


def _dump(workload, seed):
    return json.dumps(workloads.instances(workload, seed), sort_keys=True).encode()


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_seed_determines_configs(workload):
    assert _dump(workload, 11) == _dump(workload, 11)
    assert _dump(workload, 11) != _dump(workload, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_configs_validate(workload):
    for name, doc in workloads.instances(workload, 3):
        assert run.load_instance(name, doc).name == name


@pytest.mark.parametrize("workload", SYNTHETIC)
def test_synthetic_names_never_select_fixture_checks(workload):
    for seed in (0, 1, 2**40):
        for name, doc in workloads.instances(workload, seed):
            assert name.startswith(workloads.SYNTHETIC_PREFIX)
            assert name not in runner._ASSERTION_BUILDERS
            assert doc["output"] == name


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL) == set(workloads.WORKLOADS)
    assert set(workloads.REFERENCE_KERNEL.values()) <= set(run.REFERENCE_KERNELS)


class _FakePass:
    wall_s = 2.0
    reference_calls = 20
    reference_s = 0.2
    certified_rows = 10


def _declared(section):
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def test_printed_metric_names_match_benchmark_json():
    passes = [_FakePass(), _FakePass()]
    end_to_end, _ = run.end_to_end_metrics(1.0, passes, 4, 1)
    per_layer, _, _ = run.per_layer_metrics(Tracer(), passes[:1], passes[1:])
    for printed, section in ((end_to_end, "end_to_end"), (per_layer, "per_layer")):
        assert {k: u for k, (_, u) in printed.items()} == _declared(section)
        for name in printed:
            assert NAME.fullmatch(name), name


def test_tail_percentile_has_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, "p100 of 3")
    assert run.tail([float(k) for k in range(19)]) == (18.0, "p100 of 19")
    assert run.tail([float(k) for k in range(40)]) == (29.0, "p75 of 40")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_span_fires_on_its_workload(workload, tmp_path):
    tracer = Tracer()
    result = run.run_pass(workloads.instances(workload, 5), tmp_path,
                          run.REFERENCE_KERNELS["python"], tracer)
    silent = [span for span, where in EXPECTED_SPANS.items()
              if workload in where and not tracer.calls[span]]
    assert silent == []
    assert not result.incorrect
    assert sum(tracer.self_s.values()) == pytest.approx(result.wall_s, rel=1e-3)
    # tracing leaves the package unpatched between instances
    assert runner.run_epca.__module__ == "compapprox.epca"
    assert not hasattr(runner.run_epca, "__wrapped__")
