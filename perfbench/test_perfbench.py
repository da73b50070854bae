"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import dataclasses
import json
import math

import pytest

import run
import tracing
import workloads
from spikedho import bounds, cli, perturb, specfun

_CLI_KINDS = {
    "table1": ("table1",),
    "table2": ("table2",),
    "sums": ("double_sum", "resummation", "resummation_limit",
             "trigamma_series"),
}


def _as_json(row):
    return json.loads(json.dumps(row, default=lambda o: o.item()))


@pytest.mark.parametrize("command", sorted(_CLI_KINDS))
def test_fixture_rows_equal_cli_rows(command, tmp_path):
    out = tmp_path / "rows.json"
    cli.main([command, "--format", "json", "--out", str(out)])
    cli_rows = json.loads(out.read_text())["rows"]
    bench_rows = [_as_json(workloads.fixture_row(q))
                  for q in workloads.fixture_queries_in_cli_order()
                  if q[0] in _CLI_KINDS[command]]
    assert bench_rows == cli_rows


def test_fixture_row_counts():
    kinds = [q[0] for q in workloads.fixtures_queries(0)]
    assert kinds.count("table1") == 13
    assert kinds.count("table2") == 4
    assert len(kinds) == 13 + 4 + 22


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].queries
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_fixtures_seed_only_permutes():
    canonical = workloads.fixture_queries_in_cli_order()
    for seed in (1, 2):
        assert sorted(map(repr, workloads.fixtures_queries(seed))) == \
            sorted(map(repr, canonical))


def test_generated_domains():
    for seed in range(5):
        for _, l, alpha, lam in workloads.general_alpha_queries(seed):
            assert 1 <= l <= 4 and 1.1 < alpha < 3.9 and 1e-3 <= lam <= 1e-2
        points = workloads.general_alpha_queries(seed)
        assert sorted(q[1] for q in points) == [1, 1, 2, 2, 3, 3, 4, 4]
        sweep = workloads.bounds_sweep_queries(seed)
        assert len(sweep) == 21 * workloads.SWEEP_LAMBDAS
        for _, alpha, l, lam in sweep:
            assert l in workloads.SWEEP_L[alpha] and 1e-4 <= lam <= 1.0


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], min_queries=1)


def test_corrupted_result_is_counted(monkeypatch):
    real = bounds.bound_report

    def corrupted(params):
        rep = real(params)
        shifted = {p: (lo + 1.0, up, mu) for p, (lo, up, mu)
                   in rep.per_order.items()}
        return dataclasses.replace(rep, per_order=shifted)

    monkeypatch.setattr(bounds, "bound_report", corrupted)
    queries = [("bounds_sweep", 4, 3, 1e-3), ("bounds_sweep", 2, 1, 1e-2)]
    _, _, outcomes = run.measure(_tiny("bounds_sweep"), queries, 0.0,
                                 min_passes=1)
    attempted, failed, correct, _ = run.summarize(outcomes)
    assert (attempted, failed, correct) == (2, 2, False)


def test_known_failure_is_counted_but_not_wrong():
    # residual_integral is negative at gamma = 5.5 for alpha = 4
    queries = [("bounds_sweep", 4, 4, 1e-3), ("bounds_sweep", 4, 3, 1e-3)]
    _, _, outcomes = run.measure(_tiny("bounds_sweep"), queries, 0.0,
                                 min_passes=1)
    attempted, failed, correct, per_query = run.summarize(outcomes)
    assert (attempted, failed, correct) == (2, 1, True)
    assert per_query[0][0][workloads.RAISED] == 1


def test_tracer_restores_bindings_and_self_times_add_up():
    originals = (specfun.pfq, perturb.pfq, bounds.bound_report)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert perturb.pfq is not originals[1]
        workloads.run_bounds_sweep(("bounds_sweep", 4, 3, 1e-3))
    assert (specfun.pfq, perturb.pfq, bounds.bound_report) == originals
    roots = sum(t1 - t0 for _, t0, t1, parent, _ in tracer.spans
                if parent < 0)
    assert math.isclose(sum(tracer.self_times().values()), roots,
                        rel_tol=1e-9)
    metrics = tracer.metrics()
    assert metrics["bounds.bound_report.calls"][0] == 1
    assert metrics["bounds.residual_integral.calls"][0] >= 1
    assert metrics["solver.ground_state.calls"][0] == 0


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert run.percentile(samples, 90.0) == 90
    assert run.percentile(samples, 50.0) == 50


def test_slowest_repetitions_are_per_query():
    # three queries over two passes, issued in the same order each pass
    latencies = [1.0, 8.0, 10.0, 3.0, 4.0, 20.0]
    assert run.slowest_repetitions(latencies, 3) == [3.0, 8.0, 20.0]


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    reported = {name: unit for name, (_, unit)
                in tracing.Tracer().metrics().items()}
    reported["trace.overhead_s"] = "s"
    assert reported == declared


def test_workload_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = tuple(w["name"] for w in spec["workloads"])
    assert names == run.WORKLOAD_NAMES == tuple(workloads.WORKLOADS)
