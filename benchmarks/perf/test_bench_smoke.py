"""Smoke tests for the performance benchmark harness.

These keep ``repro bench --smoke`` honest in CI: the harness must run
in seconds, emit the documented JSON schema, and enforce the
equivalence bounds (float32 completion against float64, vectorized
ingestion and baselines against their scalar references).
"""

import json

import pytest

from repro.experiments.perf_bench import (
    BENCH_SCHEMA,
    EQUIVALENCE_TOL,
    BenchCase,
    default_cases,
    default_ingestion_reports,
    default_output_name,
    run_perf_bench,
)


@pytest.fixture(scope="module")
def smoke_report():
    return run_perf_bench(smoke=True, seed=0)


def test_smoke_profile_times_all_algorithms(smoke_report):
    algorithms = {r.algorithm for r in smoke_report.records}
    assert {"cs-f64", "cs-f32"} <= algorithms
    assert {"naive-knn", "correlation-knn", "ga-tune"} <= algorithms
    assert {"mapmatch-vectorized", "aggregate-bincount"} <= algorithms
    assert {"cs-monolithic", "cs-sharded", "sharded-stream-ingest"} <= algorithms
    assert all(r.wall_s >= 0.0 for r in smoke_report.records)


def test_smoke_profile_checks_equivalence(smoke_report):
    case = default_cases(smoke=True)[0]
    assert f"{case.name}-f32" in smoke_report.equivalence_max_abs_diff
    assert smoke_report.speedups[f"{case.name}-f32"] > 0.0


def test_smoke_profile_checks_ingestion_equivalence(smoke_report):
    case = f"ingest-{default_ingestion_reports(smoke=True) // 1000}k"
    assert smoke_report.equivalence_max_abs_diff[f"{case}-mapmatch"] == 0.0
    assert (
        smoke_report.equivalence_max_abs_diff[f"{case}-aggregate"]
        <= EQUIVALENCE_TOL
    )
    assert smoke_report.speedups[f"{case}-pipeline"] > 0.0


def test_smoke_profile_checks_baseline_equivalence(smoke_report):
    case = default_cases(smoke=True)[0]
    for name in ("correlation-knn", "mssa"):
        key = f"{case.name}-{name}"
        assert smoke_report.equivalence_max_abs_diff[key] <= EQUIVALENCE_TOL


def test_payload_schema_roundtrips(smoke_report, tmp_path):
    out = smoke_report.write_json(tmp_path / "bench.json")
    payload = json.loads(out.read_text())
    assert payload["schema"] == BENCH_SCHEMA
    assert payload["equivalence_tol"] == EQUIVALENCE_TOL
    assert payload["meta"]["smoke"] is True
    record = payload["records"][0]
    assert {"case", "algorithm", "wall_s", "repeats"} <= set(record)


def test_render_mentions_speedup(smoke_report):
    text = smoke_report.render()
    assert "Performance benchmark" in text
    assert "speedup" in text


def test_strict_mode_rejects_float32_drift(monkeypatch):
    # Force an artificial disagreement by lowering the tolerance to an
    # impossible level through the module constant.
    import repro.experiments.perf_bench as pb

    monkeypatch.setattr(pb, "FLOAT32_RTOL", -1.0)
    cases = [BenchCase(24, 10, 0.5)]
    with pytest.raises(RuntimeError, match="float32 completion deviates"):
        pb.run_perf_bench(
            cases=cases,
            smoke=True,
            iterations=3,
            include_tune=False,
            include_baselines=False,
        )
    # Non-strict mode records the diff instead of raising.
    report = pb.run_perf_bench(
        cases=cases,
        smoke=True,
        iterations=3,
        include_tune=False,
        include_baselines=False,
        strict=False,
    )
    assert f"{cases[0].name}-f32" in report.equivalence_max_abs_diff


def test_default_output_name_is_dated():
    assert default_output_name().startswith("BENCH_")
    assert default_output_name().endswith(".json")
