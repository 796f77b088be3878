"""Tracing threaded through the runtime: span shape, digests, summaries."""

import json

import pytest

from repro.gpu import GV100
from repro.matrices import block_diagonal, uniform_random
from repro.runtime import RunRecord, SpmmRequest, SpmmRuntime
from repro.telemetry import Tracer, spans_to_jsonl


@pytest.fixture(scope="module")
def small():
    return uniform_random(256, 256, 0.02, seed=1)


@pytest.fixture(scope="module")
def skewed():
    # Block-diagonal drives the SSF over the threshold: online engine path.
    return block_diagonal(1024, 1024, 2e-2, block_size=64, seed=5)


def span_names(tracer):
    return [s.name for s in tracer.iter_spans()]


class TestRunSpanShape:
    def test_root_run_span_covers_plan_and_execute(self, small):
        tr = Tracer()
        SpmmRuntime(GV100, tracer=tr).run(SpmmRequest(small, k=32))
        (root,) = tr.roots
        assert root.name == "run"
        children = [c.name for c in root.children]
        assert children == ["cache_lookup", "plan", "resolve_dense", "execute"]
        for child in root.children:
            assert child.start_s >= root.start_s
            assert child.end_s <= root.end_s

    def test_c_stationary_children(self, small):
        tr = Tracer()
        SpmmRuntime(GV100, tracer=tr).run(SpmmRequest(small, k=32))
        names = span_names(tr)
        assert "convert:csr" in names and "convert:dcsr" in names
        assert "kernel:csr_c_stationary" in names
        assert "kernel:dcsr_c_stationary" in names
        assert "plan.ssf" in names and "plan.traffic_model" in names

    def test_online_path_has_engine_pipeline_spans(self, skewed):
        tr = Tracer()
        outcome = SpmmRuntime(GV100, tracer=tr).run(SpmmRequest(skewed, k=32))
        assert outcome.plan.algorithm == "online_tiled_dcsr"
        names = span_names(tr)
        assert "engine.convert" in names
        assert "engine.strip" in names
        assert "engine.pipeline" in names
        assert any(n.startswith("engine.stage:") for n in names)
        steps = tr.metrics.snapshot()["histograms"]["engine.strip_steps"]
        assert steps["count"] > 0 and steps["sum"] > 0

    def test_cache_hit_attribute_flips_on_repeat(self, small):
        tr = Tracer()
        runtime = SpmmRuntime(GV100, tracer=tr)
        request = SpmmRequest(small, k=32)
        runtime.run(request)
        runtime.run(request)
        first, second = tr.roots
        assert first.attributes["cache_hit"] is False
        assert second.attributes["cache_hit"] is True
        lookups = [s for s in tr.iter_spans() if s.name == "cache_lookup"]
        assert [s.attributes["hit"] for s in lookups] == [False, True]
        counters = tr.metrics.snapshot()["counters"]
        assert counters["plan_cache.hits"] == 1.0
        assert counters["plan_cache.misses"] == 1.0

    def test_jsonl_export_of_a_real_run_is_valid(self, small):
        tr = Tracer()
        SpmmRuntime(GV100, tracer=tr).run(SpmmRequest(small, k=32))
        for line in spans_to_jsonl(tr).strip().splitlines():
            rec = json.loads(line)
            assert rec["duration_s"] >= 0


class TestDigestStability:
    def test_untraced_record_identical_to_default(self, small):
        request = SpmmRequest(small, k=32)
        plain = SpmmRuntime(GV100).run(request).record
        null_traced = SpmmRuntime(GV100, tracer=None).run(request).record
        assert plain.to_json() == null_traced.to_json()
        assert "trace_summary" not in plain.extras

    def test_traced_digest_matches_untraced(self, small):
        request = SpmmRequest(small, k=32)
        untraced = SpmmRuntime(GV100).run(request).record
        traced = SpmmRuntime(GV100, tracer=Tracer()).run(request).record
        assert "trace_summary" in traced.extras
        assert traced.digest() == untraced.digest()

    def test_cache_hit_record_bit_identical_while_traced(self, small):
        runtime = SpmmRuntime(GV100, tracer=Tracer())
        request = SpmmRequest(small, k=32)
        cold = runtime.run(request)
        hot = runtime.run(request)
        assert not cold.cache_hit and hot.cache_hit
        assert cold.record.digest() == hot.record.digest()


class TestTraceSummary:
    def test_embedded_summary_round_trips_record_json(self, small):
        outcome = SpmmRuntime(GV100, tracer=Tracer()).run(
            SpmmRequest(small, k=32)
        )
        record = outcome.record
        summary = record.extras["trace_summary"]
        assert summary["root"] == "run"
        assert summary["by_name"]["execute"]["count"] == 1
        restored = RunRecord.from_json(record.to_json())
        assert restored.extras["trace_summary"] == json.loads(
            json.dumps(summary)
        )
        assert restored.to_json() == record.to_json()


class TestCampaignTracing:
    def test_campaign_span_and_recovery_counters(self, small):
        from repro.resilience import CampaignConfig, run_campaign

        tr = Tracer()
        campaign = CampaignConfig(seed=3, kill=2, bit_flips=1)
        report = run_campaign(small, GV100, campaign, tracer=tr)
        names = span_names(tr)
        assert names[0] == "campaign"
        assert "campaign.convert" in names and "campaign.timing" in names
        assert "run" in names  # the traced degraded_run underneath
        counters = tr.metrics.snapshot()["counters"]
        assert counters["resilience.retries"] == report.recovery["retries"]
        assert counters["resilience.failovers"] == report.recovery["failovers"]

    def test_traced_campaign_report_identical_to_untraced(self, small):
        from repro.resilience import CampaignConfig, run_campaign

        campaign = CampaignConfig(seed=3, kill=1)
        untraced = run_campaign(small, GV100, campaign)
        traced = run_campaign(small, GV100, campaign, tracer=Tracer())
        assert traced.to_json() == untraced.to_json()
