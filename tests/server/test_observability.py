"""The observability surface of the service: /metrics, /stats,
/jobs/{id}/trace, and the extended /health fields."""

from __future__ import annotations

import urllib.request

import pytest

from repro.server import ODService, ServiceClient, ServiceClientError
from repro.server.http import PROMETHEUS_CONTENT_TYPE


@pytest.fixture(scope="module")
def service():
    with ODService(port=0, workers=1) as running:
        yield running


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


@pytest.fixture(scope="module")
def discovered(service):
    """One cold discover plus one store-served repeat, shared by the
    whole module so counters are guaranteed non-zero."""
    client = ServiceClient(service.url)
    fp = client.register_dataset("flight", n_rows=60, n_attrs=4,
                                 seed=21)["fingerprint"]
    cold = client.discover(fp)
    cached = client.discover(fp)
    assert cold["cached"] is False and cached["cached"] is True
    return {"fingerprint": fp, "cold": cold, "cached": cached}


class TestMetricsEndpoint:
    def test_prometheus_text(self, service, client, discovered):
        request = urllib.request.Request(service.url + "/metrics")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200
            content_type = response.headers.get("Content-Type")
            text = response.read().decode("utf-8")
        assert content_type == PROMETHEUS_CONTENT_TYPE
        assert text.endswith("\n")
        # the typed client decodes the same text
        assert client.metrics().startswith("# HELP")
        lines = text.splitlines()
        assert "# TYPE repro_jobs_finished_total counter" in lines
        assert "# TYPE repro_job_seconds histogram" in lines
        assert "# TYPE repro_jobs_queue_depth gauge" in lines

    def test_counters_reflect_traffic(self, client, discovered):
        text = client.metrics()
        families = {}
        for line in text.splitlines():
            if line.startswith("#") or not line:
                continue
            name, value = line.rsplit(" ", 1)
            families[name] = float(value)

        def total(prefix):
            return sum(v for k, v in families.items()
                       if k == prefix or k.startswith(prefix + "{"))

        assert total("repro_jobs_submitted_total") >= 2
        assert (families['repro_jobs_finished_total'
                         '{kind="discover",status="done"}'] >= 2)
        # the repeat was served from the result store
        assert (families['repro_store_lookups_total'
                         '{outcome="hit"}'] >= 1)
        assert total("repro_http_requests_total") >= 1
        assert total("repro_executor_tasks_total") >= 1

    def test_cached_rediscover_moves_hit_counter(self, client,
                                                 discovered):
        def store_hits():
            for line in client.metrics().splitlines():
                if line.startswith('repro_store_lookups_total'
                                   '{outcome="hit"}'):
                    return float(line.rsplit(" ", 1)[1])
            return 0.0

        before = store_hits()
        repeat = client.discover(discovered["fingerprint"])
        assert repeat["cached"] is True
        assert store_hits() == before + 1


class TestStatsEndpoint:
    def test_shape(self, client, discovered):
        stats = client.stats()
        assert stats["uptime_seconds"] > 0
        assert stats["scheduler"]["jobs"].get("done", 0) >= 2
        assert stats["catalog"]["entries"] >= 1
        assert stats["store"]["resident"] >= 1
        snapshot = stats["metrics"]
        finished = snapshot["repro_jobs_finished_total"]
        assert finished["type"] == "counter"
        assert any(v["labels"] == {"kind": "discover",
                                   "status": "done"}
                   for v in finished["values"])
        hist = snapshot["repro_job_seconds"]["values"][0]
        assert hist["count"] >= 1 and "+Inf" in hist["buckets"]


class TestTraceEndpoint:
    def test_run_job_has_span_tree(self, client, discovered):
        payload = client.trace(discovered["cold"]["id"])
        assert payload["status"] == "done"
        spans = payload["spans"]
        names = [s["name"] for s in spans]
        assert names[0] == "job"
        assert "level" in names and "fd-check" in names
        root = spans[0]
        assert root["parent"] == 0
        by_id = {s["id"]: s for s in spans}
        for span in spans[1:]:
            assert span["parent"] in by_id
            assert span["seconds"] >= 0.0
        levels = [s for s in spans if s["name"] == "level"]
        assert all(s["seconds"] >= 0.0 for s in levels)
        assert {s["level"] for s in levels} == set(
            range(1, len(levels) + 1))

    def test_cached_job_has_no_spans(self, client, discovered):
        payload = client.trace(discovered["cached"]["id"])
        assert payload["spans"] == []

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.trace("job-9999")
        assert caught.value.status == 404


class TestProfileEndpoint:
    def test_cold_job_profile_non_empty(self, client, discovered):
        folded = client.profile(discovered["cold"]["id"])
        assert folded
        for line in folded.splitlines():
            stack, count = line.rsplit(" ", 1)
            assert stack
            assert int(count) >= 1
        # the run loop itself is on the coordinator's stack
        assert "jobs:_run_loop" in folded

    def test_cached_job_profile_empty(self, client, discovered):
        # store-served repeats never run, so there is nothing to sample
        assert client.profile(discovered["cached"]["id"]) == ""

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.profile("job-9999")
        assert caught.value.status == 404


class TestResourceAccounting:
    def test_cold_job_reports_rusage(self, client, discovered):
        job = client.job(discovered["cold"]["id"])
        resources = job["resources"]
        assert resources["cpu_user_seconds"] >= 0.0
        assert resources["cpu_system_seconds"] >= 0.0
        assert resources["max_rss_bytes"] > 0
        # every thread of the process is billed in these figures; there
        # is no separate worker block
        assert set(resources) == {"cpu_user_seconds",
                                  "cpu_system_seconds", "max_rss_bytes"}

    def test_job_trace_id_matches_trace_payload(self, client,
                                                discovered):
        job = client.job(discovered["cold"]["id"])
        payload = client.trace(discovered["cold"]["id"])
        assert job["trace_id"]
        assert payload["trace_id"] == job["trace_id"]

    def test_stats_reports_process_rusage(self, client, discovered):
        resources = client.stats()["resources"]
        assert set(resources) == {"self", "children"}
        assert resources["self"]["max_rss_bytes"] > 0
        assert resources["self"]["cpu_user_seconds"] >= 0.0


class TestHealthExtensions:
    def test_health_reports_usage(self, client, discovered):
        health = client.health()
        assert health["uptime_seconds"] > 0
        assert health["queue_depth"] == 0
        assert health["catalog_resident_bytes"] > 0
        # the module service is memory-only: nothing hits disk
        assert health["store_bytes_written"] == 0

    def test_disk_backed_store_counts_bytes(self, tmp_path):
        with ODService(port=0, workers=1,
                       store_dir=str(tmp_path)) as running:
            client = ServiceClient(running.url)
            fp = client.register_rows(
                ["u", "w"], [[1, 2], [2, 4], [3, 6]])["fingerprint"]
            assert client.discover(fp)["status"] == "done"
            assert client.health()["store_bytes_written"] > 0
