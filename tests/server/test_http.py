"""The HTTP API + typed client against an in-process ODService."""

from __future__ import annotations

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.core.fastod import FastOD
from repro.relation.csvio import write_csv
from repro.server import ODService, ServiceClient, ServiceClientError
from tests.conftest import make_relation


@pytest.fixture(scope="module")
def service():
    with ODService(port=0, workers=1) as running:
        yield running


@pytest.fixture
def client(service):
    return ServiceClient(service.url)


def small():
    return make_relation(3, [(1, 10, 5), (2, 20, 5), (3, 30, 5),
                             (3, 30, 5)])


class TestHealthAndRegistration:
    def test_health(self, client):
        health = client.health()
        assert health["status"] == "ok"
        assert "catalog" in health and "scheduler" in health

    def test_register_rows(self, client):
        entry = client.register_rows(
            ["a", "b"], [[1, 2], [3, 4]], name="pairs")
        assert entry["name"] == "pairs"
        assert entry["n_rows"] == 2
        assert client.dataset(entry["fingerprint"])["name"] == "pairs"

    def test_register_csv_path(self, client, tmp_path):
        path = tmp_path / "data.csv"
        write_csv(small(), path)
        entry = client.register_csv(path)
        assert entry["n_rows"] == 4
        assert entry["attributes"] == ["c0", "c1", "c2"]

    def test_register_dataset_family(self, client):
        entry = client.register_dataset("flight", n_rows=40,
                                        n_attrs=4, seed=5)
        assert entry["n_rows"] == 40
        assert any(d["fingerprint"] == entry["fingerprint"]
                   for d in client.datasets())

    def test_integers_past_float_precision(self, client):
        # 2**53 and 2**53 + 1 are one float but two values, so both
        # columns are keys; a 10**400 cell is a number, not a 500
        fp = client.register_rows(
            ["big", "small"],
            [[2 ** 53, 1], [2 ** 53 + 1, 2], [1, 3]])["fingerprint"]
        fds = client.discover(fp)["result"]["fds"]
        assert "{big}: [] -> small" in fds
        assert "{small}: [] -> big" in fds
        entry = client.register_rows(["huge", "tiny"],
                                     [[10 ** 400, 1], [2, 2]])
        assert entry["n_rows"] == 2

    def test_register_without_source_is_400(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._post("/datasets", {"name": "empty"})
        assert caught.value.status == 400

    def test_unknown_fingerprint_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.dataset("feedface")
        assert caught.value.status == 404

    def test_unknown_route_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._get("/nope")
        assert caught.value.status == 404


class TestDiscoverOverHttp:
    def test_discover_and_cached_repeat(self, client):
        relation = small()
        fp = client.register_rows(
            list(relation.names),
            [list(map(int, row)) for row in relation.rows()]
        )["fingerprint"]
        job = client.discover(fp)
        assert job["status"] == "done", job.get("error")
        assert job["cached"] is False
        direct = FastOD(relation).run().to_dict()
        assert job["result"]["fds"] == direct["fds"]
        assert job["result"]["ocds"] == direct["ocds"]

        repeat = client.discover(fp)
        assert repeat["cached"] is True
        assert repeat["executor"]["phases"] == {}
        assert repeat["result"]["fds"] == direct["fds"]
        assert client.results(fp)[0]["fingerprint"] == fp

    def test_async_submit_and_poll(self, client):
        fp = client.register_dataset("flight", n_rows=60, n_attrs=4,
                                     seed=11)["fingerprint"]
        job = client.discover(fp, wait=False,
                              config={"max_level": 2})
        final = client.poll(job["id"], timeout=60)
        assert final["status"] == "done"
        assert final["id"] in {j["id"] for j in client.jobs()}

    def test_unknown_job_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client.job("job-9999")
        assert caught.value.status == 404

    def test_bad_config_is_400_not_404(self, client):
        fp = client.register_rows(
            ["k", "v"], [[1, 2], [3, 4]])["fingerprint"]
        with pytest.raises(ServiceClientError) as caught:
            client.discover(fp, config={"workerz": 1})
        assert caught.value.status == 400
        assert "unknown config field" in str(caught.value)

    def test_deep_results_path_is_404(self, client):
        with pytest.raises(ServiceClientError) as caught:
            client._get("/results/somefp/extra")
        assert caught.value.status == 404

    def test_duplicate_registration_returns_200_not_201(self, service):
        body = json.dumps({"columns": ["r", "s"],
                           "rows": [[1, 9], [2, 8]]}).encode()
        statuses = []
        for _ in range(2):
            request = urllib.request.Request(
                service.url + "/datasets", data=body, method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as resp:
                statuses.append(resp.status)
        assert statuses == [201, 200]


class TestValidateViolationsAppend:
    def test_validate_and_violations(self, client):
        fp = client.register_rows(
            ["x", "y"], [[1, 2], [2, 1]])["fingerprint"]
        ok = client.validate(fp, "{}: [] -> x")
        assert ok["status"] == "done"
        assert ok["report"]["holds"] is False
        bad = client.violations(fp, "[x] ~ [y]", witnesses=3)
        assert bad["report"]["n_violating_pairs"] == 1
        assert bad["report"]["witnesses"]

    def test_append_flow(self, client):
        # distinct attribute names: the fingerprint keys a
        # discovery-equivalence class, and [[1, 10], [2, 20]] under
        # ["a", "b"] would dedupe onto test_register_rows's entry —
        # whose raw values would then seed the append
        fp = client.register_rows(
            ["base", "delta"], [[1, 10], [2, 20]])["fingerprint"]
        appended = client.append(fp, [[3, 5]])
        assert appended["status"] == "done", appended.get("error")
        new_fp = appended["fingerprint"]
        assert new_fp != fp
        # the swap landed: the OCD was invalidated incrementally
        assert ("{}: base ~ delta"
                in appended["report"]["invalidated"])
        # old fingerprint forwards to the grown entry
        assert client.dataset(fp)["fingerprint"] == new_fp
        assert client.dataset(fp)["n_rows"] == 3
        # a discover on the grown content is served from the store
        assert client.discover(new_fp)["cached"] is True

    def test_bad_dependency_is_400(self, client):
        fp = client.register_rows(
            ["a", "b"], [[1, 10], [2, 20]])["fingerprint"]
        n_jobs = len(client.jobs())
        for dependency in ("this is not a dependency", "{a}: [] -> ",
                           "{nope}: [] -> a"):
            for submit in (client.validate, client.violations):
                with pytest.raises(ServiceClientError) as caught:
                    submit(fp, dependency)
                assert caught.value.status == 400
        assert len(client.jobs()) == n_jobs     # no job was created


class TestRawHttp:
    def test_plain_curl_shaped_request(self, service):
        """The documented curl flow: plain JSON over POST, no client."""
        body = json.dumps({
            "columns": ["p", "q"],
            "rows": [[1, 1], [2, 2]],
        }).encode()
        request = urllib.request.Request(
            service.url + "/datasets", data=body, method="POST",
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status in (200, 201)
            entry = json.loads(response.read())
        assert entry["n_rows"] == 2

    def test_invalid_json_is_400(self, service):
        request = urllib.request.Request(
            service.url + "/datasets", data=b"{oops", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(request, timeout=30)
        assert caught.value.code == 400


def _post_raw(service, path, body):
    """POST ``body`` and return ``(status, decoded JSON reply)``."""
    request = urllib.request.Request(
        service.url + path, data=json.dumps(body).encode(),
        method="POST", headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


#: (route, body) pairs the service must refuse with a 400; ``{fp}``
#: names a registered dataset.  Each reached a 500, was accepted and
#: misapplied, or failed only later as a job.
MALFORMED = {
    "list-cell": ("/datasets", {"columns": ["a", "b"],
                                "rows": [[1, [2]], [3, 4]]}),
    "object-cell": ("/datasets", {"columns": ["a", "b"],
                                  "rows": [[1, {"x": 1}], [3, 4]]}),
    "rows-not-a-list": ("/datasets", {"columns": ["a"], "rows": 5}),
    "csv-not-text": ("/datasets", {"csv": 5}),
    "n_rows-not-a-number": ("/datasets", {"dataset": "flight",
                                          "n_rows": "x"}),
    "n_rows-negative": ("/datasets", {"dataset": "flight",
                                      "n_rows": -5}),
    "config-not-an-object": ("/jobs", {"kind": "discover",
                                       "fingerprint": "{fp}",
                                       "config": 5}),
    "max_level-not-a-number": ("/jobs", {"kind": "discover",
                                         "fingerprint": "{fp}",
                                         "config": {"max_level": "x"}}),
    "pruning-flag-not-a-bool": ("/jobs", {
        "kind": "discover", "fingerprint": "{fp}",
        "config": {"minimality_pruning": "no"}}),
    "workers-not-a-number": ("/jobs", {"kind": "discover",
                                       "fingerprint": "{fp}",
                                       "config": {"workers": "two"}}),
    "unknown-kernel-backend": ("/jobs", {
        "kind": "discover", "fingerprint": "{fp}",
        "config": {"kernel_backend": "gpu"}}),
    "timeout-not-a-number": ("/jobs", {"kind": "discover",
                                       "fingerprint": "{fp}",
                                       "timeout": "soon"}),
    "timeout-negative": ("/jobs", {"kind": "discover",
                                   "fingerprint": "{fp}",
                                   "timeout": -1}),
    "wait_seconds-not-a-number": ("/jobs", {"kind": "discover",
                                            "fingerprint": "{fp}",
                                            "wait": True,
                                            "wait_seconds": "soon"}),
    "delta-weight-null": ("/datasets/{fp}/delta",
                          {"ops": [[None, [7, 7]]]}),
    "delta-weight-fractional": ("/datasets/{fp}/delta",
                                {"ops": [[1.5, [7, 7]]]}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_request_is_400(service, client, case):
    fp = client.register_rows(
        ["m0", "m1"], [[1, 2], [3, 4]], name="malformed")["fingerprint"]
    route, body = MALFORMED[case]
    body = json.loads(json.dumps(body).replace("{fp}", fp))

    def contents():
        return ([(d["fingerprint"], d["n_rows"], d["delta_lsn"])
                 for d in client.datasets()],
                [job["id"] for job in client.jobs()])

    before = contents()
    status, reply = _post_raw(service, route.replace("{fp}", fp), body)
    assert status == 400, reply
    assert list(reply) == ["error"]
    assert isinstance(reply["error"], str) and reply["error"]
    assert contents() == before


@pytest.mark.parametrize("length,status", [
    ("abc", 400), ("-5", 400), ("99999999999", 413)])
def test_bad_content_length_is_refused_unread(service, client, length,
                                              status):
    """A Content-Length the server cannot or will not read is a client
    error, not a 500 from ``int()``, ``read(-5)`` or a MemoryError."""
    connection = http.client.HTTPConnection(service.host, service.port,
                                            timeout=30)
    try:
        connection.putrequest("POST", "/datasets")
        connection.putheader("Content-Type", "application/json")
        connection.putheader("Content-Length", length)
        connection.endheaders()
        response = connection.getresponse()
        reply = json.loads(response.read())
        assert response.status == status, reply
        assert list(reply) == ["error"]
        assert response.getheader("Connection") == "close"
    finally:
        connection.close()
    assert client.health()["status"] == "ok"


def test_bad_timeout_leaves_the_job_runner_alive():
    """A timeout the runner thread could not turn into a budget used
    to kill it: every later job stayed queued forever."""
    with ODService(port=0, workers=1) as service:
        client = ServiceClient(service.url)
        fp = client.register_rows(
            ["t0", "t1"], [[1, 2], [2, 1], [3, 3]])["fingerprint"]
        status, reply = _post_raw(service, "/jobs", {
            "kind": "discover", "fingerprint": fp, "timeout": "soon"})
        assert status == 400, reply
        job = client.discover(fp, wait_seconds=10)
        assert job["status"] == "done", job


def test_close_returns_on_a_service_that_never_served():
    """``close()`` on a service that was built but never started
    returns and stops its job runner (``shutdown()`` would wait for a
    serve loop that never ran).  The close runs on a helper thread
    with a bounded join, so a hang fails the test instead of the
    suite."""
    import threading

    def runners():
        return [thread for thread in threading.enumerate()
                if thread.name == "repro-od-jobs"]

    before = runners()
    service = ODService(port=0, workers=1)
    closer = threading.Thread(target=service.close, daemon=True)
    closer.start()
    closer.join(timeout=10.0)
    assert not closer.is_alive(), "close() hung on an unstarted service"
    assert runners() == before


def test_discover_keeps_the_validate_working_set():
    """A discover job builds its lattice partitions itself: it neither
    reads nor evicts the dataset's partition cache, so a validate's
    context is still resident after it."""
    dependency = "{year, flight_sk}: month ~ quarter"
    with ODService(port=0, workers=1) as service:
        client = ServiceClient(service.url)
        fp = client.register_dataset("flight", n_rows=2000, n_attrs=8,
                                     seed=3)["fingerprint"]
        assert client.validate(fp, dependency)["status"] == "done"
        before = client.dataset(fp)["partition_cache"]
        discovered = client.discover(fp)
        assert discovered["status"] == "done"
        assert discovered["cached"] is False
        assert client.dataset(fp)["partition_cache"] == before
        assert client.validate(fp, dependency)["status"] == "done"
        after = client.dataset(fp)["partition_cache"]
        assert after["hits"] == before["hits"] + 1
        assert (after["misses"], after["evictions"]) == (
            before["misses"], before["evictions"])
