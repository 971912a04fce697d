"""The HTTP surface: stdlib-only JSON API over catalog/store/jobs.

``ThreadingHTTPServer`` (one thread per connection, no external
dependencies) fronting the service triple.  Handlers only parse JSON,
call the scheduler/catalog/store, and render JSON back — every
decision lives in :mod:`repro.server.jobs` and
:mod:`repro.server.catalog`, so the API layer stays replaceable.

Routes::

    GET    /health                     liveness + component stats
    GET    /metrics                    Prometheus text exposition
    GET    /stats                      JSON metrics snapshot
    GET    /datasets                   catalog listing
    POST   /datasets                   register (csv | rows | dataset)
    GET    /datasets/{fp}              one entry
    POST   /datasets/{fp}/append       append rows (streaming tenants)
    POST   /datasets/{fp}/delta        weighted inserts/deletes/updates
    GET    /jobs                       all jobs, oldest first
    POST   /jobs                       submit {kind, fingerprint, ...}
    GET    /jobs/{id}                  poll one job
    GET    /jobs/{id}/trace            span timeline of one job's run
    GET    /jobs/{id}/profile          collapsed flamegraph text
    DELETE /jobs/{id}                  cancel
    GET    /results                    result-store index
    GET    /results/{fp}               stored results for one dataset

``POST`` bodies are JSON.  Registration accepts one of ``csv`` (the
file's text), ``columns`` + ``rows``, or ``dataset`` (a
:mod:`repro.datasets` family name with ``n_rows``/``n_attrs``/
``seed``).  Blocking submits (``"wait": true``, the default for
append/delta and available for every job kind) hold the connection
until the job finishes — each request has its own thread, so polling
clients and waiting clients coexist.

Crash consistency: with ``--journal-dir`` set, every applied delta is
in the dataset's WAL (``<journal-dir>/deltalog/<root-fp>.log``)
*before* the engine sees it, and boot-time replay folds the log over
the spooled registration — a ``kill -9`` mid-stream loses at most the
delta whose fsync never returned.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.datasets.registry import make_dataset
from repro.deltalog import (
    DeltaLogError,
    DeltaRecord,
    delta_log_path,
    read_delta_log,
    replay_relation,
)
from repro.errors import ReproError
from repro.obs import accounting, events, metrics
from repro.relation.csvio import read_csv_text
from repro.relation.fingerprint import fingerprint
from repro.relation.table import Relation
from repro.server.catalog import DatasetCatalog, UnknownFingerprintError
from repro.server.jobs import JobScheduler, UnknownJobError, parse_seconds
from repro.server.journal import JobJournal, JournalError
from repro.server.store import ResultStore

#: ceiling on blocking waits, so an abandoned connection cannot pin a
#: handler thread forever; pollers use GET /jobs/{id} past this
MAX_WAIT_SECONDS = 600.0

#: the content type Prometheus scrapers expect from ``GET /metrics``
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: largest request body the service reads (256 MiB), far above any
#: registration it serves in practice: a 20000-row dataset posted as
#: JSON rows is ~2 MB.  A longer ``Content-Length`` gets a 413 before
#: a byte of the body is read or allocated.
MAX_BODY_BYTES = 256 * 1024 * 1024

_REQUESTS = metrics.counter(
    "repro_http_requests_total",
    "HTTP requests served, by method, top-level route, and status",
    ("method", "route", "status"))
_REQUEST_SECONDS = metrics.histogram(
    "repro_http_request_seconds",
    "HTTP request wall-clock seconds, by top-level route",
    ("route",))

#: monotone per-process request ids for the structured access log
_REQUEST_IDS = itertools.count(1)


class ServiceError(ReproError):
    """A request the service rejects; carries the HTTP status and, for
    a job that refused its input, the job's id."""

    def __init__(self, message: str, status: int = 400,
                 job: Optional[str] = None):
        super().__init__(message)
        self.status = status
        self.job = job


class ODService:
    """The service triple plus the HTTP server wiring.

    >>> service = ODService(port=0)          # ephemeral port
    >>> service.start()
    >>> service.port > 0
    True
    >>> service.close()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8765,
                 workers: Optional[int] = None,
                 store_dir: Optional[str] = None,
                 max_resident_bytes: Optional[int] = None,
                 max_cached_partitions: Optional[int] = 64,
                 default_timeout: Optional[float] = None,
                 journal_dir: Optional[str] = None):
        self.catalog = DatasetCatalog(
            max_resident_bytes=max_resident_bytes,
            max_cached_partitions=max_cached_partitions)
        self.store = ResultStore(store_dir)
        self.journal = (JobJournal(journal_dir)
                        if journal_dir is not None else None)
        self.scheduler = JobScheduler(
            self.catalog, self.store, workers=workers,
            default_timeout=default_timeout, journal=self.journal,
            delta_dir=journal_dir)
        try:
            self._httpd = ThreadingHTTPServer((host, port),
                                              _make_handler(self))
        except BaseException:
            # a port in use: stop the runner thread the scheduler
            # started and close the journal before the error surfaces
            self._release()
            raise
        self._httpd.daemon_threads = True
        #: what journal replay restored (surfaced in ``/health``)
        self.recovered: Dict[str, int] = {
            "datasets": 0, "requeued": 0, "crashed": 0,
            "delta_batches": 0, "delta_errors": 0}
        self._started = time.monotonic()
        if self.journal is not None:
            self._replay_journal()
        self._thread: Optional[threading.Thread] = None
        #: ``shutdown()`` waits for an event only ``serve_forever()``
        #: sets, so ``close()`` calls it only once serving has begun
        self._serving = False
        self._closed = False

    def _replay_journal(self) -> None:
        """Restore the previous process's ledger before going live:
        re-register journaled datasets from their spooled sources —
        folding each dataset's delta WAL over the snapshot, so
        appended/updated/deleted rows survive the crash warm — then
        re-queue jobs that never started, and surface jobs that died
        mid-run as ``crashed``."""
        state = self.journal.recover()
        for fp, meta in state.datasets.items():
            source = self.journal.read_source(fp)
            if source is None:
                continue            # spool lost: the dataset 404s
            try:
                relation = self._relation_from_body(source)
            except ReproError:
                continue            # unreadable source: skip, serve on
            replayed = self._replay_deltas(fp, relation)
            if replayed is None:
                continue            # torn delta history: honest 404
            relation, records = replayed
            try:
                entry, _ = self.catalog.register_entry(
                    relation, name=meta.get("name"), root=fp)
            except ReproError:
                continue
            if records:
                entry.delta_lsn = records[-1].lsn
                # restore the forwarding trail the crashed process had
                # built live, so clients holding any intermediate
                # fingerprint still resolve to the recovered entry
                for record in records:
                    if record.fp_before:
                        self.catalog.add_forward(
                            record.fp_before, entry.fingerprint)
                self.recovered["delta_batches"] += len(records)
            self.recovered["datasets"] += 1
        self.scheduler.ensure_job_id_floor(state.max_job_id)
        for record in state.crashed_jobs:
            self.scheduler.restore_crashed(record)
            self.recovered["crashed"] += 1
        for record in state.pending_jobs:
            self.scheduler.restore_pending(record)
            self.recovered["requeued"] += 1
        events.emit("journal.replayed", last_lsn=state.last_lsn,
                    finished=state.finished_jobs, **self.recovered)

    def _replay_deltas(
            self, root_fp: str, relation: Relation
    ) -> Optional[Tuple[Relation, "list[DeltaRecord]"]]:
        """Fold a dataset's delta WAL over its registered snapshot.

        Returns the replayed relation plus the records applied, or
        ``None`` when the history cannot be trusted (replay raised, or
        the final fingerprint disagrees with the last record's
        ``fp_after``) — the dataset then 404s rather than serving
        silently stale pre-delta state, and ``delta_errors`` counts it
        in ``/health``.
        """
        path = delta_log_path(self.journal.directory, root_fp)
        if not path.exists():
            return relation, []
        try:
            records = read_delta_log(path)
        except DeltaLogError:
            self.recovered["delta_errors"] += 1
            return None
        if not records:
            return relation, []
        try:
            replayed = replay_relation(
                relation, [record.batch for record in records])
        except ReproError:
            self.recovered["delta_errors"] += 1
            return None
        last = records[-1]
        if (last.fp_after is not None
                and fingerprint(replayed) != last.fp_after):
            self.recovered["delta_errors"] += 1
            return None
        return replayed, records

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (resolved after construction, so ``port=0``
        requests an ephemeral port usable in tests and CI)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Serve in a background thread (in-process embedding)."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-od-http",
            daemon=True)
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread (the CLI foreground path)."""
        self._serving = True
        self._httpd.serve_forever()

    def close(self) -> None:
        """Stop accepting requests, drain the scheduler, free pools."""
        if self._closed:
            return
        self._closed = True
        if self._serving:
            self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        self._release()

    def _release(self) -> None:
        """Drain the scheduler, close the catalog and the journal."""
        self.scheduler.close()
        self.catalog.close()
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "ODService":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # request-level operations (called from handler threads)
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, object]:
        scheduler = self.scheduler.stats()
        catalog = self.catalog.stats()
        store = self.store.stats()
        return {
            "status": "ok",
            "uptime_seconds": time.monotonic() - self._started,
            "queue_depth": scheduler["queued"],
            "catalog_resident_bytes": catalog["resident_bytes"],
            "store_bytes_written": store["bytes_written"],
            "recovered": dict(self.recovered),
            "catalog": catalog,
            "store": store,
            "scheduler": scheduler,
        }

    def stats(self) -> Dict[str, object]:
        """The observability snapshot (``GET /stats``): every metric
        family in the process-wide registry, plus the component stats
        the registry's gauges mirror."""
        return {
            "uptime_seconds": time.monotonic() - self._started,
            "metrics": metrics.get_registry().snapshot(),
            "resources": accounting.process_rusage(),
            "catalog": self.catalog.stats(),
            "store": self.store.stats(),
            "scheduler": self.scheduler.stats(),
        }

    def register(self, body: Dict) -> Tuple[int, Dict[str, object]]:
        relation = self._relation_from_body(body)
        entry, created = self.catalog.register_entry(
            relation, name=body.get("name"))
        if self.journal is not None and created:
            try:
                self.journal.dataset_registered(
                    entry.fingerprint, entry.name, body)
            except JournalError:
                self.scheduler.journal_errors += 1
        return (201 if created else 200), entry.to_dict()

    def _relation_from_body(self, body: Dict) -> Relation:
        sources = [key for key in ("csv", "rows", "dataset")
                   if body.get(key) is not None]
        if len(sources) != 1:
            raise ServiceError(
                "registration needs exactly one of 'csv', "
                "'rows' (+'columns'), or 'dataset'")
        if body.get("csv") is not None:
            if not isinstance(body["csv"], str):
                raise ServiceError("'csv' must be the CSV file's text")
            return read_csv_text(body["csv"])
        if body.get("rows") is not None:
            columns, rows = body.get("columns"), body["rows"]
            if not columns:
                raise ServiceError(
                    "'rows' registration needs a 'columns' name list")
            if not (isinstance(columns, list) and isinstance(rows, list)
                    and all(isinstance(row, list) for row in rows)):
                raise ServiceError(
                    "'columns' must be a list of names and 'rows' a "
                    "list of row lists")
            return Relation.from_rows(columns, rows)
        if not isinstance(body["dataset"], str):
            raise ServiceError("'dataset' must be a dataset family name")
        sizes = {"n_rows": body.get("n_rows", 1000),
                 "n_attrs": body.get("n_attrs", 10),
                 "seed": body.get("seed", 42)}
        for key, value in sizes.items():
            floor = 0 if key == "seed" else 1
            if (isinstance(value, bool) or not isinstance(value, int)
                    or value < floor):
                raise ServiceError(
                    f"{key!r} must be an integer >= {floor}, "
                    f"got {value!r}")
        return make_dataset(body["dataset"], **sizes)

    def submit(self, body: Dict) -> Dict[str, object]:
        kind = body.get("kind")
        fingerprint = body.get("fingerprint")
        if not kind or not fingerprint:
            raise ServiceError("job submission needs 'kind' and "
                               "'fingerprint'")
        params = {key: value for key, value in body.items()
                  if key not in ("kind", "fingerprint", "wait",
                                 "wait_seconds")}
        wait_seconds = parse_seconds(body.get("wait_seconds"),
                                     "wait_seconds")
        job = self.scheduler.submit(kind, fingerprint, params)
        if body.get("wait", kind in ("append", "delta")):
            self.scheduler.wait(job.id, timeout=min(
                MAX_WAIT_SECONDS if wait_seconds is None
                else wait_seconds, MAX_WAIT_SECONDS))
        return job.to_dict()

    def answer(self, job: Dict[str, object]) -> Dict[str, object]:
        """A submitted job's record as the HTTP reply: a blocking
        append or delta whose job refused its input (a ``DataError``
        or ``JobError``, say an absent row to delete) raises a 400
        carrying the job's one-line error and id.  Nothing was logged
        for it: the fold fails before the WAL append."""
        if job["status"] == "failed" and job["kind"] in ("append",
                                                          "delta"):
            record = self.scheduler.job(str(job["id"]))
            if record.refused:
                raise ServiceError(str(job["error"]), job=record.id)
        return job

    def append(self, fingerprint: str, body: Dict) -> Dict[str, object]:
        body = dict(body)
        body["kind"] = "append"
        body["fingerprint"] = fingerprint
        return self.submit(body)

    def delta(self, fingerprint: str, body: Dict) -> Dict[str, object]:
        body = dict(body)
        body["kind"] = "delta"
        body["fingerprint"] = fingerprint
        return self.submit(body)


def _make_handler(service: ODService):
    """A handler class closed over the service (stdlib handlers are
    classes, not instances)."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-od"
        protocol_version = "HTTP/1.1"

        # -- plumbing --------------------------------------------------
        def log_message(self, fmt, *args):   # noqa: ARG002 — quiet
            pass

        def _send_raw(self, status: int, body: bytes,
                      content_type: str) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            if self.close_connection:
                self.send_header("Connection", "close")
            self.end_headers()
            self.wfile.write(body)

        def _send(self, status: int, payload: Dict) -> None:
            self._send_raw(
                status, json.dumps(payload, indent=1).encode("utf-8"),
                "application/json")

        def _body(self) -> Dict:
            if self._body_error is not None:
                raise ServiceError(self._body_error)
            return self._parsed_body

        def _read_body(self) -> None:
            """Drain and parse the request body up front — even a
            request that 404s must consume its body, or a keep-alive
            connection desyncs on the unread bytes.

            A ``Content-Length`` that is not a non-negative integer
            (400) or exceeds :data:`MAX_BODY_BYTES` (413) is refused
            unread; the connection closes after the reply, since the
            body can no longer be told apart from the next request."""
            self._parsed_body: Dict = {}
            self._body_error = None
            header = self.headers.get("Content-Length") or "0"
            try:
                length = int(header)
            except ValueError:
                length = -1
            if length < 0:
                self.close_connection = True
                raise ServiceError(
                    f"Content-Length must be a non-negative integer, "
                    f"got {header!r}")
            if length > MAX_BODY_BYTES:
                self.close_connection = True
                raise ServiceError(
                    f"request body of {length} bytes exceeds the "
                    f"{MAX_BODY_BYTES}-byte limit", status=413)
            if length == 0:
                return
            raw = self.rfile.read(length)
            try:
                parsed = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, ValueError):
                self._body_error = "request body is not valid JSON"
                return
            if not isinstance(parsed, dict):
                self._body_error = "request body must be a JSON object"
                return
            self._parsed_body = parsed

        def _route(self, method: str) -> None:
            started = time.perf_counter()
            request_id = next(_REQUEST_IDS)
            parts = [p for p in self.path.split("?")[0].split("/") if p]
            route = parts[0] if parts else "/"
            raw: Optional[bytes] = None
            content_type = "application/json"
            try:
                self._read_body()
                if method == "GET" and parts == ["metrics"]:
                    status = 200
                    raw = metrics.get_registry().render_prometheus() \
                        .encode("utf-8")
                    content_type = PROMETHEUS_CONTENT_TYPE
                elif (method == "GET" and len(parts) == 3
                        and parts[0] == "jobs"
                        and parts[2] == "profile"):
                    # collapsed flamegraph text, not JSON — pipe it
                    # straight into flamegraph.pl / speedscope
                    job = service.scheduler.job(parts[1])
                    status = 200
                    raw = (job.profile or "").encode("utf-8")
                    content_type = "text/plain; charset=utf-8"
                else:
                    status, payload = self._dispatch(method, parts)
            except ServiceError as error:
                status, payload = error.status, {"error": str(error)}
                if error.job is not None:
                    payload["job"] = error.job
            except (UnknownFingerprintError, UnknownJobError) as error:
                status, payload = 404, {"error": str(error)}
            except ReproError as error:
                # every other library rejection (bad config, bad
                # dependency syntax, schema mismatch) is the
                # client's request, not a missing resource
                status, payload = 400, {"error": str(error)}
            except Exception as error:   # noqa: BLE001 — API boundary
                status = 500
                payload = {"error":
                           f"{type(error).__name__}: {error}"}
            if raw is None:
                raw = json.dumps(payload, indent=1).encode("utf-8")
            self._send_raw(status, raw, content_type)
            seconds = time.perf_counter() - started
            _REQUESTS.inc(method=method, route=route,
                          status=str(status))
            _REQUEST_SECONDS.observe(seconds, route=route)
            events.emit("http.request", id=request_id, method=method,
                        path=self.path, status=status,
                        seconds=round(seconds, 6))

        # -- routing ---------------------------------------------------
        def _dispatch(self, method: str, parts) -> Tuple[int, Dict]:
            if not parts:
                raise ServiceError("not found", status=404)
            head = parts[0]
            if method == "GET" and parts == ["health"]:
                return 200, service.health()
            if method == "GET" and parts == ["stats"]:
                return 200, service.stats()
            if head == "datasets":
                return self._dispatch_datasets(method, parts[1:])
            if head == "jobs":
                return self._dispatch_jobs(method, parts[1:])
            if (head == "results" and method == "GET"
                    and len(parts) <= 2):
                entries = service.store.entries()
                if len(parts) == 2:
                    entries = [e for e in entries
                               if e["fingerprint"] == parts[1]]
                return 200, {"results": entries}
            raise ServiceError("not found", status=404)

        def _dispatch_datasets(self, method: str, rest) -> Tuple[int, Dict]:
            if method == "GET" and not rest:
                return 200, {"datasets": [
                    entry.to_dict()
                    for entry in service.catalog.entries()]}
            if method == "POST" and not rest:
                return service.register(self._body())
            if method == "GET" and len(rest) == 1:
                return 200, service.catalog.get(rest[0]).to_dict()
            if (method == "POST" and len(rest) == 2
                    and rest[1] == "append"):
                return 200, service.answer(
                    service.append(rest[0], self._body()))
            if (method == "POST" and len(rest) == 2
                    and rest[1] == "delta"):
                return 200, service.answer(
                    service.delta(rest[0], self._body()))
            raise ServiceError("not found", status=404)

        def _dispatch_jobs(self, method: str, rest) -> Tuple[int, Dict]:
            if method == "GET" and not rest:
                return 200, {"jobs": [
                    job.to_dict()
                    for job in service.scheduler.jobs()]}
            if method == "POST" and not rest:
                return 202, service.answer(service.submit(self._body()))
            if method == "GET" and len(rest) == 1:
                return 200, service.scheduler.job(rest[0]).to_dict()
            if (method == "GET" and len(rest) == 2
                    and rest[1] == "trace"):
                job = service.scheduler.job(rest[0])
                return 200, {"id": job.id, "status": job.status,
                             "trace_id": job.trace_id,
                             "spans": job.trace or []}
            if method == "DELETE" and len(rest) == 1:
                cancelled = service.scheduler.cancel(rest[0])
                return 200, {"id": rest[0], "cancelled": cancelled}
            raise ServiceError("not found", status=404)

        # -- verbs -----------------------------------------------------
        def do_GET(self) -> None:       # noqa: N802 — stdlib contract
            self._route("GET")

        def do_POST(self) -> None:      # noqa: N802
            self._route("POST")

        def do_DELETE(self) -> None:    # noqa: N802
            self._route("DELETE")

    return Handler


__all__ = ["MAX_WAIT_SECONDS", "ODService", "ServiceError"]
