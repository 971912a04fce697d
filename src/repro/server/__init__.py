"""The discovery service layer: OD profiling as a long-lived system.

Everything below the CLI's one-shot entry points already existed —
the unified engine, the thread pool, the incremental engine.
This package turns them into a multi-tenant service:

* :class:`DatasetCatalog` — relations registered under content
  fingerprints, kept resident (encodings + warm partition caches)
  with LRU eviction by byte budget;
* :class:`ResultStore` — discovery results keyed by
  ``(fingerprint, canonical config)``, persisted via the
  :mod:`repro.core.serialize` round-trip, served without
  re-computation;
* :class:`JobScheduler` — discover/validate/violations/append jobs on
  a thread-dispatched queue sharing ONE
  :class:`~repro.parallel.WorkerPool`, with per-job deadline budgets,
  cancellation, and executor telemetry;
* :class:`JobJournal` — a durable append-only ledger (LSN + CRC +
  fsync) of registrations and job transitions, replayed on start so a
  killed server re-registers its datasets, re-queues never-started
  jobs, and marks interrupted ones ``crashed``;
* :class:`ODService` / :class:`ServiceClient` — a stdlib HTTP API and
  its typed client (``repro-od serve`` boots the former).
"""

from repro.server.catalog import CatalogEntry, CatalogError, DatasetCatalog
from repro.server.client import ServiceClient, ServiceClientError
from repro.server.http import ODService, ServiceError
from repro.server.jobs import Job, JobError, JobScheduler
from repro.server.journal import JobJournal, JournalError
from repro.server.store import ResultStore

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "DatasetCatalog",
    "Job",
    "JobError",
    "JobJournal",
    "JobScheduler",
    "JournalError",
    "ODService",
    "ResultStore",
    "ServiceClient",
    "ServiceClientError",
    "ServiceError",
]
