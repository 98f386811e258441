"""Lifting-as-a-service layer: store, scheduler, batch API and HTTP server.

This package turns the one-shot synthesizer into a long-lived service:

* :mod:`repro.service.digest` — content addresses for lift requests.
* :mod:`repro.service.store` — persistent, crash-safe result store keyed
  by request digest, with provenance metadata and hit/miss counters.
* :mod:`repro.service.journal` — the SQLite job journal, the only job
  queue: in memory by default, a crash-safe WAL file when durable; atomic
  state transitions, recovery with bounded retries and persistent
  counters.
* :mod:`repro.service.scheduler` — the worker pool over the journal, with
  in-flight deduplication, per-job timeouts, transient-failure
  retry/backoff and a thread/process execution backend.
* :mod:`repro.service.faults` — fault-injection harness (named failure
  points, env-configurable, JSONL event log) proving the failure paths.
* :mod:`repro.service.api` — :class:`LiftingService`, the submit /
  status / result / batch surface shared by the CLI and the HTTP layer,
  with queue-depth admission control.
* :mod:`repro.service.server` — stdlib ``ThreadingHTTPServer`` front end
  (429 + Retry-After past the admission threshold).

It is also the seam the evaluation harness uses for warm-cache corpus
sweeps: :class:`CachedLifter` wraps any lifting method with the store.
"""

from .api import (
    LiftRequest,
    LiftingService,
    ServiceError,
    ServiceOverloadedError,
    build_lifter,
    execute_request,
    request_digest,
    resolve_task,
)
from .digest import (
    STORE_SCHEMA_VERSION,
    canonical_json,
    describe_lifter,
    describe_oracle,
    describe_task,
    jsonable,
    lift_digest,
)
from .journal import (
    DEFAULT_MAX_ATTEMPTS,
    JOURNAL_SUFFIX,
    JobJournal,
    JobRow,
    backoff_seconds,
    resolve_journal_path,
)
from .scheduler import DEFAULT_JOB_RETENTION, Job, JobScheduler, JobState
from .server import (
    DEFAULT_PORT,
    LiftingServer,
    make_server,
    serve_in_background,
)
from .store import CachedLifter, ResultStore, StoreEntry, warm_digests

__all__ = [
    "LiftRequest",
    "LiftingService",
    "ServiceError",
    "ServiceOverloadedError",
    "DEFAULT_MAX_ATTEMPTS",
    "JOURNAL_SUFFIX",
    "JobJournal",
    "JobRow",
    "backoff_seconds",
    "resolve_journal_path",
    "DEFAULT_JOB_RETENTION",
    "build_lifter",
    "execute_request",
    "request_digest",
    "resolve_task",
    "STORE_SCHEMA_VERSION",
    "canonical_json",
    "describe_lifter",
    "describe_oracle",
    "describe_task",
    "jsonable",
    "lift_digest",
    "Job",
    "JobScheduler",
    "JobState",
    "DEFAULT_PORT",
    "LiftingServer",
    "make_server",
    "serve_in_background",
    "CachedLifter",
    "ResultStore",
    "StoreEntry",
    "warm_digests",
]
