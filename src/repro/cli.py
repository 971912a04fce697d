"""Command-line interface: ``repro-od``.

Subcommands::

    repro-od discover data.csv [--max-level N] [--no-minimal] [--json]
    repro-od append base.csv batch1.csv delta2.json [--verify] [--json]
    repro-od watch data.csv [--interval S] [--idle-exit N] [--json]
    repro-od serve [--port P] [--workers N] [--store-dir DIR]
    repro-od check data.csv "{month}: [] -> quarter"
    repro-od violations data.csv "[salary] -> [tax]" [--witnesses N]
    repro-od generate flight out.csv --rows 1000 --cols 10 --seed 42
    repro-od datasets
    repro-od stats [--url URL] [--json]
    repro-od trace job-3 [--url URL] [--json]
    repro-od profile-job job-3 [--url URL]

``discover``, ``check``, and ``violations`` accept ``--profile``: a
sampling profiler runs alongside the command and prints collapsed
flamegraph lines (``pkg:func;pkg:func count``) to stderr on exit —
stdout stays the machine-parseable result either way.

Run ``repro-od <subcommand> --help`` for details.

Long-running commands (``watch``, ``serve``) exit cleanly on SIGINT
*and* SIGTERM: thread pools and the job journal are torn down in the
command's ``finally`` path and the process exits with the conventional
code — 130 (128+SIGINT) or 143 (128+SIGTERM).  SIGTERM is what
process supervisors (systemd, Docker, Kubernetes) send first, so a
supervised ``repro-od serve`` drains gracefully on shutdown instead of
being killed dirty.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
import time
from typing import List, Optional

from repro.core.fastod import FastOD, FastODConfig
from repro.core.parser import parse_for
from repro.datasets.registry import dataset_names, make_dataset
from repro.errors import DataError, ReproError
from repro.relation.csvio import read_csv, write_csv
from repro.violations.detect import ViolationDetector


def _add_profile_option(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--profile", action="store_true",
        help="sample this command's stacks while it runs and print "
             "collapsed flamegraph lines to stderr on exit (pipe into "
             "flamegraph.pl or paste into speedscope)")


def _add_kernels_option(command: argparse.ArgumentParser) -> None:
    command.add_argument(
        "--kernels", default=None,
        choices=("auto", "reference", "compiled"),
        help="partition-kernel backend: 'reference' (pure NumPy), "
             "'compiled' (C via ctypes), or 'auto' (compiled when a "
             "C compiler is available, else reference; the default, "
             "also settable via $REPRO_KERNELS); backends produce "
             "byte-identical results")


def positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not positive")
    return int(text)


def port(text: str) -> int:
    """An argparse type: a TCP port number, 0 to 65535."""
    if not 0 <= int(text) <= 65535:
        raise argparse.ArgumentTypeError(f"{text!r} is not 0-65535")
    return int(text)


def seconds(text: str) -> float:
    """An argparse type: a finite number of seconds, at least 0."""
    if not 0 <= float(text) < math.inf:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number of seconds >= 0")
    return float(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-od",
        description="Order dependency discovery (FASTOD, VLDB 2017)")
    sub = parser.add_subparsers(dest="command", required=True)

    discover = sub.add_parser(
        "discover", help="discover the minimal canonical ODs of a CSV")
    discover.add_argument("csv", help="input CSV file (header row expected)")
    discover.add_argument("--max-level", type=int, default=None,
                          help="cap the lattice level (context size + 1)")
    discover.add_argument("--limit", type=int, default=None,
                          help="read at most this many rows")
    discover.add_argument("--timeout", type=float, default=None,
                          help="soft wall-clock budget in seconds")
    discover.add_argument("--no-minimal", action="store_true",
                          help="disable pruning; enumerate every valid OD")
    discover.add_argument("--json", action="store_true",
                          help="emit machine-readable JSON")
    discover.add_argument("--workers", type=int, default=None, metavar="N",
                          help="split each lattice level's products "
                               "and scans across N threads (default: "
                               "$REPRO_WORKERS or 1 = serial; results "
                               "are identical either way)")
    _add_kernels_option(discover)
    _add_profile_option(discover)

    append = sub.add_parser(
        "append",
        help="discover on a base CSV, then fold in delta batches "
             "incrementally")
    append.add_argument("csv", help="base CSV (the initial snapshot)")
    append.add_argument("batches", nargs="+",
                        help="batches applied in order: a .csv appends "
                             "its rows; a .json holds a delta spec "
                             "('ops' [[+1|-1, row], ...] and/or "
                             "'inserts'/'deletes'/'updates' lists)")
    append.add_argument("--max-level", type=int, default=None)
    append.add_argument("--limit", type=int, default=None,
                        help="read at most this many base rows")
    append.add_argument("--verify", action="store_true",
                        help="assert each batch's result against a "
                             "from-scratch FASTOD run")
    append.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")
    _add_kernels_option(append)

    watch = sub.add_parser(
        "watch",
        help="poll a CSV for appended rows and keep its ODs fresh")
    watch.add_argument("csv")
    watch.add_argument("--interval", type=float, default=1.0,
                       help="seconds between polls (default 1.0)")
    watch.add_argument("--max-batches", type=int, default=None,
                       help="stop after this many non-empty batches")
    watch.add_argument("--idle-exit", type=int, default=None,
                       help="stop after this many consecutive empty polls")
    watch.add_argument("--max-level", type=int, default=None)
    watch.add_argument("--json", action="store_true",
                       help="emit one JSON object per line (NDJSON)")

    serve = sub.add_parser(
        "serve",
        help="run the OD profiling service (HTTP API over the "
             "catalog/store/job scheduler)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=port, default=8765,
                       help="TCP port (0 picks an ephemeral port and "
                            "prints it; default 8765)")
    serve.add_argument("--workers", type=int, default=None, metavar="N",
                       help="threads of the ONE shared pool every "
                            "discover job runs on (default: "
                            "$REPRO_WORKERS or 1 = serial)")
    serve.add_argument("--store-dir", default=None, metavar="DIR",
                       help="persist discovery results here (served "
                            "across restarts); default: memory only")
    serve.add_argument("--catalog-bytes", type=positive_int, default=None,
                       metavar="N",
                       help="LRU byte budget for resident encoded "
                            "relations (default: unbounded)")
    serve.add_argument("--cache-max-entries", type=positive_int,
                       default=64, metavar="N",
                       help="per-dataset partition cache bound "
                            "(default 64)")
    serve.add_argument("--timeout", type=seconds, default=None,
                       help="default wall-clock budget in seconds for "
                            "discover jobs (the budget-consulting "
                            "kind; validate/violations/append run to "
                            "completion)")
    serve.add_argument("--journal-dir", default=None, metavar="DIR",
                       help="durable job journal: registrations and "
                            "job transitions are fsync'd here and "
                            "replayed on restart (datasets "
                            "re-registered, never-started jobs "
                            "re-queued, interrupted jobs marked "
                            "crashed); default: no journal")
    _add_kernels_option(serve)

    check = sub.add_parser(
        "check", help="check whether one dependency holds")
    check.add_argument("csv")
    check.add_argument("dependency",
                       help='e.g. "{month}: [] -> quarter" or "[a] -> [b]"')
    check.add_argument("--limit", type=int, default=None)
    check.add_argument("--cache-max-entries", type=positive_int,
                       default=None)
    _add_kernels_option(check)
    _add_profile_option(check)

    violations = sub.add_parser(
        "violations", help="report violating tuple pairs for a dependency")
    violations.add_argument("csv")
    violations.add_argument("dependency")
    violations.add_argument("--witnesses", type=int, default=5,
                            help="max witness pairs to print")
    violations.add_argument("--limit", type=int, default=None)
    violations.add_argument("--cache-max-entries", type=positive_int,
                            default=None)
    _add_kernels_option(violations)
    _add_profile_option(violations)

    generate = sub.add_parser(
        "generate", help="write a synthetic dataset to CSV")
    generate.add_argument("family", choices=dataset_names())
    generate.add_argument("out", help="output CSV path")
    generate.add_argument("--rows", type=int, default=1000)
    generate.add_argument("--cols", type=int, default=10)
    generate.add_argument("--seed", type=int, default=42)

    profile = sub.add_parser(
        "profile", help="full profile: keys, ODs, ranking")
    profile.add_argument("csv")
    profile.add_argument("--limit", type=int, default=None)
    profile.add_argument("--max-level", type=int, default=None)
    profile.add_argument("--approx", type=float, default=None,
                         help="also find approximate ODs with this "
                              "g3 threshold")
    profile.add_argument("--markdown", action="store_true",
                         help="render the report as markdown")
    profile.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON (includes "
                              "the relation's content fingerprint, "
                              "the service catalog/result-store key)")
    profile.add_argument("--top", type=int, default=10,
                         help="entries per report section")

    keys = sub.add_parser("keys", help="discover minimal keys")
    keys.add_argument("csv")
    keys.add_argument("--limit", type=int, default=None)
    keys.add_argument("--max-size", type=int, default=None)

    explain = sub.add_parser(
        "explain",
        help="derive a dependency from the discovered minimal set")
    explain.add_argument("csv")
    explain.add_argument("dependency",
                         help='canonical form, e.g. "{a,b}: [] -> c"')
    explain.add_argument("--limit", type=int, default=None)

    sub.add_parser("datasets", help="list synthetic dataset families")

    stats = sub.add_parser(
        "stats",
        help="fetch and render a running server's /stats snapshot")
    stats.add_argument("--url", default="http://127.0.0.1:8765",
                       help="server base URL (default "
                            "http://127.0.0.1:8765)")
    stats.add_argument("--json", action="store_true",
                       help="dump the raw /stats JSON")

    trace = sub.add_parser(
        "trace",
        help="render one service job's span timeline (flame-style)")
    trace.add_argument("job", help="job id, e.g. job-3")
    trace.add_argument("--url", default="http://127.0.0.1:8765",
                       help="server base URL (default "
                            "http://127.0.0.1:8765)")
    trace.add_argument("--json", action="store_true",
                       help="dump the raw span export")

    profile_job = sub.add_parser(
        "profile-job",
        help="fetch one service job's collapsed flamegraph "
             "(GET /jobs/{id}/profile)")
    profile_job.add_argument("job", help="job id, e.g. job-3")
    profile_job.add_argument("--url", default="http://127.0.0.1:8765",
                             help="server base URL (default "
                                  "http://127.0.0.1:8765)")
    return parser


class _CommandProfiler:
    """The ``--profile`` flag: sample the command's stacks (and the
    pool threads running its shares) while it runs and print collapsed
    flamegraph lines to stderr on exit (stdout stays the command's
    machine-parseable output)."""

    def __init__(self, enabled: bool):
        self._enabled = enabled
        self._profiler = None
        self._tracked = None

    def __enter__(self) -> "_CommandProfiler":
        if self._enabled:
            from repro.obs import profiler

            self._profiler = profiler.SamplingProfiler()
            self._tracked = profiler.track(self._profiler)
            self._tracked.__enter__()
            self._profiler.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._profiler is None:
            return
        self._profiler.stop()
        self._tracked.__exit__(exc_type, exc, tb)
        folded = self._profiler.render()
        print("# collapsed stacks (samples):", file=sys.stderr)
        print(folded if folded else "(no samples collected)",
              file=sys.stderr)


def _cmd_discover(args: argparse.Namespace) -> int:
    relation = read_csv(args.csv, limit=args.limit)
    config = FastODConfig(
        minimality_pruning=not args.no_minimal,
        level_pruning=not args.no_minimal,
        max_level=args.max_level,
        timeout_seconds=args.timeout,
        workers=args.workers,
        kernel_backend=args.kernels,
    )
    with _CommandProfiler(args.profile):
        result = FastOD(relation, config).run()
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
        return 0
    print(result.summary())
    print()
    for od in result.all_ods:
        print(od)
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    from repro.deltalog import DeltaBatch
    from repro.incremental import IncrementalFastOD

    base = read_csv(args.csv, limit=args.limit)
    config = FastODConfig(max_level=args.max_level,
                          kernel_backend=args.kernels)
    started = time.perf_counter()
    engine = IncrementalFastOD(base, config,
                               verify_with_oracle=args.verify)
    initial_seconds = time.perf_counter() - started
    try:
        reports = []
        for path in args.batches:
            if path.endswith(".json"):
                with open(path, encoding="utf-8") as handle:
                    spec = json.load(handle)
                if not isinstance(spec, dict):
                    raise DataError(
                        f"{path}: a delta spec must be a JSON object")
                delta = DeltaBatch.from_request(spec, base.arity)
            else:
                batch = read_csv(path)
                if batch.names != base.names:
                    raise DataError(
                        f"{path}: header {list(batch.names)} does not "
                        f"match the base {list(base.names)}")
                delta = DeltaBatch.inserts(batch.rows())
            reports.append(engine.apply_delta(delta))
    finally:
        engine.close()
    if args.json:
        print(json.dumps({
            "initial": {"n_rows": base.n_rows,
                        "seconds": initial_seconds},
            "batches": [report.to_dict() for report in reports],
            "final": engine.result.to_dict(),
        }, indent=2))
        return 0
    print(f"initial: {base.n_rows} rows, "
          f"{initial_seconds * 1000:.1f} ms")
    for report in reports:
        print(report)
    print()
    print(engine.result.summary())
    print()
    for od in engine.result.all_ods:
        print(od)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    from repro.deltalog import DeltaBatch
    from repro.incremental import IncrementalFastOD

    def emit(payload: dict, text: str) -> None:
        if args.json:
            print(json.dumps(payload), flush=True)
        else:
            print(text, flush=True)

    relation = read_csv(args.csv)
    config = FastODConfig(max_level=args.max_level)
    engine = IncrementalFastOD(relation, config)
    seen = relation.n_rows
    emit({"event": "initial", "n_rows": seen,
          "result": engine.result.to_dict()},
         f"watching {args.csv}: {seen} rows, "
         f"ODs {engine.result.paper_counts()}")
    batches = 0
    idle = 0
    try:
        while True:
            if (args.max_batches is not None
                    and batches >= args.max_batches):
                break
            if args.idle_exit is not None and idle >= args.idle_exit:
                break
            time.sleep(args.interval)
            current = read_csv(args.csv)
            if current.n_rows < seen:
                # a rewrite/rotation, not an append: rows we already
                # folded in are gone, so the maintained state no longer
                # describes this file — bail out rather than splice
                # mismatched data
                raise DataError(
                    f"{args.csv}: shrank from {seen} to "
                    f"{current.n_rows} rows while watching (rotated or "
                    f"rewritten?)")
            if current.n_rows == seen:
                idle += 1
                continue
            if current.names != engine.relation.names:
                raise DataError(
                    f"{args.csv}: header changed while watching")
            report = engine.apply_delta(DeltaBatch.inserts(
                map(current.row, range(seen, current.n_rows))))
            seen = current.n_rows
            batches += 1
            idle = 0
            emit({"event": "batch", **report.to_dict()}, str(report))
    finally:
        engine.close()
    emit({"event": "done", "n_rows": seen, "batches": batches,
          "result": engine.result.to_dict()},
         f"done: {seen} rows after {batches} batch(es), "
         f"ODs {engine.result.paper_counts()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.server import ODService

    service = ODService(
        host=args.host, port=args.port, workers=args.workers,
        store_dir=args.store_dir,
        max_resident_bytes=args.catalog_bytes,
        max_cached_partitions=args.cache_max_entries,
        default_timeout=args.timeout,
        journal_dir=args.journal_dir)
    # the bound port is printed (flushed) before serving so wrappers
    # spawning `--port 0` can scrape the ephemeral port
    print(f"repro-od serve: listening on {service.url}", flush=True)
    if args.journal_dir is not None:
        recovered = service.recovered
        print(f"repro-od serve: journal replayed — "
              f"{recovered['datasets']} dataset(s) re-registered, "
              f"{recovered['requeued']} job(s) re-queued, "
              f"{recovered['crashed']} marked crashed", flush=True)
    try:
        service.serve_forever()
    finally:
        # runs on SIGINT/SIGTERM too (both propagate through
        # serve_forever as exceptions): drain jobs, join the shared
        # pool's threads, close the journal
        service.close()
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """``check`` prints the verdict; ``violations`` also counts the
    violating pairs and prints up to ``--witnesses`` of them."""
    full = args.command == "violations"
    relation = read_csv(args.csv, limit=args.limit)
    dependency = parse_for(args.dependency, relation.schema)
    detector = ViolationDetector(
        relation, max_cached_partitions=args.cache_max_entries)
    try:
        with _CommandProfiler(args.profile):
            report = detector.check(
                dependency, max_witnesses=args.witnesses if full else 0,
                count_pairs=full)
    finally:
        detector.close()
    print(report if full else
          f"{report.dependency}: {'HOLDS' if report.holds else 'VIOLATED'}")
    return 0 if report.holds else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = make_dataset(args.family, n_rows=args.rows,
                            n_attrs=args.cols, seed=args.seed)
    write_csv(relation, args.out)
    print(f"wrote {relation.n_rows} rows x {relation.arity} attributes "
          f"to {args.out}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.profile import profile_relation

    relation = read_csv(args.csv, limit=args.limit)
    profile = profile_relation(
        relation, max_level=args.max_level,
        approximate_error=args.approx)
    if args.json:
        print(json.dumps(profile.to_dict(top=args.top), indent=2))
    elif args.markdown:
        print(profile.render_markdown(top=args.top))
    else:
        print(profile.render_text(top=args.top))
    return 0


def _cmd_keys(args: argparse.Namespace) -> int:
    from repro.profile import discover_keys

    relation = read_csv(args.csv, limit=args.limit)
    result = discover_keys(relation, max_size=args.max_size)
    print(f"{result.n_keys} minimal key(s):")
    for key in result.rendered():
        print(f"  {key}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.core.derivation import Explainer
    from repro.core.fastod import discover_ods
    from repro.core.od import CanonicalFD, CanonicalOCD
    from repro.core.parser import parse

    dependency = parse(args.dependency)
    if not isinstance(dependency, (CanonicalFD, CanonicalOCD)):
        print("error: explain takes canonical dependencies "
              "('{X}: [] -> A' or '{X}: A ~ B')", file=sys.stderr)
        return 2
    relation = read_csv(args.csv, limit=args.limit)
    result = discover_ods(relation)
    derivation = Explainer(result.all_ods).explain(dependency)
    if derivation is None:
        print(f"{dependency}: does not follow from the data "
              "(no derivation)")
        return 1
    print(derivation)
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    for name in dataset_names():
        print(name)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.server.client import ServiceClient

    snap = ServiceClient(args.url).stats()
    if args.json:
        print(json.dumps(snap, indent=2))
        return 0
    scheduler = snap["scheduler"]
    catalog = snap["catalog"]
    store = snap["store"]
    print(f"uptime: {snap['uptime_seconds']:.1f}s")
    print(f"scheduler: jobs={scheduler['jobs']} "
          f"queued={scheduler['queued']}")
    print(f"catalog: entries={catalog['entries']} "
          f"resident_bytes={catalog['resident_bytes']} "
          f"evictions={catalog['evictions']}")
    print(f"store: resident={store['resident']} hits={store['hits']} "
          f"misses={store['misses']} "
          f"bytes_written={store['bytes_written']}")
    print()
    for name, family in sorted(snap["metrics"].items()):
        for entry in family["values"]:
            labels = entry.get("labels") or {}
            suffix = ("{" + ",".join(f"{k}={v}"
                                     for k, v in labels.items()) + "}"
                      if labels else "")
            if family["type"] == "histogram":
                count = entry["count"]
                total = entry["sum"]
                mean = total / count if count else 0.0
                print(f"{name}{suffix} count={count} "
                      f"sum={total:.6f} mean={mean:.6f}")
            else:
                print(f"{name}{suffix} {entry['value']}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.trace import render_timeline
    from repro.server.client import ServiceClient

    payload = ServiceClient(args.url).trace(args.job)
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    spans = payload.get("spans") or []
    if not spans:
        print(f"{args.job} ({payload.get('status')}): no trace "
              "recorded (served from the store, or not yet run)")
        return 0
    print(f"{args.job} ({payload.get('status')}), "
          f"{len(spans)} span(s):")
    print(render_timeline(spans))
    return 0


def _cmd_profile_job(args: argparse.Namespace) -> int:
    from repro.server.client import ServiceClient

    folded = ServiceClient(args.url).profile(args.job)
    if not folded:
        print(f"{args.job}: no profile recorded (observability "
              "disabled, served from the store, or not yet run)",
              file=sys.stderr)
        return 1
    print(folded)
    return 0


_COMMANDS = {
    "discover": _cmd_discover,
    "append": _cmd_append,
    "watch": _cmd_watch,
    "serve": _cmd_serve,
    "check": _cmd_check,
    "violations": _cmd_check,
    "generate": _cmd_generate,
    "profile": _cmd_profile,
    "keys": _cmd_keys,
    "explain": _cmd_explain,
    "datasets": _cmd_datasets,
    "stats": _cmd_stats,
    "trace": _cmd_trace,
    "profile-job": _cmd_profile_job,
}


class _Terminated(Exception):
    """SIGTERM, re-raised as an exception so ``finally`` blocks run."""


def _raise_terminated(signum, frame):  # noqa: ARG001 — signal contract
    raise _Terminated()


def _install_sigterm_handler() -> None:
    """Route SIGTERM through the same exception-based teardown as
    SIGINT.  Long-running commands only (``serve``/``watch``): a
    supervisor's TERM then drains pools/journals via the command's
    ``finally`` path and exits 143 instead of dying mid-write.  Only
    possible on the main thread; anywhere else the default
    (terminate) behavior is kept."""
    try:
        signal.signal(signal.SIGTERM, _raise_terminated)
    except ValueError:  # pragma: no cover - non-main thread embedding
        pass


def _dump_final_metrics() -> None:
    """An interrupted ``serve``/``watch`` leaves one last structured
    event on stderr holding the full registry snapshot — the session's
    counters survive the teardown even with no scraper attached."""
    from repro.obs import events, metrics

    events.emit("metrics.final",
                metrics=metrics.get_registry().snapshot())


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "kernels", None):
        # process-wide default so commands whose engines don't thread
        # a per-run backend (check/violations/serve jobs without an
        # explicit kernel_backend) still honor the flag
        from repro import kernels

        kernels.set_default_backend(args.kernels)
    long_running = args.command in ("serve", "watch")
    if long_running:
        _install_sigterm_handler()
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # one SIGINT contract for every long-running command: the
        # interrupted command's finally blocks have already torn down
        # engines/pools/servers,
        # so all that is left is the final metrics breadcrumb and the
        # conventional exit status
        if long_running:
            _dump_final_metrics()
        print("interrupted", file=sys.stderr)
        return 130
    except _Terminated:
        # same contract for SIGTERM (128 + 15)
        if long_running:
            _dump_final_metrics()
        print("terminated", file=sys.stderr)
        return 143


if __name__ == "__main__":
    sys.exit(main())
