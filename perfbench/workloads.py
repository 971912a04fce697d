"""The three workloads: one closed-loop client each, on the paths users
run (see README.md for why each exists and what it stresses).

Every workload function takes ``(seed, seconds, trace)`` and returns an
:class:`Outcome`.  Inputs come from the seed alone; set-up runs
several times (see :data:`SETUP_REPS`) and the last copy serves the
timed loop; outputs are checked against an oracle after the loop,
outside every timed region.  With ``trace`` every second op runs with
the :mod:`probes` installed, and only those ops feed the per-layer
numbers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import common
import probes

#: set-ups before the loop, ``setup_s`` being their median (cli-wide
#: sets up once before the loop and once more after every op)
SETUP_REPS = {"pooled-tall": 3, "service-mixed": 5}
#: a run always completes this many ops, even past ``--seconds``
MIN_OPS = 3

CLI_FAMILY, CLI_ROWS, CLI_ATTRS = "ncvoter", 5_000, 12
POOL_FAMILY, POOL_ROWS, POOL_ATTRS = "flight", 150_000, 8
POOL_WORKERS = 2
SERVICE_FAMILY, SERVICE_ROWS, SERVICE_ATTRS = "flight", 20_000, 8
#: rows generated beside the registered ones, where inserts come from
SERVICE_RESERVE = 10_000
#: rolls per delta batch: ~35% deletes, ~25% updates, ~40% inserts
DELTA_ROLLS = 40
VALIDATE_DEPENDENCIES = ("{month}: [] -> quarter", "{}: month ~ quarter",
                         "{carrier}: origin ~ dest")
#: rows of the CSV the untraced cli-wide run reads to learn which
#: kernel backend the CLI ran (outside the timed loop)
CLI_PROBE_ROWS = 2_000

#: generator seeds stay fixed so every seed does the same amount of
#: work; ``--seed`` permutes the rows and drives the delta stream
GENERATOR_SEEDS = {"ncvoter": 7, "flight": 42}


@dataclass
class Outcome:
    setup_s: List[float] = field(default_factory=list)
    #: untraced op latencies (the end-to-end sample)
    op_s: List[float] = field(default_factory=list)
    traced_op_s: List[float] = field(default_factory=list)
    loop_s: float = 0.0
    #: requests completed in the loop (a service round is three)
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    peak_rss_mb: float = 0.0
    backends: List[str] = field(default_factory=list)
    built_in_setup: bool = False
    #: per-request end-to-end figures, printed with their sample count
    report: Dict[str, tuple] = field(default_factory=dict)
    #: per-layer values already computed by the workload
    layers: Dict[str, float] = field(default_factory=dict)
    tracer: probes.Tracer = field(default_factory=probes.Tracer)
    registry: Dict = field(default_factory=dict)
    checks: Dict[str, object] = field(default_factory=dict)

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.checks.setdefault("failures", []).append(reason)


def od_strings(payload: Dict) -> tuple:
    """The FD and OCD lines of a ``DiscoveryResult.to_dict`` payload."""
    return tuple(payload["fds"]), tuple(payload["ocds"])


def oracle_ods(relation) -> tuple:
    """Serial discovery on the reference kernels."""
    from repro.core.fastod import FastOD, FastODConfig

    result = FastOD(relation, FastODConfig(
        workers=1, kernel_backend="reference")).run()
    return od_strings(result.to_dict())


def permuted(family: str, n_rows: int, n_attrs: int, seed: int,
             plain: bool = False):
    """The family's relation with its rows in a seed-chosen order;
    ``plain`` turns NumPy scalars into Python values (for JSON)."""
    import numpy as np

    from repro.datasets import make_dataset
    from repro.relation.table import Relation

    base = make_dataset(family, n_rows=n_rows, n_attrs=n_attrs,
                        seed=GENERATOR_SEEDS[family])
    order = np.random.default_rng(seed).permutation(base.n_rows)
    columns = {}
    for index, name in enumerate(base.names):
        column = np.asarray(base.column_at(index))[order]
        columns[name] = column.tolist() if plain else list(column)
    return Relation.from_columns(columns)


def check_outputs(outcome: Outcome, outputs: List[tuple],
                  expected: tuple) -> None:
    """Count every op whose ODs differ from the oracle's as failed."""
    for got in outputs:
        if got != expected:
            outcome.fail("discovered ODs differ from the reference run")
    outcome.checks["oracle_ods"] = len(expected[0]) + len(expected[1])


def ensure_kernels() -> None:
    """Build the compiled kernels into the checkout's cache (a no-op
    once built) so no timed op ever pays for a compile."""
    from repro.kernels import compiled

    try:
        compiled.build_library()
    except compiled.CompiledKernelsUnavailable:
        pass                 # the program falls back to reference


def closed_loop(seconds: float, trace: bool,
                op: Callable[[bool], None],
                between: Optional[Callable[[], None]] = None) -> float:
    """Run ``op(traced)`` back to back for ``seconds`` (at least
    :data:`MIN_OPS` times); in trace mode every second op is traced.
    ``between`` runs after every op, off the clock: its time extends
    the deadline and is left out of the returned loop wall time."""
    started = time.perf_counter()
    paused = 0.0
    count = 0
    while count < MIN_OPS or time.perf_counter() < started + seconds + paused:
        op(trace and count % 2 == 1)
        count += 1
        if between is not None:
            pause_started = time.perf_counter()
            between()
            paused += time.perf_counter() - pause_started
    return time.perf_counter() - started - paused


class Traced:
    """Probes plus a registry delta around one traced op."""

    def __init__(self, outcome: Outcome):
        self._outcome = outcome

    def __enter__(self):
        self._before = common.registry_now()
        self._uninstall = probes.install(self._outcome.tracer)
        return self

    def __exit__(self, *exc) -> None:
        self._uninstall()
        common.add_into(self._outcome.registry, common.registry_delta(
            self._before, common.registry_now()))


# ----------------------------------------------------------------------
# cli-wide: repro-od discover subprocesses on a wide ncvoter CSV
# ----------------------------------------------------------------------
def _run_child(argv: List[str], stderr_path: Path):
    """Run one child to completion; returns ``(seconds, exit code,
    stdout, peak RSS MiB)`` measured for that child alone."""
    with open(stderr_path, "wb") as stderr:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                stderr=stderr, cwd=common.ROOT)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, out, usage.ru_maxrss / 1024.0


def cli_wide(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.relation.csvio import read_csv, write_csv

    outcome = Outcome()
    work = common.TMP / f"cli-wide-{seed}"
    work.mkdir(parents=True, exist_ok=True)
    csv_path = work / "ncvoter.csv"
    before = common.kernel_cache_files()

    def set_up() -> None:
        started = time.perf_counter()
        write_csv(permuted(CLI_FAMILY, CLI_ROWS, CLI_ATTRS, seed),
                  csv_path)
        ensure_kernels()
        outcome.setup_s.append(time.perf_counter() - started)

    set_up()
    outcome.built_in_setup = common.kernel_cache_files() != before

    child = str(Path(__file__).with_name("cli_child.py"))
    report_path = work / "child.json"
    stderr_path = work / "stderr.txt"
    outputs: List[tuple] = []
    rss: List[float] = []
    startup: List[float] = []
    residency: List[float] = []

    def op(traced: bool) -> None:
        args = ["discover", str(csv_path), "--json"]
        argv = ([sys.executable, child, str(report_path), "1", *args]
                if traced else [sys.executable, "-m", "repro.cli", *args])
        outcome.attempted += 1
        elapsed, code, out, peak = _run_child(argv, stderr_path)
        outcome.requests += 1
        (outcome.traced_op_s if traced else outcome.op_s).append(elapsed)
        if not traced:
            rss.append(peak)
        try:
            payload = json.loads(out)
        except ValueError:
            payload = None
        if code != 0 or payload is None:
            outcome.fail(f"discover exited {code}: "
                         f"{stderr_path.read_text()[-500:]}")
            return
        outputs.append(od_strings(payload))
        if traced:
            report = json.loads(report_path.read_text())
            startup.append(elapsed - report["main_s"])
            outcome.tracer.absorb(report["tracer"])
            common.add_into(outcome.registry, common.flatten_registry(
                report["registry"]))
            residency.append(payload.get("executor", {}).get(
                "peak_residency_bytes", 0))

    # a set-up is a fraction of an op: repeating it (same bytes) after
    # every op samples the host's speed over the whole run, as the ops
    # do, where a burst before the loop would sample one second of it
    outcome.loop_s = closed_loop(seconds, trace, op, between=set_up)

    check_outputs(outcome, outputs, oracle_ods(read_csv(csv_path)))
    if trace:
        registry = outcome.registry
    else:
        # which backend the CLI runs is decided per process, not per
        # input: learn it from one reporting child on a small CSV
        probe_csv = work / "probe.csv"
        write_csv(read_csv(csv_path, limit=CLI_PROBE_ROWS), probe_csv)
        _run_child([sys.executable, child, str(report_path), "0",
                    "discover", str(probe_csv), "--json"], stderr_path)
        registry = common.flatten_registry(
            json.loads(report_path.read_text())["registry"])
    outcome.backends = common.kernel_backends(registry)
    outcome.peak_rss_mb = common.median(rss)
    outcome.report["discover_s"] = (common.median(outcome.op_s), "s",
                                    len(outcome.op_s))
    outcome.layers["cli.startup_s"] = common.median(startup)
    outcome.layers["partitions.peak_residency_bytes"] = max(
        residency, default=0)
    shutil.rmtree(work, ignore_errors=True)
    return outcome


# ----------------------------------------------------------------------
# pooled-tall: in-process FastOD on a warm injected 2-worker pool
# ----------------------------------------------------------------------
def pooled_tall(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import kernels
    from repro.core.fastod import FastOD, FastODConfig
    from repro.parallel.pool import WorkerPool

    outcome = Outcome()
    before = common.kernel_cache_files()
    setup_tracer = probes.Tracer()
    pool = relation = None
    config = FastODConfig(workers=POOL_WORKERS)
    try:
        reps = SETUP_REPS["pooled-tall"]
        for rep in range(reps):
            if pool is not None:
                pool.shutdown()
                pool = relation = None
            last = rep == reps - 1
            uninstall = (probes.install(setup_tracer) if trace and last
                         else None)
            started = time.perf_counter()
            relation = permuted(POOL_FAMILY, POOL_ROWS, POOL_ATTRS, seed)
            relation.encode()
            ensure_kernels()
            kernels.compiled_available()      # load into this process
            pool_started = time.perf_counter()
            pool = WorkerPool(relation.encode(), POOL_WORKERS)
            FastOD(relation, config, pool=pool).run()
            ended = time.perf_counter()
            outcome.setup_s.append(ended - started)
            if uninstall is not None:
                uninstall()
                outcome.layers["parallel.start_s"] = ended - pool_started
        outcome.built_in_setup = common.kernel_cache_files() != before
        outcome.layers["relation.setup_encode_s"] = \
            setup_tracer.total_s.get("relation.encode", 0.0)

        outputs: List[tuple] = []
        residency: List[float] = []
        pool_stats = defaultdict(float)

        def op(traced: bool) -> None:
            outcome.attempted += 1
            stats_before = pool.stats()
            with (Traced(outcome) if traced else nullcontext()):
                started = time.perf_counter()
                result = FastOD(relation, config, pool=pool).run()
                elapsed = time.perf_counter() - started
            outcome.requests += 1
            (outcome.traced_op_s if traced else outcome.op_s).append(
                elapsed)
            outputs.append(od_strings(result.to_dict()))
            if traced:
                stats_after = pool.stats()
                for key in ("busy_seconds", "queue_wait_seconds"):
                    pool_stats[key] += stats_after[key] - stats_before[key]
                residency.append(
                    result.executor_stats["peak_residency_bytes"])

        # set-up peaks higher than the loop: count the loop's peak only
        pids = ["self"] + [child.pid
                           for child in multiprocessing.active_children()]
        outcome.checks["peak_rss_reset"] = all(
            [common.reset_peak_rss(pid) for pid in pids])
        outcome.loop_s = closed_loop(seconds, trace, op)
        outcome.peak_rss_mb = sum(common.peak_rss_mb(pid) for pid in pids)
        outcome.backends = sorted(
            set(common.kernel_backends(common.registry_now()))
            | set(common.span_backends()))
    finally:
        if pool is not None:
            pool.shutdown()
    if trace:
        # pool workers make every swap call, out of the probes' reach;
        # the serial run of the same discovery issues the same swap
        # tasks, so it measures their context coarseness
        replay = probes.Tracer()
        uninstall = probes.install(replay)
        try:
            FastOD(relation, FastODConfig(workers=1)).run()
        finally:
            uninstall()
        swaps = replay.counts.get("kernels.swap.calls", 0.0)
        outcome.layers["kernels.swap.coarse_share"] = (
            replay.counts.get("kernels.swap.coarse", 0.0) / swaps
            if swaps else 0.0)

    check_outputs(outcome, outputs, oracle_ods(relation))
    outcome.report["discover_s"] = (common.median(outcome.op_s), "s",
                                    len(outcome.op_s))
    traced_wall = sum(outcome.traced_op_s)
    n = max(1, len(outcome.traced_op_s))
    outcome.layers.update({
        "parallel.busy_s": pool_stats["busy_seconds"] / n,
        "parallel.queue_wait_s": pool_stats["queue_wait_seconds"] / n,
        "parallel.utilization": (
            pool_stats["busy_seconds"] / (traced_wall * POOL_WORKERS)
            if traced_wall else 0.0),
        "partitions.peak_residency_bytes": max(residency, default=0),
    })
    return outcome


# ----------------------------------------------------------------------
# service-mixed: one client, delta → validate → cached discover rounds
# ----------------------------------------------------------------------
class DeltaStream:
    """Seeded mixed batches that are valid against the live rows.

    Rows move between the live relation and a reserve drawn from the
    same generator run: a delete parks a live row in the reserve, an
    insert brings a reserve row in, an update does both.  The live
    relation stays a random subset of one fixed universe, so the OD
    set, and with it the cost of a round, does not drift as the run
    goes on."""

    def __init__(self, live: List[tuple], reserve: List[tuple],
                 seed: int):
        self._rng = random.Random(seed)
        self._live = list(live)
        self._reserve = list(reserve)

    def _take(self, rows: List[tuple]) -> tuple:
        index = self._rng.randrange(len(rows))
        rows[index], rows[-1] = rows[-1], rows[index]
        return rows.pop()

    def next_ops(self) -> List[list]:
        ops: List[list] = []
        for _ in range(DELTA_ROLLS):
            roll = self._rng.random()
            # below 0.35 a delete, below 0.60 an update, else an insert
            old = self._take(self._live) if roll < 0.60 else None
            if old is not None:
                ops.append([-1, list(old)])
            if roll >= 0.35:
                new = self._take(self._reserve)
                ops.append([1, list(new)])
                self._live.append(new)
            if old is not None:
                self._reserve.append(old)
        return ops


def _boot_service(work: Path, relation, stream: DeltaStream):
    from repro.server import ODService, ServiceClient

    service = ODService(port=0, workers=1,
                        journal_dir=str(work / "journal"),
                        store_dir=str(work / "store"))
    service.start()
    client = ServiceClient(service.url)
    rows = [list(row) for row in relation.rows()]
    root = client.register_rows(list(relation.names), rows)["fingerprint"]
    first = stream.next_ops()
    reply = client.delta(root, ops=first)
    if reply.get("status") != "done":
        raise RuntimeError(f"set-up delta failed: {reply.get('error')}")
    return service, client, root, reply["fingerprint"], first


def service_mixed(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro.deltalog import DeltaBatch, delta_log_path, read_delta_log
    from repro.deltalog import replay_relation
    from repro.obs import events
    from repro.relation.fingerprint import fingerprint
    from repro.relation.table import Relation

    outcome = Outcome()
    generated = permuted(SERVICE_FAMILY, SERVICE_ROWS + SERVICE_RESERVE,
                         SERVICE_ATTRS, seed, plain=True)
    universe = list(generated.rows())
    base_rows = universe[:SERVICE_ROWS]
    base = Relation.from_rows(generated.names, base_rows)
    before = common.kernel_cache_files()
    setup_tracer = probes.Tracer()
    events.set_sink(lambda line: None)
    service = None
    works: List[Path] = []
    try:
        reps = SETUP_REPS["service-mixed"]
        for rep in range(reps):
            if service is not None:
                service.close()
                service = None
            work = common.TMP / f"service-{seed}-{rep}"
            shutil.rmtree(work, ignore_errors=True)
            works.append(work)
            last = rep == reps - 1
            uninstall = (probes.install(setup_tracer) if trace and last
                         else None)
            started = time.perf_counter()
            ensure_kernels()
            stream = DeltaStream(base_rows, universe[SERVICE_ROWS:],
                                 seed)
            service, client, root, fp, first = _boot_service(
                work, base, stream)
            outcome.setup_s.append(time.perf_counter() - started)
            if uninstall is not None:
                uninstall()
        outcome.built_in_setup = common.kernel_cache_files() != before
        outcome.layers["incremental.bootstrap_s"] = \
            setup_tracer.total_s.get("incremental.bootstrap", 0.0)
        outcome.layers["relation.setup_encode_s"] = \
            setup_tracer.total_s.get("relation.encode", 0.0)

        batches = [first]
        latency: Dict[str, List[float]] = defaultdict(list)
        jobs = defaultdict(float)
        retraversed: List[bool] = []
        residency: List[float] = []
        state = {"fp": fp, "round": 0}

        def request(kind: str, call: Callable[[], Dict],
                    traced: bool) -> Optional[Dict]:
            outcome.attempted += 1
            started = time.perf_counter()
            try:
                reply = call()
            except Exception as error:   # noqa: BLE001 — counted
                outcome.fail(f"{kind}: {error}")
                return None
            elapsed = time.perf_counter() - started
            outcome.requests += 1
            if not traced:
                latency[kind].append(elapsed)
            if reply.get("status") != "done":
                outcome.fail(f"{kind} finished {reply.get('status')}: "
                             f"{reply.get('error')}")
                return None
            if traced:
                span = reply["finished_at"] - reply["submitted_at"]
                jobs[f"server.job.{kind}_s"] += (reply["finished_at"]
                                                 - reply["started_at"])
                jobs["server.queue_wait_s"] += (reply["started_at"]
                                                - reply["submitted_at"])
                jobs["server.http_s"] += max(0.0, elapsed - span)
                residency.append(reply.get("executor", {}).get(
                    "peak_residency_bytes", 0))
            return reply

        def op(traced: bool) -> None:
            ops = stream.next_ops()
            batches.append(ops)
            dependency = VALIDATE_DEPENDENCIES[
                state["round"] % len(VALIDATE_DEPENDENCIES)]
            state["round"] += 1
            with (Traced(outcome) if traced else nullcontext()):
                started = time.perf_counter()
                reply = request("delta", lambda: client.delta(
                    state["fp"], ops=ops), traced)
                if reply is not None:
                    state["fp"] = reply["fingerprint"]
                    if traced:
                        retraversed.append(
                            bool(reply["report"]["retraversed"]))
                request("validate", lambda: client.validate(
                    state["fp"], dependency), traced)
                reply = request("discover", lambda: client.discover(
                    state["fp"]), traced)
                elapsed = time.perf_counter() - started
            if reply is not None and not reply.get("cached"):
                outcome.fail("discover was not served from the result store")
            (outcome.traced_op_s if traced else outcome.op_s).append(
                elapsed)

        outcome.checks["peak_rss_reset"] = common.reset_peak_rss("self")
        outcome.loop_s = closed_loop(seconds, trace, op)
        outcome.peak_rss_mb = common.peak_rss_mb("self")
        outcome.backends = common.kernel_backends(common.registry_now())

        # -- checks: the acknowledged state, from scratch and from WAL
        final = client.discover(state["fp"])
        folded = replay_relation(base, [DeltaBatch(ops) for ops in batches])
        wal = delta_log_path(works[-1] / "journal", root)
        records = read_delta_log(wal)
        replayed = replay_relation(base, [r.batch for r in records])
        checks = {
            "live fingerprint equals the folded relation's":
                fingerprint(folded) == state["fp"],
            "final result equals the reference run on the fold":
                od_strings(final["result"]) == oracle_ods(folded),
            "WAL replay reproduces the live fingerprint":
                fingerprint(replayed) == state["fp"],
        }
        outcome.attempted += len(checks)
        for name, passed in checks.items():
            if not passed:
                outcome.fail(f"check failed: {name}")
        n_ops = sum(len(r.batch) for r in records)
        outcome.layers["deltalog.bytes_per_op"] = (
            wal.stat().st_size / n_ops if n_ops else 0.0)
        outcome.checks.update(wal_records=len(records),
                              rounds=state["round"])
    finally:
        if service is not None:
            service.close()
        events.set_sink(None)
        for work in works:
            shutil.rmtree(work, ignore_errors=True)

    n_traced = max(1, len(outcome.traced_op_s))
    for key, value in jobs.items():
        outcome.layers[key] = value / n_traced
    outcome.layers["incremental.retraverse_share"] = (
        sum(retraversed) / len(retraversed) if retraversed else 0.0)
    outcome.layers["partitions.peak_residency_bytes"] = max(
        residency, default=0)
    deltas = latency["delta"]
    outcome.report.update({
        "round_p50_s": (common.median(outcome.op_s), "s",
                        len(outcome.op_s)),
        "delta_p50_s": (common.median(deltas), "s", len(deltas)),
        "validate_p50_s": (common.median(latency["validate"]), "s",
                           len(latency["validate"])),
        "hit_p50_s": (common.median(latency["discover"]), "s",
                      len(latency["discover"])),
    })
    if common.supports_p90(len(deltas)):
        outcome.report["delta_p90_s"] = (
            common.percentile(deltas, 0.9), "s", len(deltas))
    return outcome


WORKLOADS = {
    "cli-wide": cli_wide,
    "pooled-tall": pooled_tall,
    "service-mixed": service_mixed,
}
