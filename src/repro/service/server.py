"""The campaign service: socket front end + fair-share shard scheduler.

:class:`CampaignService` owns a service root directory, a threading TCP
server speaking the line-JSON protocol (:mod:`repro.service.protocol`)
and a :class:`~repro.service.scheduler.FairScheduler` that multiplexes
every live job over one shared pool of campaign worker processes —
deficit round-robin across jobs at shard granularity, so a small job
submitted mid-sweep completes promptly instead of queueing behind it
(see the scheduler module for the fairness and bit-identity story).

Jobs are content-addressed: the job id is the spec + shard-layout digest,
so identical submissions from any number of concurrent clients collapse
to one job, one store, one execution.  All job stores share the service
root's ``results/`` unit cache, so even *different* campaigns simulate
each overlapping unit only once.  Execution knobs (``workers`` — now the
per-job in-flight shard cap — ``priority``, ``ttl``) stay out of the job
identity: results are bit-identical under any scheduling.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import socketserver
import sys
import threading
import time
from pathlib import Path
from typing import Any

from ..campaign import CampaignSpec, CampaignStore
from ..errors import CampaignError
from ..faults.plan import fault_point
from ..session.artifacts import digest_json
from .protocol import ProtocolError, recv_message, send_message
from .scheduler import PRIORITY_WEIGHTS, FairScheduler, Job

__all__ = ["CampaignService", "serve_forever"]

#: Default shard layout for submitted jobs: small enough that progress
#: events are frequent and a killed worker loses little, large enough that
#: per-shard bookkeeping stays negligible.
DEFAULT_SERVICE_SHARD_SIZE = 256

#: Default per-connection read deadline.  A client that connects and goes
#: silent (half-open TCP, a hung peer) would otherwise pin its handler
#: thread forever; after this many seconds of no request the connection is
#: dropped — completed work is unaffected, the client just reconnects.
DEFAULT_READ_TIMEOUT = 300.0

#: Default per-poll send window of the ``events`` op: if a slow consumer
#: falls more than this many events behind, the oldest surplus is dropped
#: (and counted) rather than buffered without bound.
DEFAULT_EVENT_BUFFER = 256


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: a sequence of request/response exchanges."""

    def handle(self) -> None:  # pragma: no cover - exercised via the socket
        service: CampaignService = self.server.service  # type: ignore[attr-defined]
        # Per-connection deadline, both directions: a silent peer cannot
        # pin this handler thread past the timeout on reads, and a wedged
        # consumer cannot pin an event stream past it on writes.
        self.connection.settimeout(service.read_timeout)
        while True:
            try:
                fault_point("service.read", ctx=str(self.client_address))
                request = recv_message(self.rfile)
            except socket.timeout:
                return  # silent peer: drop the connection, keep the thread
            except ProtocolError as exc:
                send_message(self.wfile, {"ok": False, "error": str(exc)})
                return
            except Exception as exc:
                # An injected fault (or any unexpected read error) must cost
                # this connection only, never the accept loop.
                try:
                    send_message(self.wfile, {"ok": False, "error": str(exc)})
                except OSError:
                    pass
                return
            if request is None:
                return
            stop_after = request.get("op") == "shutdown"
            try:
                service.handle_request(request, self.wfile)
            except (BrokenPipeError, socket.timeout):
                return  # consumer vanished or wedged: drop the connection
            if stop_after:
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class CampaignService:
    """Socket front end + fair-share scheduler over one service root."""

    def __init__(
        self,
        root: str | os.PathLike,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int | None = None,
        shard_size: int | None = None,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        pool: int | None = None,
        job_ttl: float | None = None,
        drain_timeout: float = 60.0,
    ):
        self.root = Path(root)
        self.jobs_root = self.root / "jobs"
        self.results_dir = self.root / "results"
        self.default_workers = workers  # per-job in-flight shard cap
        self.default_shard_size = shard_size or DEFAULT_SERVICE_SHARD_SIZE
        self.default_job_ttl = job_ttl
        self.read_timeout = read_timeout
        self.pool_size = pool or max(2, min(os.cpu_count() or 2, 8))
        self.drain_timeout = drain_timeout
        self._jobs: dict[str, Job] = {}
        self._lock = threading.Lock()
        self._scheduler = FairScheduler(
            self.root,
            self.results_dir,
            pool_size=self.pool_size,
            jobs_provider=self._jobs_snapshot,
        )
        self._server = _Server((host, port), _Handler)
        self._server.service = self  # type: ignore[attr-defined]
        self._serve_thread: threading.Thread | None = None
        self._stopped = threading.Event()
        self._drained = threading.Event()
        self.drain_failed = False

    def _jobs_snapshot(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    # -- lifecycle ------------------------------------------------------- #
    @property
    def address(self) -> tuple[str, int]:
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    def start(self) -> tuple[str, int]:
        """Start serving and scheduling; returns the bound (host, port)."""
        self.root.mkdir(parents=True, exist_ok=True)
        host, port = self.address
        (self.root / "service.json").write_text(
            json.dumps(
                {"host": host, "port": port, "pid": os.getpid()},
                indent=2,
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        self._scheduler.start()
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, name="service-accept", daemon=True
        )
        self._serve_thread.start()
        return host, port

    def stop(self) -> None:
        """Graceful drain: stop accepting, finish in-flight *shards*, stop.

        Running jobs flip to ``cancelled`` with their partial stores intact
        (resubmit or ``campaign resume`` continues them); queued jobs are
        never silently dropped — their state flips to ``cancelled`` too, so
        a polling client sees an answer instead of an eternal ``queued``.

        A drain that fails to complete within ``drain_timeout`` is never
        silent: it is logged to stderr **and** raised as
        :class:`~repro.errors.CampaignError`, because a leaked scheduler
        thread (or a hung worker join) means the process must not be
        trusted to exit cleanly.  A second, concurrent call waits for the
        first one's drain instead of returning early.
        """
        if self._stopped.is_set():
            self._drained.wait()
            return
        self._stopped.set()
        try:
            self._server.shutdown()
            self._server.server_close()
            self.drain_failed = not self._scheduler.stop(timeout=self.drain_timeout)
        except BaseException:
            self.drain_failed = True
            raise
        finally:
            self._drained.set()
        if self.drain_failed:
            message = (
                f"service drain did not complete within {self.drain_timeout:.0f}s: "
                "the scheduler/finalizer thread is still alive (wedged shard "
                "flush or hung worker join) — the process is leaking threads"
            )
            print(message, file=sys.stderr, flush=True)
            raise CampaignError(message)

    def wait(self) -> None:
        """Block until :meth:`stop` (e.g. run by a shutdown op) has drained.

        Returns only once the scheduler thread has exited and the worker
        pool is joined, or the drain has failed (:attr:`drain_failed`).
        """
        self._drained.wait()

    # -- job management -------------------------------------------------- #
    def submit(
        self,
        spec: CampaignSpec,
        shard_size: int | None = None,
        workers: int | None = None,
        priority: str | None = None,
        ttl: float | None = None,
    ) -> tuple[Job, bool]:
        """Register (or dedup onto) a job; returns ``(job, deduped)``.

        Dedup is by content: identical spec + shard layout map to one job.
        A resubmission of a **cancelled**, **failed** or **TTL-evicted**
        job revives the same job object for a fresh run (completed shards
        of a cancelled store reload rather than re-execute); a submission
        racing an in-flight cancellation is remembered and honoured the
        moment the cancel fully lands.
        """
        shard_size = shard_size or self.default_shard_size
        cap = workers if workers is not None else self.default_workers
        priority = priority or "normal"
        if priority not in PRIORITY_WEIGHTS:
            raise CampaignError(
                f"unknown priority {priority!r}; valid: "
                f"{sorted(PRIORITY_WEIGHTS)}"
            )
        ttl = ttl if ttl is not None else self.default_job_ttl
        # Identity = what is computed (spec) + how it is laid out on disk
        # (shard layout changes the artifact set); never execution knobs.
        key = digest_json({"spec": spec.to_dict(), "shard_size": shard_size})
        job_id = f"{spec.name}-{key[:12]}"
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.cancel_requested and not existing.done:
                    # Submit racing a cancellation: run again once the
                    # cancel has fully drained.
                    existing.cap = cap
                    existing.priority = priority
                    existing.ttl = ttl
                    existing.resubmit_pending = True
                    return existing, False
                if existing.done and (
                    existing.state != "complete" or existing.evicted
                ):
                    existing.reset_for_resubmit(cap, priority, ttl)
                    self._scheduler.enqueue(existing)
                    return existing, False
                return existing, True
            job = Job(
                job_id=job_id,
                spec=spec,
                store_dir=self.jobs_root / job_id,
                shard_size=shard_size,
                cap=cap,
                priority=priority,
                ttl=ttl,
            )
            self._jobs[job_id] = job
        self._scheduler.enqueue(job)
        return job, False

    def get_job(self, job_id: str) -> Job | None:
        with self._lock:
            return self._jobs.get(job_id)

    def cancel(self, job: Job) -> bool:
        """Request cancellation; in-flight shards drain, leases release."""
        return self._scheduler.request_cancel(job)

    # -- request handling ------------------------------------------------ #
    def handle_request(self, request: dict[str, Any], wfile: Any) -> None:
        """Dispatch one request; writes response line(s) to ``wfile``."""
        op = request.get("op")
        if op == "ping":
            send_message(wfile, {"ok": True, "pong": True})
        elif op == "submit":
            send_message(wfile, self._op_submit(request))
        elif op == "status":
            send_message(wfile, self._op_status(request))
        elif op == "result":
            send_message(wfile, self._op_result(request))
        elif op == "cancel":
            send_message(wfile, self._op_cancel(request))
        elif op == "stats":
            send_message(wfile, self._op_stats())
        elif op == "jobs":
            with self._lock:
                listing = [job.describe() for job in self._jobs.values()]
            send_message(wfile, {"ok": True, "jobs": listing})
        elif op == "events":
            self._op_events(request, wfile)
        elif op == "shutdown":
            send_message(wfile, {"ok": True, "stopping": True})
            # shutdown() blocks until the accept loop exits; that loop runs
            # in a different thread than this handler, so this is safe.
            threading.Thread(target=self._stop_quietly, daemon=True).start()
        else:
            send_message(wfile, {"ok": False, "error": f"unknown op {op!r}"})

    def _stop_quietly(self) -> None:
        """The shutdown op's stop: a wedged drain logs instead of raising
        (there is no caller to catch it on this detached thread)."""
        try:
            self.stop()
        except CampaignError:
            pass  # already printed to stderr by stop()

    def _op_submit(self, request: dict[str, Any]) -> dict[str, Any]:
        payload = request.get("spec")
        if not isinstance(payload, dict):
            return {"ok": False, "error": "submit needs a 'spec' object"}
        try:
            spec = CampaignSpec.from_dict(payload)
            n_units = spec.n_units  # force validation before queueing
        except (CampaignError, TypeError, ValueError) as exc:
            return {"ok": False, "error": f"invalid spec: {exc}"}
        try:
            job, deduped = self.submit(
                spec,
                shard_size=request.get("shard_size"),
                workers=request.get("workers"),
                priority=request.get("priority"),
                ttl=request.get("ttl"),
            )
        except CampaignError as exc:
            return {"ok": False, "error": str(exc)}
        response = {"ok": True, "deduped": deduped, "n_units": n_units}
        response.update(job.describe())
        return response

    def _job_for(self, request: dict[str, Any]) -> Job | None:
        job_id = request.get("job")
        if not isinstance(job_id, str):
            return None
        return self.get_job(job_id)

    def _op_status(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._job_for(request)
        if job is None:
            return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
        response: dict[str, Any] = {"ok": True}
        response.update(job.describe())
        progress = None
        try:
            progress = CampaignStore(job.store_dir).shard_progress()
        except CampaignError:
            pass
        if progress is not None:
            response["shards"] = {
                "total": progress.total,
                "complete": progress.complete,
                "partial": progress.partial,
                "rows_flushed": progress.rows_flushed,
            }
        return response

    def _op_result(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._job_for(request)
        if job is None:
            return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
        if job.state in ("failed", "cancelled"):
            return {
                "ok": False,
                "error": job.error or f"job {job.state}",
                "state": job.state,
            }
        if job.evicted:
            return {
                "ok": False,
                "error": f"job {job.job_id} was evicted after its ttl; "
                         "resubmit to recompute",
                "state": job.state,
            }
        if job.state != "complete" or job.summary is None:
            return {
                "ok": False,
                "error": f"job {job.job_id} is {job.state}; poll status or "
                         "stream events until it completes",
                "state": job.state,
            }
        response: dict[str, Any] = {"ok": True, "job": job.job_id, "state": job.state}
        response.update(job.summary)
        return response

    def _op_cancel(self, request: dict[str, Any]) -> dict[str, Any]:
        job = self._job_for(request)
        if job is None:
            return {"ok": False, "error": f"unknown job {request.get('job')!r}"}
        if job.done:
            # Idempotent: cancelling a terminal job is a no-op, not an error.
            return {"ok": True, "job": job.job_id, "state": job.state}
        if not self.cancel(job):
            return {
                "ok": False,
                "error": f"job {job.job_id} is {job.state} and can no longer "
                         "be cancelled",
                "state": job.state,
            }
        return {"ok": True, "job": job.job_id, "state": job.state}

    def _op_stats(self) -> dict[str, Any]:
        stats = dict(self._scheduler.stats())
        with self._lock:
            states: dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
        stats.update({"ok": True, "pool_size": self.pool_size, "jobs": states})
        return stats

    def _op_events(self, request: dict[str, Any], wfile: Any) -> None:
        """Stream a job's telemetry events with bounded-buffer backpressure.

        Events are read incrementally (byte-offset follower, not a whole-
        file re-parse per tick).  Each poll sends at most ``buffer`` events:
        a consumer that falls further behind than that gets the **newest**
        ``buffer`` events, and the surplus is dropped — counted on the wire
        (``{"dropped": n}``) and surfaced in the job store's
        ``events.jsonl`` as an ``events_dropped`` event.  A consumer that
        stops reading entirely trips the connection's send timeout and is
        disconnected; the server never buffers without bound.
        """
        job = self._job_for(request)
        if job is None:
            send_message(
                wfile, {"ok": False, "error": f"unknown job {request.get('job')!r}"}
            )
            return
        follow = bool(request.get("follow"))
        try:
            buffer = max(int(request.get("buffer") or DEFAULT_EVENT_BUFFER), 1)
        except (TypeError, ValueError):
            buffer = DEFAULT_EVENT_BUFFER
        store = CampaignStore(job.store_dir)
        follower = store.events_follower()
        dropped_total = 0

        def _send_batch() -> int:
            nonlocal dropped_total
            batch = follower.poll()
            if len(batch) > buffer:
                dropped = len(batch) - buffer
                dropped_total += dropped
                batch = batch[-buffer:]
                store.record_event(
                    "events_dropped", job=job.job_id, dropped=dropped
                )
                send_message(wfile, {"ok": True, "dropped": dropped})
            for event in batch:
                send_message(wfile, {"ok": True, "event": event})
            return len(batch)

        while True:
            _send_batch()
            if not follow or job.done:
                break
            time.sleep(0.05)
        _send_batch()  # the tail appended after the last poll
        send_message(
            wfile,
            {
                "ok": True,
                "done": True,
                "state": job.state,
                "events_dropped": dropped_total,
            },
        )


def serve_forever(
    root: str | os.PathLike,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int | None = None,
    shard_size: int | None = None,
    pool: int | None = None,
    job_ttl: float | None = None,
) -> int:
    """CLI entry point: run a service until shutdown op, SIGTERM or Ctrl-C.

    SIGTERM (the orchestrator's polite kill) triggers the same graceful
    drain as the ``shutdown`` op: in-flight shards finish, running jobs
    flip to ``cancelled`` with resumable stores, then the process exits —
    0 once the drain has completed, 1 if it failed.
    """
    service = CampaignService(
        root,
        host=host,
        port=port,
        workers=workers,
        shard_size=shard_size,
        pool=pool,
        job_ttl=job_ttl,
    )

    def _on_sigterm(signum: int, frame: Any) -> None:
        print("SIGTERM: draining and shutting down", flush=True)
        threading.Thread(target=service._stop_quietly, daemon=True).start()

    # Handler first, then start: the address file is the orchestrator's
    # readiness signal, so a SIGTERM must drain gracefully from the moment
    # service.json exists — there is no window with the default handler.
    previous = signal.signal(signal.SIGTERM, _on_sigterm)
    bound_host, bound_port = service.start()
    print(f"spectrends service listening on {bound_host}:{bound_port}", flush=True)
    print(f"service root: {service.root}", flush=True)
    print(
        f"scheduler: pool={service.pool_size} shard_size={service.default_shard_size}"
        + (f" job_ttl={job_ttl:.0f}s" if job_ttl else ""),
        flush=True,
    )
    try:
        service.wait()
    except KeyboardInterrupt:
        print("shutting down", flush=True)
        service._stop_quietly()
    finally:
        signal.signal(signal.SIGTERM, previous)
    return 1 if service.drain_failed else 0


def read_service_address(root: str | os.PathLike) -> tuple[str, int]:
    """The (host, port) a service rooted at ``root`` wrote on startup."""
    path = Path(root) / "service.json"
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        return str(data["host"]), int(data["port"])
    except (OSError, ValueError, KeyError) as exc:
        raise CampaignError(f"no service address under {root}: {exc}") from exc
