"""Execution policies: how a session turns work into CPU time.

:class:`ExecutionPolicy` subsumes the two knobs the pipeline used to expose
separately — the :class:`~repro.parallel.ParallelConfig` worker pool and the
campaign runner's ``batch=`` flag selecting the vectorized simulation
kernel — behind one declarative object:

==========  =============================  ================================
mode        worker pool                    simulation kernel (``auto``)
==========  =============================  ================================
``batch``   serial (in-process)            vectorized :class:`BatchDirector`
``serial``  serial (in-process)            scalar :class:`RunDirector`
``thread``  thread pool                    vectorized per worker chunk
``process`` process pool                   vectorized per worker chunk
==========  =============================  ================================

``kernel`` overrides the last column (``"batch"`` / ``"scalar"``) when a
fidelity study needs the scalar path under a pool, or vice versa.  The
default policy — ``ExecutionPolicy()`` — reproduces the pipeline's historic
defaults: serial dispatch, vectorized campaign kernel.

A policy describes *how* results are computed, never *what* they are: batch
and scalar kernels are bit-for-bit identical (pinned by the batch-simulator
equivalence tests), so policies are deliberately excluded from artifact
content hashes — switching executors never invalidates a cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import SessionError
from ..faults.retry import RetryPolicy
from ..parallel import ParallelConfig

__all__ = ["ExecutionPolicy"]

_MODES = ("serial", "thread", "process", "batch")
_KERNELS = ("auto", "batch", "scalar")

_BACKENDS = {"serial": "serial", "batch": "serial", "thread": "thread", "process": "process"}

_PRIORITIES = ("high", "normal", "low")


@dataclass(frozen=True)
class ExecutionPolicy:
    """How a :class:`~repro.session.Session` executes its stages.

    Attributes
    ----------
    mode:
        ``"batch"`` (default), ``"serial"``, ``"thread"`` or ``"process"``.
    workers:
        Pool size for ``thread``/``process`` modes; ``None`` uses
        ``os.cpu_count()``.  Ignored by the serial modes.
    chunk_size:
        Items handed to a worker per task (amortises IPC cost).
    kernel:
        ``"auto"`` (default; see the table above), ``"batch"`` or
        ``"scalar"`` — the simulation kernel campaigns run on.
    serial_threshold:
        Inputs up to this size run serially even under a pool mode
        (``None`` uses the :class:`ParallelConfig` default; ``0`` forces
        pool dispatch for any input size).
    shard_size:
        Units per shard for campaign execution.  Every campaign streams
        shard by shard, flushing each shard's rows to the store before the
        next starts, so resident memory is O(shard_size).  ``None``
        (default) streams at ``DEFAULT_SHARD_SIZE`` (1024) and hands the
        caller the rows as one resident frame; any value hands back the
        streamed result and enables the multi-worker fan-out below.
    max_resident_results:
        Upper bound on result rows resident at once.  Enables sharding by
        itself and clamps ``shard_size`` from above, so a policy can state
        a memory budget directly instead of a shard layout.
    profile:
        Enable span tracing for this session: stage and hot-path spans are
        emitted to ``events.jsonl`` in the session workspace, feeding
        ``spectrends profile report``.  Equivalent to ``REPRO_PROFILE=1``.
        Like every policy knob it changes how work is *observed*, never
        what is computed — traced and untraced results are bit-identical.
    retry:
        A :class:`~repro.faults.RetryPolicy` enabling per-unit retry
        rounds with backoff and poison-unit quarantine for campaigns.
        ``None`` (default) keeps the historical behaviour: one attempt per
        unit per pass, failures recorded but never quarantined.
    faults:
        A :class:`~repro.faults.FaultPlan` (or inline JSON / file path /
        mapping, as ``REPRO_FAULTS`` accepts) installed for the duration
        of policy-driven campaign runs — chaos testing only.  Like
        ``profile``, retry/faults are execution knobs: they are excluded
        from artifact content hashes, and the non-quarantined results are
        bit-identical with or without them.
    priority:
        Fair-share class a service submission runs under: ``"high"``,
        ``"normal"`` (default) or ``"low"``.  Maps to the scheduler's
        deficit-round-robin weights — a scheduling knob only, so like
        every policy field it can never change the computed bytes.
    job_ttl:
        Seconds a *finished* service job's store is retained before the
        scheduler evicts it from the service root (``None`` = keep
        forever).  A resubmit after eviction simply recomputes.
    """

    mode: str = "batch"
    workers: int | None = None
    chunk_size: int = 32
    kernel: str = "auto"
    serial_threshold: int | None = None
    shard_size: int | None = None
    max_resident_results: int | None = None
    profile: bool = False
    retry: RetryPolicy | None = None
    faults: Any = None
    priority: str = "normal"
    job_ttl: float | None = None

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SessionError(
                f"unknown execution mode {self.mode!r}; valid modes: {_MODES}"
            )
        if self.kernel not in _KERNELS:
            raise SessionError(
                f"unknown kernel {self.kernel!r}; valid kernels: {_KERNELS}"
            )
        if self.workers is not None and self.workers < 0:
            raise SessionError("workers must be >= 0")
        if self.chunk_size < 1:
            raise SessionError("chunk_size must be >= 1")
        if self.serial_threshold is not None and self.serial_threshold < 0:
            raise SessionError("serial_threshold must be >= 0")
        if self.shard_size is not None and self.shard_size < 1:
            raise SessionError("shard_size must be >= 1")
        if self.max_resident_results is not None and self.max_resident_results < 1:
            raise SessionError("max_resident_results must be >= 1")
        if self.retry is not None and not isinstance(self.retry, RetryPolicy):
            raise SessionError("retry must be a repro.faults.RetryPolicy or None")
        if self.priority not in _PRIORITIES:
            raise SessionError(
                f"unknown priority {self.priority!r}; valid priorities: {_PRIORITIES}"
            )
        if self.job_ttl is not None and self.job_ttl <= 0:
            raise SessionError("job_ttl must be > 0 seconds")

    # ------------------------------------------------------------------ #
    def parallel_config(self) -> ParallelConfig:
        """The equivalent worker-pool configuration."""
        kwargs = {}
        if self.serial_threshold is not None:
            kwargs["serial_threshold"] = self.serial_threshold
        return ParallelConfig(
            max_workers=self.workers,
            backend=_BACKENDS[self.mode],
            chunk_size=self.chunk_size,
            **kwargs,
        )

    @property
    def use_batch_kernel(self) -> bool:
        """Whether campaigns simulate through the vectorized kernel."""
        if self.kernel != "auto":
            return self.kernel == "batch"
        return self.mode != "serial"

    @property
    def sharded(self) -> bool:
        """Whether the policy names a shard layout (streamed result view)."""
        return self.shard_size is not None or self.max_resident_results is not None

    @property
    def campaign_workers(self) -> int | None:
        """Worker-pool fan-out for sharded campaigns, or ``None`` for serial.

        A policy asks for the multi-worker shard scheduler by combining
        ``mode="process"`` (worker processes), an explicit ``workers`` count
        above one, and an explicit shard layout — shards are the unit of
        distribution, so campaigns without a layout never spawn a pool
        (their ``process`` mode parallelises units inside each shard).  Each
        spawned worker executes its claimed shards serially; the
        parallelism lives at the worker level (``campaign/sharding.py``).
        """
        if (
            self.mode == "process"
            and self.sharded
            and self.workers is not None
            and self.workers > 1
        ):
            return self.workers
        return None

    @property
    def effective_shard_size(self) -> int | None:
        """Units per shard after applying the residency budget, if sharded.

        ``max_resident_results`` clamps ``shard_size`` from above and
        enables sharding on its own; ``None`` means the default layout.
        """
        if not self.sharded:
            return None
        if self.shard_size is None:
            return self.max_resident_results
        if self.max_resident_results is None:
            return self.shard_size
        return min(self.shard_size, self.max_resident_results)

    # ------------------------------------------------------------------ #
    @classmethod
    def from_parallel(
        cls, config: ParallelConfig | None, batch: bool = True
    ) -> "ExecutionPolicy":
        """Adapt a legacy ``(ParallelConfig, batch=)`` pair to a policy."""
        kernel = "batch" if batch else "scalar"
        if config is None or config.backend == "serial" or config.effective_workers <= 1:
            return cls(mode="batch" if batch else "serial", kernel=kernel)
        return cls(
            mode=config.backend,
            workers=config.max_workers,
            chunk_size=config.chunk_size,
            kernel=kernel,
            serial_threshold=config.serial_threshold,
        )

    @classmethod
    def from_jobs(
        cls,
        jobs: int | None,
        batch: bool = True,
        shard_size: int | None = None,
        retry: RetryPolicy | None = None,
        priority: str = "normal",
        job_ttl: float | None = None,
    ) -> "ExecutionPolicy":
        """The policy behind CLI ``--jobs N`` / ``--shard-size N`` flags."""
        kernel = "batch" if batch else "scalar"
        if jobs and jobs > 1:
            return cls(
                mode="process",
                workers=jobs,
                kernel=kernel,
                shard_size=shard_size,
                retry=retry,
                priority=priority,
                job_ttl=job_ttl,
            )
        return cls(
            mode="batch" if batch else "serial",
            kernel=kernel,
            shard_size=shard_size,
            retry=retry,
            priority=priority,
            job_ttl=job_ttl,
        )
