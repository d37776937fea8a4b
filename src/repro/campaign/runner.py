"""Campaign unit execution and the resident result view.

The workers are module-level functions of one picklable payload tuple, so
the process back-end of :mod:`repro.parallel` can ship them to a pool.  Each
unit is simulated, rendered to SPEC-report text and parsed back through the
production parser/validator — the same round-trip the corpus pipeline uses —
so campaign rows are bit-for-bit the schema :func:`repro.core.dataset`
produces.  Worker failures are captured per unit and recorded in the store
ledger; one bad scenario never aborts the campaign.

Execution strategy: by default each worker simulates its whole chunk of
units through the vectorized :class:`~repro.simulator.batch.BatchDirector`
(grouped by shared :class:`SimulationOptions`; results are bit-for-bit what
the scalar path would produce, so cache keys and cached rows are strategy
independent).  ``batch=False`` forces the scalar per-unit path, and a chunk
whose batch simulation fails falls back to scalar execution so errors stay
attributed to individual units.

Every campaign runs through the one streamed executor,
:func:`~repro.campaign.sharding.stream_campaign`.  :func:`run_campaign` and
:func:`resume_campaign` are that executor plus :class:`CampaignResult`, the
view that materialises the shard artifacts into one resident frame.
"""

from __future__ import annotations

import functools
import os
import traceback
from dataclasses import dataclass, replace

from ..errors import ReproError
from ..faults.plan import fault_point
from ..frame import Frame
from ..market.catalog import Catalog, default_catalog
from ..parallel import ParallelConfig, parallel_map
from ..parser.resultfile import parse_result_text
from ..parser.validation import validate_run
from ..reportgen.textreport import render_report
from ..session.policy import ExecutionPolicy
from ..simulator.batch import BatchDirector
from ..simulator.director import RunDirector
from .sharding import StreamingCampaignResult, resume_streaming, stream_campaign
from .spec import CampaignSpec, CampaignUnit

__all__ = [
    "CampaignResult",
    "dispatch_simulations",
    "run_campaign",
    "resume_campaign",
]


@dataclass(frozen=True)
class CampaignResult:
    """A streamed campaign run viewed as one resident frame.

    The view :func:`run_campaign`, :func:`resume_campaign` and unsharded
    session handles return.  :attr:`streamed` supplies every counter;
    :attr:`frame` concatenates its shard artifacts on first access, so a
    caller that only reads counters never holds the plan's rows.
    """

    streamed: StreamingCampaignResult

    @functools.cached_property
    def frame(self) -> Frame:
        return self.streamed.frame()

    @property
    def total_units(self) -> int:
        return self.streamed.total_units

    @property
    def cache_hits(self) -> int:
        return self.streamed.cache_hits

    @property
    def simulated(self) -> int:
        return self.streamed.simulated

    @property
    def failures(self) -> tuple[tuple[str, str], ...]:  # (unit_id, error)
        return self.streamed.failures

    @property
    def store_directory(self) -> str:
        return self.streamed.store_directory

    @property
    def completed(self) -> int:
        return self.streamed.completed

    def describe(self) -> str:
        return self.streamed.describe()

    def write_csv(self, path: str | os.PathLike) -> int:
        """Write :attr:`frame` to a CSV file; returns the rows written.

        Unlike the shard-by-shard streamed export, shards whose columns
        differ are unioned, as :func:`~repro.frame.concat` does.
        """
        self.frame.to_csv(path)
        return len(self.frame)


# --------------------------------------------------------------------------- #
# Worker (module-level: the process back-end pickles it by reference)
# --------------------------------------------------------------------------- #
def _roundtrip_result(key: str, plan, result) -> tuple[str, dict | None, str | None]:
    """Render, re-parse and validate one simulated run into a cache row."""
    try:
        # Inside the try: a raise-kind fault becomes a per-unit error row on
        # both the scalar and the vectorized batch path, like a real failure.
        fault_point("unit.execute", ctx=key)
        parsed = parse_result_text(render_report(result), file_name=plan.file_name)
        report = validate_run(parsed.record)
        if not report.is_valid:
            return key, None, f"validation: {report.primary_issue}"
        return key, parsed.record.to_dict(), None
    except ReproError as exc:
        return key, None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # pragma: no cover - defensive catch-all
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return key, None, detail


def _simulate_unit(payload: tuple) -> tuple[str, dict | None, str | None]:
    """Simulate one unit; returns ``(key, row, error)``.

    ``catalog`` travels inside the payload only for non-default catalogs;
    ``None`` keeps payloads small for the common case.
    """
    key, plan, options, seed, catalog = payload
    try:
        director = RunDirector(
            catalog=catalog or default_catalog(), options=options, corpus_seed=seed
        )
        result = director.run(plan)
    except ReproError as exc:
        return key, None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # pragma: no cover - defensive catch-all
        detail = traceback.format_exception_only(type(exc), exc)[-1].strip()
        return key, None, detail
    return _roundtrip_result(key, plan, result)


def _simulate_chunk(payload: tuple) -> list[tuple[str, dict | None, str | None]]:
    """Simulate one same-options chunk of units through the batch kernel.

    The payload is ``(units, options, catalog)`` with ``units`` a tuple of
    ``(key, plan, seed)``.  If the vectorized simulation of the chunk fails
    for any reason the chunk is re-run unit by unit through the scalar
    worker, so a single bad scenario is reported against its own key instead
    of poisoning its neighbours.
    """
    units, options, catalog = payload
    try:
        director = BatchDirector(catalog=catalog or default_catalog(), options=options)
        results = director.run_batch(
            [plan for _, plan, _ in units], seeds=[seed for _, _, seed in units]
        )
    except Exception:
        return [
            _simulate_unit((key, plan, options, seed, catalog))
            for key, plan, seed in units
        ]
    return [
        _roundtrip_result(key, plan, result)
        for (key, plan, _), result in zip(units, results)
    ]


def _chunk_payloads(
    units: list[CampaignUnit], chunk_size: int, catalog: Catalog | None
) -> list[tuple]:
    """Group units by shared options, then split into worker-sized chunks."""
    groups: dict = {}
    for unit in units:
        groups.setdefault(unit.options, []).append(unit)
    payloads = []
    for options, group in groups.items():
        for start in range(0, len(group), chunk_size):
            chunk = group[start : start + chunk_size]
            payloads.append(
                (tuple((u.key, u.plan, u.seed) for u in chunk), options, catalog)
            )
    return payloads


def dispatch_simulations(
    units: list[CampaignUnit],
    config: ParallelConfig,
    batch: bool,
    catalog: Catalog | None,
) -> list[tuple[str, dict | None, str | None]]:
    """Run one batch of units through the selected kernel.

    The single dispatch point of the streamed runner, the lease-coordinated
    workers and the service pool, so kernel-selection semantics (chunk
    payload grouping, the no-re-chunk outer map) are the same everywhere.
    """
    from ..obs.trace import get_tracer

    with get_tracer().span(
        "campaign.dispatch", units=len(units), batch=batch, backend=config.backend
    ):
        if batch:
            # One payload per worker chunk: the chunk itself is vectorized, so
            # the outer map must not re-chunk it.
            payloads = _chunk_payloads(units, config.chunk_size, catalog)
            return [
                outcome
                for chunk in parallel_map(
                    _simulate_chunk, payloads, config=replace(config, chunk_size=1)
                )
                for outcome in chunk
            ]
        payloads = [
            (unit.key, unit.plan, unit.options, unit.seed, catalog) for unit in units
        ]
        return parallel_map(_simulate_unit, payloads, config=config)


def run_campaign(
    spec: CampaignSpec,
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    max_units: int | None = None,
    batch: bool = True,
    policy: ExecutionPolicy | None = None,
) -> CampaignResult:
    """Expand ``spec``, execute missing units, return the campaign frame.

    Completed units are content-hash cache hits and are never re-simulated;
    invoking this twice over the same store performs zero new simulations
    the second time.  ``batch=False`` opts out of the vectorized kernel;
    a ``policy`` overrides both ``parallel`` and ``batch`` and supplies the
    shard layout, retry and fault knobs.  Execution is
    :func:`~repro.campaign.sharding.stream_campaign` at the policy's layout
    (default :data:`~repro.campaign.sharding.DEFAULT_SHARD_SIZE`), so a
    killed run keeps every flushed shard.
    """
    if policy is not None:
        parallel, batch = policy.parallel_config(), policy.use_batch_kernel
    return CampaignResult(
        stream_campaign(
            spec, store_dir, parallel=parallel, catalog=catalog,
            max_units=max_units, batch=batch, policy=policy,
        )
    )


def resume_campaign(
    store_dir: str | os.PathLike,
    parallel: ParallelConfig | None = None,
    catalog: Catalog | None = None,
    max_units: int | None = None,
    batch: bool = True,
    policy: ExecutionPolicy | None = None,
) -> CampaignResult:
    """Continue an interrupted campaign from its on-disk spec snapshot.

    Resumes at the shard layout recorded in the store (see
    :func:`~repro.campaign.sharding.resume_streaming`).
    """
    if policy is not None:
        parallel, batch = policy.parallel_config(), policy.use_batch_kernel
    return CampaignResult(
        resume_streaming(
            store_dir, parallel=parallel, catalog=catalog,
            max_units=max_units, batch=batch, policy=policy,
        )
    )
