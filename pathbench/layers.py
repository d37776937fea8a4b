"""Per-layer timing from outside the program: wrappers around public calls.

A :class:`Layer` names one ``repro`` layer and the functions whose calls
make it up.  :class:`LayerTrace` swaps those functions for timing wrappers
on :meth:`~LayerTrace.install` and puts the very same objects back on
:meth:`~LayerTrace.restore`; nothing inside ``src/`` is edited.

Top-level layers never overlap in the recorded time: a top-level call made
while another top-level call is running belongs to the outer one (the unit
cache's ``put`` writes through ``ArtifactStore.put``, which is the shard
flush layer only when called on its own).  So the top-level times of one op
sum to at most its wall time, and the remainder is the workload's
``*.unaccounted_s``.  Nested layers (``obs.sketch``, ``frame.groupby``) run
inside top-level ones; they are recorded on their own and left out of that
sum so nothing is counted twice.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Mapping

CountHook = Callable[[tuple, Mapping[str, Any], Any], Mapping[str, float]]


@dataclass(frozen=True)
class Layer:
    """One timed layer: ``<name>_s`` accumulates the time of its calls."""

    name: str
    target: str  # "package.module" or "package.module:Class"
    attrs: tuple[str, ...]
    nested: bool = False
    generator: bool = False  # time each ``next()`` of the returned generator
    calls: str | None = None  # count metric incremented per recorded call
    tally: CountHook | None = None  # extra counts from (args, kwargs, result)

    @property
    def metric(self) -> str:
        return f"{self.name}_s"


def _cache_probe(args, kwargs, result) -> dict[str, float]:
    return {"campaign.cache.probes": 1, "campaign.cache.hits": int(result is not None)}


def _flush_bytes(args, kwargs, result) -> dict[str, float]:
    arrays = kwargs.get("arrays")
    if not arrays:
        return {}
    return {"campaign.flush_bytes": sum(array.nbytes for array in arrays.values())}


def _parse_funnel(args, kwargs, result) -> dict[str, float]:
    return {"parser.files": result.total_files, "parser.rejected": len(result.rejected)}


#: The campaign write path (``campaign-cold``), timed at the bindings the
#: streaming runner calls through.
CAMPAIGN_LAYERS: tuple[Layer, ...] = (
    Layer("campaign.spec.expand", "repro.campaign.sharding", ("iter_shards",), generator=True),
    Layer(
        "simulator.batch.kernel", "repro.simulator.batch:BatchDirector", ("run_batch",),
        calls="simulator.batch.calls",
    ),
    Layer("reportgen.render", "repro.campaign.runner", ("render_report",)),
    Layer("parser.parse_text", "repro.campaign.runner", ("parse_result_text",)),
    Layer("parser.validate", "repro.campaign.runner", ("validate_run",)),
    Layer("campaign.cache.get", "repro.campaign.cache:ResultCache", ("get",), tally=_cache_probe),
    Layer("campaign.cache.put", "repro.campaign.cache:ResultCache", ("put",),
          calls="campaign.cache.puts"),
    Layer("campaign.aggregate.assembly", "repro.campaign.aggregate:FrameAccumulator",
          ("add_row", "to_frame")),
    Layer("campaign.reduce.update", "repro.campaign.reduce:FrameReducer", ("update",)),
    Layer("obs.sketch.update", "repro.obs.sketch:QuantileSketch", ("push", "update"),
          nested=True),
    Layer("campaign.flush", "repro.session.artifacts:ArtifactStore", ("put", "sidecar_digest"),
          tally=_flush_bytes),
    Layer("campaign.store.journal", "repro.campaign.store:CampaignStore",
          ("record_many", "record_shard", "record_event")),
)

#: The paper's analysis path (``analyze-960``), timed where the session and
#: ``analyze_frame`` look the functions up at call time.
ANALYZE_LAYERS: tuple[Layer, ...] = (
    Layer("parser.parse_directory", "repro.parser", ("parse_directory",), tally=_parse_funnel),
    Layer("frame.from_records", "repro.frame.frame:Frame", ("from_records",)),
    Layer("core.derive", "repro.core.dataset", ("derive_columns",)),
    Layer("core.filters", "repro.core.filters", ("apply_paper_filters",)),
    Layer("core.report", "repro.core.report", ("build_report",)),
    Layer("core.figures", "repro.core.figures", ("all_figures",)),
    # Grouping is lazy: ``Frame.groupby`` builds the groups, the GroupBy
    # methods aggregate them; both are the one ``frame.groupby`` layer.
    Layer("frame.groupby", "repro.frame.frame:Frame", ("groupby",), nested=True,
          calls="frame.groupby_calls"),
    Layer("frame.groupby", "repro.frame.groupby:GroupBy", ("size", "agg", "apply"), nested=True),
)

#: Installed in the program host of every in-process workload, so a layer
#: a workload should not touch reads as a measured zero.
HOST_LAYERS = CAMPAIGN_LAYERS + ANALYZE_LAYERS

#: The benchmark's own service client calls (``service-overlap``).
SERVICE_LAYERS: tuple[Layer, ...] = (
    Layer("service.client.submit", "repro.service.client:ServiceClient", ("submit",)),
    Layer("service.client.result", "repro.service.client:ServiceClient", ("result",)),
)


def resolve(target: str) -> Any:
    """The module or class a :attr:`Layer.target` names."""
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class LayerTrace:
    """Installs timing wrappers for ``layers`` and accumulates their numbers.

    ``times`` and ``counts`` accumulate until :meth:`reset`; the benchmark
    resets before each traced op and reads them after it.
    """

    def __init__(self, layers: tuple[Layer, ...]):
        self.layers = layers
        self.times: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._depth: dict[str, int] = {}
        self._top_depth = 0
        self._saved: list[tuple[Any, str, bool, Any]] = []

    # -- accounting --------------------------------------------------- #
    def reset(self) -> None:
        self.times = {layer.metric: 0.0 for layer in self.layers}
        self.counts = {}

    def top_level_s(self) -> float:
        """Recorded time of the non-overlapping (top-level) layers."""
        metrics = dict.fromkeys(layer.metric for layer in self.layers if not layer.nested)
        return sum(self.times.get(metric, 0.0) for metric in metrics)

    def _enter(self, layer: Layer) -> bool:
        """Whether this call is recorded (it is the outermost of its kind)."""
        if self._depth.get(layer.name, 0) or (not layer.nested and self._top_depth):
            return False
        self._depth[layer.name] = 1
        if not layer.nested:
            self._top_depth = 1
        return True

    def _exit(self, layer: Layer, elapsed: float) -> None:
        self._depth[layer.name] = 0
        if not layer.nested:
            self._top_depth = 0
        self.times[layer.metric] = self.times.get(layer.metric, 0.0) + elapsed
        if layer.calls:
            self._count({layer.calls: 1})

    def _count(self, counts: Mapping[str, float]) -> None:
        for name, value in counts.items():
            self.counts[name] = self.counts.get(name, 0) + value

    # -- wrappers ------------------------------------------------------ #
    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        if layer.generator:

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return self._drive(layer, fn(*args, **kwargs))

            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._enter(layer):
                return fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(layer, time.perf_counter() - start)
            if layer.tally is not None:
                self._count(layer.tally(args, kwargs, result))
            return result

        return wrapper

    def _drive(self, layer: Layer, inner: Iterator) -> Iterator:
        """Yield from ``inner``, timing the work done inside each ``next()``."""
        try:
            while True:
                recorded = self._enter(layer)
                start = time.perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    if recorded:
                        self._exit(layer, time.perf_counter() - start)
                yield item
        finally:
            inner.close()

    # -- install / restore --------------------------------------------- #
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        self.reset()
        for layer in self.layers:
            owner = resolve(layer.target)
            for attr in layer.attrs:
                had = attr in vars(owner)
                original = vars(owner)[attr] if had else getattr(owner, attr)
                if isinstance(original, classmethod):
                    wrapped: Any = classmethod(self._wrap(layer, original.__func__))
                else:
                    wrapped = self._wrap(layer, original)
                self._saved.append((owner, attr, had, original))
                setattr(owner, attr, wrapped)

    def restore(self) -> None:
        """Put back exactly the objects :meth:`install` replaced."""
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
