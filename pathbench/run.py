"""End-to-end benchmark of spectrends' three user paths.

Usage (from the repository root)::

    python3 pathbench/run.py --workload analyze-960 --seed 1 --seconds 10 --trace 0

One closed-loop client runs one op at a time for ``--seconds`` of op time,
checks every op's outputs against a reference computed by another code path,
prints one line per metric and, last, one JSON object with the metrics.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from outputs import mismatches

WORKLOAD_NAMES = ("analyze-960", "campaign-cold", "service-overlap")

#: (name, unit) of every end-to-end metric, reported with ``--trace 0``.
END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("units_per_s", "units/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("success_ratio", "ratio"),
)

#: (name, unit) of every per-layer metric, reported with ``--trace 1``.
#: A layer the workload does not run reads 0.
PER_LAYER = (
    ("campaign.spec.expand_s", "s"),
    ("simulator.batch.kernel_s", "s"),
    ("simulator.batch.calls", "count"),
    ("reportgen.render_s", "s"),
    ("parser.parse_text_s", "s"),
    ("parser.validate_s", "s"),
    ("campaign.cache.put_s", "s"),
    ("campaign.cache.puts", "count"),
    ("campaign.cache.get_s", "s"),
    ("campaign.cache.probes", "count"),
    ("campaign.cache.hits", "count"),
    ("campaign.cache.hit_ratio", "ratio"),
    ("campaign.aggregate.assembly_s", "s"),
    ("campaign.reduce.update_s", "s"),
    ("obs.sketch.update_s", "s"),
    ("campaign.flush_s", "s"),
    ("campaign.flush_bytes", "bytes"),
    ("campaign.store.journal_s", "s"),
    ("campaign.store.journal_lines", "count"),
    ("campaign.store.files", "count"),
    ("campaign.store.bytes", "bytes"),
    ("campaign.unaccounted_s", "s"),
    ("parser.parse_directory_s", "s"),
    ("parser.files", "count"),
    ("parser.rejected", "count"),
    ("frame.from_records_s", "s"),
    ("core.derive_s", "s"),
    ("core.filters_s", "s"),
    ("core.report_s", "s"),
    ("core.figures_s", "s"),
    ("frame.groupby_s", "s"),
    ("frame.groupby_calls", "count"),
    ("analyze.unaccounted_s", "s"),
    ("service.client.submit_s", "s"),
    ("service.client.result_s", "s"),
    ("service.scheduler.admit_wait_s", "s"),
    ("service.scheduler.dispatch_wait_s", "s"),
    ("service.pool.execute_s", "s"),
    ("service.pool.shard_s", "s"),
    ("service.scheduler.finalize_s", "s"),
    ("service.client.notify_s", "s"),
    ("service.scheduler.dispatches", "count"),
    ("service.cache_hits", "count"),
    ("service.simulated", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.unaccounted_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)

#: Ratios of summed per-op counts: metric -> (numerator, denominator terms).
RATIOS = {
    "campaign.cache.hit_ratio": ("campaign.cache.hits", ("campaign.cache.probes",)),
    "service.cache.hit_ratio": ("service.cache_hits", ("service.cache_hits", "service.simulated")),
}

#: Timed ops per run at least, so ``op_tail_s`` has ten samples beyond it.
MIN_OPS = 11
#: Traced and untraced ops per ``--trace 1`` run at least.
MIN_TRACED_OPS = 5
#: Program set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A run that has not finished by then is abandoned (non-zero exit).
DEADLINE_S = 170


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**31:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**31), got {value}")
    return value


def _seconds(text: str) -> int:
    value = int(text)
    if not 1 <= value <= 60:
        raise argparse.ArgumentTypeError(f"seconds must be in [1, 60], got {value}")
    return value


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=_seconds,
                        help="op time to measure (the timed window)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
@dataclass
class Tally:
    """Every op of a run: checks, timed walls and traced layers."""

    attempted: int = 0
    failed: int = 0
    walls: list[float] = field(default_factory=list)  # untraced timed ops
    traced_walls: list[float] = field(default_factory=list)
    busy_s: float = 0.0  # the timed window: summed wall of the timed ops
    units: int = 0
    layers: list[dict[str, float]] = field(default_factory=list)

    def add(self, result, problems: list[str], timed: bool, traced: bool) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
        if not timed:
            return
        self.busy_s += result.wall_s
        if not problems:
            self.units += result.units
        if traced:
            self.traced_walls.append(result.wall_s)
            self.layers.append(result.layers)
        else:
            self.walls.append(result.wall_s)

    def enough(self, seconds: int, trace: bool) -> bool:
        if self.busy_s < seconds:
            return False
        if trace:
            return min(len(self.walls), len(self.traced_walls)) >= MIN_TRACED_OPS
        return len(self.walls) >= MIN_OPS


def run_op(workload, index: int, tally: Tally, timed: bool, traced: bool) -> None:
    """One op: reference (untimed), the op, its check, its clean-up."""
    expected = workload.reference(index)
    result = workload.op(index, traced)
    if result.error is not None:
        problems = [f"raised: {result.error}"]
    else:
        problems = [f"{name} differs" for name in mismatches(result.outputs, expected)]
    for problem in problems:
        print(f"op {index} failed: {problem}", file=sys.stderr)
    tally.add(result, problems, timed, traced)
    workload.finish_op(index)


def measure(workload, seconds: int, trace: bool) -> tuple[Tally, list[float]]:
    """Set up, warm up, then run ops until ``seconds`` of op time are done."""
    workload.prepare()
    setups = []
    for attempt in range(SETUPS):
        setups.append(workload.start())
        if attempt < SETUPS - 1:
            workload.stop()
    tally = Tally()
    run_op(workload, 0, tally, timed=False, traced=False)  # checked, not timed
    index = 1
    while not tally.enough(seconds, trace):
        run_op(workload, index, tally, timed=True, traced=trace and index % 2 == 0)
        index += 1
    workload.stop()
    return tally, setups


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond."""
    ordered = sorted(walls)
    rank = len(ordered) - 10  # samples at or below the reported one
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(tally: Tally, setups: list[float], peak_rss_mib: float):
    """Metric values and one explanatory note per metric."""
    value, percentile = tail(tally.walls)
    n = len(tally.walls)
    ok = tally.attempted - tally.failed
    values = {
        "op_p50_s": statistics.median(tally.walls),
        "op_tail_s": value,
        "units_per_s": tally.units / tally.busy_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mib": peak_rss_mib,
        "success_ratio": ok / tally.attempted,
    }
    notes = {
        "op_p50_s": f"median of {n} ops",
        "op_tail_s": f"p{percentile:.1f} of {n} ops, 10 beyond it",
        "units_per_s": f"{tally.units} units in {tally.busy_s:.3f} s of op time",
        "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mib": "largest program process",
        "success_ratio": f"error_ratio {tally.failed}/{tally.attempted}",
    }
    return values, notes


def per_layer(tally: Tally, unaccounted: str):
    """Per-layer means over the traced ops (means add up to the mean wall)."""
    traced = tally.layers
    values = {name: 0.0 for name, _ in PER_LAYER}
    for name in values:
        if name not in RATIOS and name != "trace.overhead_ratio":
            values[name] = sum(layers.get(name, 0.0) for layers in traced) / len(traced)
    notes = {}
    for name, (numerator, denominator) in RATIOS.items():
        hits = sum(layers.get(numerator, 0.0) for layers in traced)
        base = sum(layers.get(term, 0.0) for layers in traced for term in denominator)
        values[name] = hits / base if base else 0.0
        notes[name] = f"{hits:.0f}/{base:.0f}"
    values["trace.overhead_ratio"] = (
        statistics.median(tally.traced_walls) / statistics.median(tally.walls)
    )
    notes["trace.overhead_ratio"] = (
        f"{len(tally.traced_walls)} traced / {len(tally.walls)} untraced ops"
    )
    notes[unaccounted] = (
        f"traced ops' mean wall {statistics.fmean(tally.traced_walls):.4f} s "
        "= top-level layers + this remainder"
    )
    return values, notes


def report(names, values, notes, tally: Tally) -> dict:
    for name, unit in names:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<36} {values[name]:.6g} {unit}{note}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    }


def _on_deadline(signum, frame):
    raise TimeoutError(f"run did not finish within {DEADLINE_S} s")


def _on_terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the clean-up below


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {root / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS, become_subreaper

    become_subreaper()

    signal.signal(signal.SIGALRM, _on_deadline)
    signal.signal(signal.SIGTERM, _on_terminate)
    signal.alarm(DEADLINE_S)
    tmp_root = root / ".pathbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    (run_dir / "tmp").mkdir()
    tempfile.tempdir = str(run_dir / "tmp")
    workload = WORKLOADS[args.workload](root, run_dir, args.seed)
    try:
        tally, setups = measure(workload, args.seconds, bool(args.trace))
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        workload.kill()
        tempfile.tempdir = None
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while another run uses it
            tmp_root.rmdir()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    if args.trace:
        values, notes = per_layer(tally, workload.unaccounted)
        result = report(PER_LAYER, values, notes, tally)
    else:
        values, notes = end_to_end(tally, setups, peak_rss_mib)
        result = report(END_TO_END, values, notes, tally)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
