"""Self-tests of the benchmark: checks, metric names, wrappers, arguments."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import outputs  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, OpResult  # noqa: E402


class StubWorkload:
    """Serves fixed outputs, so a test controls what the check sees."""

    def __init__(self, expected, got):
        self.expected, self.got = expected, got

    def reference(self, index):
        return self.expected

    def op(self, index, traced):
        return OpResult(0.5, self.got, units=8)

    def finish_op(self, index):
        pass


def _first_finite_float(columns: dict) -> str:
    return next(name for name, values in columns.items()
                if isinstance(values[0], float) and math.isfinite(values[0]))


def _failed_ops(expected, got) -> int:
    tally = run.Tally()
    run.run_op(StubWorkload(expected, got), 1, tally, timed=True, traced=False)
    assert tally.attempted == 1
    return tally.failed


@pytest.fixture(scope="module")
def campaign_outputs(tmp_path_factory):
    from repro.campaign import CampaignSpec, stream_campaign

    spec = CampaignSpec(
        name="selftest",
        sweep={"cpu_model": ["EPYC 9654", "Xeon Platinum 8480+"], "seed": [1, 2, 3, 4]},
        base={"load_levels": [1.0, 0.0], "measurement_noise": False},
    )
    result = stream_campaign(spec, tmp_path_factory.mktemp("store"), shard_size=4)
    return result.aggregate.to_dict(), result.completed


@pytest.fixture(scope="module")
def analysis(tmp_path_factory):
    from repro.session import Session
    from repro.session.session import analyze_frame

    with Session(workspace=tmp_path_factory.mktemp("ws")) as session:
        runs = session.dataset(runs=60, seed=3).result()
    return analyze_frame(runs, table1=True, figures=True)


def test_perturbed_aggregate_value_is_a_failed_op(campaign_outputs):
    aggregate, completed = campaign_outputs
    expected = outputs.aggregate_outputs(completed, 0, aggregate)
    assert _failed_ops(expected, outputs.aggregate_outputs(completed, 0, aggregate)) == 0

    perturbed = json.loads(json.dumps(aggregate))
    column = _first_finite_float(perturbed)
    perturbed[column][0] = math.nextafter(perturbed[column][0], math.inf)  # one ulp
    assert _failed_ops(expected, outputs.aggregate_outputs(completed, 0, perturbed)) == 1


def test_wire_column_order_is_not_a_mismatch(campaign_outputs):
    aggregate, completed = campaign_outputs
    reordered = dict(reversed(list(aggregate.items())))
    assert list(reordered) != list(aggregate)
    assert outputs.digest(reordered) == outputs.digest(aggregate)


def test_perturbed_figure_row_is_a_failed_op(analysis):
    from repro.frame import Frame

    expected = outputs.analysis_outputs(analysis)
    assert len(expected["figures"]) == 6
    assert _failed_ops(expected, outputs.analysis_outputs(analysis)) == 0

    figure = analysis.figures[2]
    data = figure.data.to_dict()
    column = _first_finite_float(data)
    data[column][0] = math.nextafter(data[column][0], math.inf)
    figures = list(analysis.figures)
    figures[2] = dataclasses.replace(figure, data=Frame.from_dict(data))
    perturbed = dataclasses.replace(analysis, figures=tuple(figures))
    got = outputs.analysis_outputs(perturbed)
    assert outputs.mismatches(got, expected) == ["figures"]
    assert _failed_ops(expected, got) == 1


def test_raised_op_is_a_failed_op():
    class Raising(StubWorkload):
        def op(self, index, traced):
            return OpResult(0.1, None, error="CampaignError: refused")

    tally = run.Tally()
    run.run_op(Raising({}, None), 1, tally, timed=True, traced=False)
    assert (tally.attempted, tally.failed, tally.units) == (1, 1, 0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert sorted(WORKLOADS) == sorted(run.WORKLOAD_NAMES)

    tally = run.Tally(attempted=23, busy_s=11.0, units=22 * 512)
    tally.walls = [0.5 + i / 100 for i in range(11)]
    tally.traced_walls = [0.6] * 11
    tally.layers = [{"campaign.cache.probes": 512, "campaign.cache.hits": 0}] * 11
    values, notes = run.end_to_end(tally, [0.3, 0.4, 0.5], 40.0)
    printed = run.report(run.END_TO_END, values, notes, tally)
    assert list(printed["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    values, notes = run.per_layer(tally, "campaign.unaccounted_s")
    printed = run.report(run.PER_LAYER, values, notes, tally)
    assert list(printed["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}


def test_tail_has_ten_samples_beyond_it():
    walls = [float(i) for i in range(30)]
    value, percentile = run.tail(walls)
    assert sum(1 for wall in walls if wall > value) == 10
    assert percentile == pytest.approx(100 * 20 / 30)


def test_wrappers_restore_the_original_objects():
    from repro.frame import Frame

    traced = layers.HOST_LAYERS + layers.SERVICE_LAYERS
    before = {
        (layer.target, attr): vars(layers.resolve(layer.target)).get(attr)
        for layer in traced for attr in layer.attrs
    }
    trace = layers.LayerTrace(traced)
    trace.install()
    try:
        for (target, attr), original in before.items():
            assert vars(layers.resolve(target)).get(attr) is not original
        Frame.from_dict({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]}).groupby("k").size()
    finally:
        trace.restore()
    assert trace.counts["frame.groupby_calls"] == 1
    for (target, attr), original in before.items():
        assert vars(layers.resolve(target)).get(attr) is original


def _outer():
    return _inner() + _nested()


def _inner():
    return 1


def _nested():
    return 2


def test_top_level_layers_never_overlap():
    module = __name__
    trace = layers.LayerTrace((
        layers.Layer("outer", module, ("_outer",)),
        layers.Layer("inner", module, ("_inner",), calls="inner.calls"),
        layers.Layer("nested", module, ("_nested",), nested=True),
    ))
    trace.install()
    try:
        assert sys.modules[module]._outer() == 3
        sys.modules[module]._inner()
    finally:
        trace.restore()
    assert trace.counts == {"inner.calls": 1}  # the call inside _outer is outer's time
    assert trace.times["nested_s"] > 0
    assert trace.top_level_s() == trace.times["outer_s"] + trace.times["inner_s"]


@pytest.mark.parametrize("argv", [
    ["--seed", "x"],
    ["--seed", "-1"],
    ["--seed", str(2**31)],
    ["--seed", "1.5"],
    ["--seed", "1", "--workload", "nope"],
    ["--seed", "1", "--seconds", "0"],
    ["--seed", "1", "--trace", "2"],
])
def test_bad_arguments_are_rejected(argv):
    defaults = {"--workload": "analyze-960", "--seconds": "1"}
    for flag, value in defaults.items():
        if flag not in argv:
            argv = argv + [flag, value]
    with pytest.raises(SystemExit) as exc:
        run.parse_args(argv)
    assert exc.value.code == 2


def test_exits_nonzero_without_the_program(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "analyze-960",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


_ORPHAN_SCRIPT = """
import os, subprocess, sys
sys.path[:0] = [sys.argv[1]]
from workloads import become_subreaper, reap_group
become_subreaper()
shell = subprocess.Popen(["sh", "-c", "sleep 60 & echo $!"], stdout=subprocess.PIPE,
                         text=True, start_new_session=True)
orphan = int(shell.stdout.readline())
shell.wait()
print(reap_group(shell.pid), os.path.exists(f"/proc/{orphan}"))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="subreaper is Linux-only")
def test_processes_left_by_the_service_are_reaped():
    bench = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-c", _ORPHAN_SCRIPT, str(bench)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "False"]
