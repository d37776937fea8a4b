"""The three workloads: inputs from the seed, the program's set-up, one op
and the reference its outputs must equal.

Every op's inputs derive from ``(seed, op index)`` and no two ops of a run
share them, so neither an in-process memo nor an on-disk cache can make a
later op cheaper than the first.  References are computed by another code
path than the one measured and outside the timed window.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

import outputs
from layers import SERVICE_LAYERS, LayerTrace

BENCH_DIR = Path(__file__).resolve().parent

#: Seeds of one benchmark seed's campaign units start at ``seed * SEED_STRIDE``,
#: so different benchmark seeds never share a unit.
SEED_STRIDE = 1_000_000


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot go on (not a failed op of the program)."""


@dataclass
class OpResult:
    """One op as the benchmark saw it."""

    wall_s: float
    outputs: dict[str, Any] | None  # None when the op raised or was refused
    error: str | None = None
    units: int = 0  # work the op completed (parsed runs or campaign units)
    layers: dict[str, float] = field(default_factory=dict)  # traced ops only


def program_env(root: Path, run_dir: Path) -> dict[str, str]:
    """Environment of the program's processes: temp files stay in the run dir."""
    env = dict(os.environ)
    for name in ("REPRO_TRACE", "REPRO_PROFILE"):
        env.pop(name, None)  # the program's own span tracer stays off
    env["TMPDIR"] = str(run_dir / "tmp")
    env["PYTHONPATH"] = str(root / "src")
    return env


def become_subreaper() -> None:
    """Make processes orphaned below this one re-parent here (Linux).

    The service's pool workers are its children; one that outlives the
    service then becomes this process's child, so :func:`reap_group` can
    wait for it instead of leaving it to init.
    """
    if not sys.platform.startswith("linux"):
        return
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    pr_set_child_subreaper = 36
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER) failed")


def reap_group(pgid: int, timeout: float = 10.0) -> int:
    """Kill what is left of process group ``pgid`` and wait for it.

    Returns the number of processes reaped.  Call only when no other child
    of this process is running: it waits for any child.
    """
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return 0
    reaped = 0
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            reaped += 1
        else:
            time.sleep(0.01)
    return reaped


def _log_tail(path: Path, lines: int = 15) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def _tree_size(directory: Path) -> tuple[int, int]:
    """(files, bytes) under ``directory``."""
    files = size = 0
    for path in directory.rglob("*"):
        if path.is_file():
            files += 1
            size += path.stat().st_size
    return files, size


class Workload:
    """Base of the workloads; ``index`` 0 is the untimed warm-up op."""

    name = ""
    unaccounted = ""  # this workload's ``*.unaccounted_s`` metric

    def __init__(self, root: Path, run_dir: Path, seed: int):
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.ops_dir = run_dir / "ops"
        self.ref_dir = run_dir / "ref"

    def prepare(self) -> None:
        """Write the run's inputs (the benchmark's work, not set-up)."""

    def start(self) -> float:
        """Start the program; returns its set-up time in seconds."""
        raise NotImplementedError

    def stop(self) -> None:
        """Stop the program in order and confirm it exited."""
        raise NotImplementedError

    def kill(self) -> None:
        """Stop whatever is still running (error path; no-op when stopped)."""
        raise NotImplementedError

    def reference(self, index: int) -> dict[str, Any]:
        raise NotImplementedError

    def op(self, index: int, traced: bool) -> OpResult:
        raise NotImplementedError

    def finish_op(self, index: int) -> None:
        """Remove the op's inputs and stores once it has been checked."""
        for parent in (self.ops_dir, self.ref_dir):
            shutil.rmtree(parent / str(index), ignore_errors=True)


# --------------------------------------------------------------------------- #
# In-process program paths: one op = one request to host.py
# --------------------------------------------------------------------------- #
class HostWorkload(Workload):
    """A workload whose program runs in ``host.py``."""

    def __init__(self, root: Path, run_dir: Path, seed: int):
        super().__init__(root, run_dir, seed)
        self._proc: subprocess.Popen | None = None
        self._starts = 0

    def start(self) -> float:
        self._starts += 1
        log = self.run_dir / f"host-{self._starts}.log"
        start = time.perf_counter()
        with open(log, "w") as stderr:
            self._proc = subprocess.Popen(
                [sys.executable, str(BENCH_DIR / "host.py"), str(self.root / "src"), self.name],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
                env=program_env(self.root, self.run_dir),
                cwd=self.root,
            )
        line = self._proc.stdout.readline()
        elapsed = time.perf_counter() - start
        if not line or json.loads(line) != {"ready": True}:
            self.kill()
            raise BenchmarkError(f"program host did not start:\n{_log_tail(log)}")
        self._log = log
        return elapsed

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        self._proc.stdin.write(json.dumps(message) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise BenchmarkError(f"program host exited:\n{_log_tail(self._log)}")
        return json.loads(line)

    def stop(self) -> None:
        self._proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
        self._proc.stdin.close()
        code = self._proc.wait(timeout=60)  # on timeout, kill() reaps it
        self._proc.stdout.close()
        self._proc = None
        if code != 0:
            raise BenchmarkError(f"program host exited with {code}:\n{_log_tail(self._log)}")

    def kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            for stream in (proc.stdin, proc.stdout):
                if not stream.closed:
                    stream.close()

    def host_op(self, message: dict[str, Any], traced: bool) -> OpResult:
        reply = self.request(dict(message, trace=traced))
        if not reply["ok"]:
            return OpResult(reply["wall_s"], None, error=reply["error"])
        result = OpResult(reply["wall_s"], reply["outputs"])
        if traced:
            trace = reply["layers"]
            result.layers.update(trace["times"])
            result.layers.update(trace["counts"])
            result.layers[self.unaccounted] = reply["wall_s"] - trace["top_level_s"]
        return result


class AnalyzeWorkload(HostWorkload):
    """``analyze-960``: the paper's analysis over a fresh 960-run corpus per op.

    Before set-up the run writes one pool corpus of ``POOL_RUNS`` runs from
    the seed.  Op ``i`` links a seeded draw of 960 accepted and 57 rejected
    pool files into its own directory, so every op parses a different
    1017-file corpus without generating one (generation costs twice the
    op).  The reference
    is the parse-bypass analysis: records derived straight from the
    simulation, never rendered or parsed.
    """

    name = "analyze-960"
    unaccounted = "analyze.unaccounted_s"
    RUNS = 960
    FILES = 1017
    POOL_RUNS = 1440

    def prepare(self) -> None:
        from repro.reportgen import generate_corpus_files
        from repro.reportgen.records import derive_corpus_report

        self.pool = self.run_dir / "pool"
        generate_corpus_files(self.pool, total_parsed_runs=self.POOL_RUNS, seed=self.seed)
        report = derive_corpus_report(
            self.pool, total_parsed_runs=self.POOL_RUNS, seed=self.seed, batch=True
        )
        self.accepted = report.records  # in file-name order, as a directory scan
        self.rejected = [rejected.file_name for rejected in report.rejected]
        if len(self.accepted) < self.RUNS or len(self.rejected) < self.FILES - self.RUNS:
            raise BenchmarkError(
                f"pool corpus too small: {len(self.accepted)} accepted, "
                f"{len(self.rejected)} rejected"
            )

    def _draw(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([self.seed, index])
        accepted = np.sort(rng.choice(len(self.accepted), self.RUNS, replace=False))
        rejected = np.sort(rng.choice(len(self.rejected), self.FILES - self.RUNS, replace=False))
        return accepted, rejected

    def reference(self, index: int) -> dict[str, Any]:
        from repro.core.dataset import derive_columns
        from repro.frame import Frame
        from repro.session.session import analyze_frame

        accepted, _ = self._draw(index)
        rows = [self.accepted[i].to_dict() for i in accepted]
        runs = derive_columns(Frame.from_records(rows))
        return outputs.analysis_outputs(analyze_frame(runs, table1=True, figures=True))

    def op(self, index: int, traced: bool) -> OpResult:
        accepted, rejected = self._draw(index)
        corpus = self.ops_dir / str(index)
        corpus.mkdir(parents=True)
        names = [self.accepted[i].file_name for i in accepted]
        names += [self.rejected[i] for i in rejected]
        for name in names:
            os.link(self.pool / name, corpus / name)
        result = self.host_op({"op": "analyze", "corpus": str(corpus)}, traced)
        if result.outputs is not None:
            result.units = result.outputs["runs"]
        return result


class CampaignColdWorkload(HostWorkload):
    """``campaign-cold``: a never-seen 512-unit sweep streamed into a fresh store.

    Four CPU generations x 128 fresh seeds, default options (full load
    ladder, noise), 4 shards of 128.  The reference is the unsharded
    resident runner plus ``reduce_frame`` over its own store.
    """

    name = "campaign-cold"
    unaccounted = "campaign.unaccounted_s"
    CPUS = ("Xeon X5670", "Xeon E5-2699 v4", "Xeon Platinum 8380", "EPYC 9654")
    SEEDS = 128
    SHARD_SIZE = 128

    def spec(self, index: int):
        from repro.campaign import CampaignSpec

        first = self.seed * SEED_STRIDE + index * self.SEEDS
        return CampaignSpec(
            name=f"cold-{index}",
            sweep={"cpu_model": list(self.CPUS), "seed": list(range(first, first + self.SEEDS))},
        )

    def reference(self, index: int) -> dict[str, Any]:
        from repro.campaign import reduce_frame, run_campaign

        result = run_campaign(self.spec(index), self.ref_dir / str(index))
        units = len(self.CPUS) * self.SEEDS
        return outputs.aggregate_outputs(
            len(result.frame),
            len(result.failures),
            reduce_frame(result.frame).to_dict(),
            simulated=units,
            shards=-(-units // self.SHARD_SIZE),
        )

    def op(self, index: int, traced: bool) -> OpResult:
        store = self.ops_dir / str(index)
        result = self.host_op(
            {
                "op": "campaign",
                "spec": self.spec(index).to_dict(),
                "store": str(store),
                "shard_size": self.SHARD_SIZE,
            },
            traced,
        )
        if result.outputs is not None:
            result.units = result.outputs["completed"]
        if traced:
            files, size = _tree_size(store)
            result.layers["campaign.store.files"] = files
            result.layers["campaign.store.bytes"] = size
            result.layers["campaign.store.journal_lines"] = sum(
                len(path.read_bytes().splitlines()) for path in store.glob("*.jsonl")
            )
        return result


# --------------------------------------------------------------------------- #
# The campaign service: `spectrends serve` as its own process
# --------------------------------------------------------------------------- #
def scheduler_phases(records: list[dict[str, Any]], done_at: float) -> dict[str, float]:
    """A job's scheduler phases from its ``scheduler.jsonl`` records.

    ``done_at`` is the wall-clock time the client's ``wait()`` returned.
    """
    first: dict[str, float] = {}
    dispatched: dict[int, float] = {}
    shard_s: list[float] = []
    dispatches = 0
    for record in records:
        kind, ts = record["record"], record["ts"]
        first.setdefault(kind, ts)
        if kind == "dispatch":
            dispatches += 1
            dispatched[record["index"]] = ts
        elif kind == "result" and record["index"] in dispatched:
            shard_s.append(ts - dispatched.pop(record["index"]))
    missing = {"job_queued", "job_admit", "dispatch", "job_populated", "job_complete"} - set(first)
    if missing or not shard_s:
        raise BenchmarkError(f"scheduler.jsonl lacks {sorted(missing)} for the job")
    return {
        "service.scheduler.admit_wait_s": first["job_admit"] - first["job_queued"],
        "service.scheduler.dispatch_wait_s": first["dispatch"] - first["job_admit"],
        "service.pool.execute_s": first["job_populated"] - first["dispatch"],
        "service.pool.shard_s": statistics.median(shard_s),
        "service.scheduler.finalize_s": first["job_complete"] - first["job_populated"],
        "service.client.notify_s": done_at - first["job_complete"],
        "service.scheduler.dispatches": dispatches,
    }


class ServiceOverlapWorkload(Workload):
    """``service-overlap``: submit→result against ``spectrends serve --pool 2``.

    Job ``i`` sweeps two CPU generations over 128 seeds starting at
    ``seed * SEED_STRIDE + 64 i``, so it shares half of its 256 units with
    job ``i - 1`` and reads them
    from the service-wide unit cache.  The reference is an in-process serial
    ``stream_campaign`` of the same spec and shard size.
    """

    name = "service-overlap"
    unaccounted = "service.unaccounted_s"
    CPUS = ("Xeon E5-2699 v4", "EPYC 9654")
    SEEDS = 128
    STRIDE = 64
    SHARD_SIZE = 64
    POOL = 2

    def __init__(self, root: Path, run_dir: Path, seed: int):
        super().__init__(root, run_dir, seed)
        self._proc: subprocess.Popen | None = None
        self._client = None
        self._starts = 0
        self._trace = LayerTrace(SERVICE_LAYERS)

    def start(self) -> float:
        from repro.errors import CampaignError
        from repro.io.jsonl import JsonlFollower
        from repro.service import ServiceClient

        self._starts += 1
        self.svc_root = self.run_dir / f"svc-{self._starts}"
        self._ledger = JsonlFollower(self.svc_root / "scheduler.jsonl")
        self._log = self.run_dir / f"serve-{self._starts}.log"
        address = self.svc_root / "service.json"
        start = time.perf_counter()
        with open(self._log, "w") as log:
            self._proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli.main", "serve",
                 "--root", str(self.svc_root), "--pool", str(self.POOL)],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=program_env(self.root, self.run_dir),
                cwd=self.root,
                start_new_session=True,  # its pool workers go with it on kill()
            )
        deadline = start + 60.0
        while True:
            if self._proc.poll() is not None or time.perf_counter() > deadline:
                self.kill()
                raise BenchmarkError(f"service did not start:\n{_log_tail(self._log)}")
            try:
                data = json.loads(address.read_text())
                client = ServiceClient(data["host"], data["port"], timeout=120.0,
                                       connect_retries=0)
                if client.ping():
                    break
            except (OSError, ValueError, KeyError, CampaignError):
                pass  # not written or not listening yet
            time.sleep(0.002)
        self._client = client
        return time.perf_counter() - start

    def stop(self) -> None:
        self._client.shutdown()
        try:
            code = self._proc.wait(timeout=60)
        except subprocess.TimeoutExpired:  # kill() reaps it
            raise BenchmarkError("service did not exit after the shutdown op") from None
        left = reap_group(self._proc.pid)
        self._proc = None
        if left:
            print(f"service left {left} process(es) running after shutdown; killed",
                  file=sys.stderr)
        if code != 0:
            raise BenchmarkError(f"service exited with {code}:\n{_log_tail(self._log)}")

    def kill(self) -> None:
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            reap_group(proc.pid)

    def spec(self, index: int):
        from repro.campaign import CampaignSpec

        first = self.seed * SEED_STRIDE + index * self.STRIDE
        return CampaignSpec(
            name=f"overlap-{index}",
            sweep={"cpu_model": list(self.CPUS), "seed": list(range(first, first + self.SEEDS))},
        )

    def reference(self, index: int) -> dict[str, Any]:
        from repro.campaign import stream_campaign

        result = stream_campaign(
            self.spec(index), self.ref_dir / str(index), shard_size=self.SHARD_SIZE
        )
        return outputs.aggregate_outputs(
            result.completed, len(result.failures), result.aggregate.to_dict(),
            state="complete",
        )

    def op(self, index: int, traced: bool) -> OpResult:
        from repro.errors import CampaignError

        payload = self.spec(index).to_dict()
        if traced:
            self._trace.install()
        start = time.perf_counter()
        try:
            job = self._client.submit(payload, shard_size=self.SHARD_SIZE)
            summary = self._client.wait(job["job"])
        except CampaignError as exc:  # refused, failed or cancelled job
            return OpResult(time.perf_counter() - start, None, error=str(exc))
        finally:
            wall_s = time.perf_counter() - start
            done_at = time.time()
            if traced:
                self._trace.restore()
        result = OpResult(
            wall_s,
            outputs.aggregate_outputs(
                summary["completed"], len(summary["failures"]), summary["aggregate"],
                state=summary["state"],
            ),
            units=summary["completed"],
        )
        if traced:
            result.layers = self._traced_layers(job["job"], summary, wall_s, done_at)
        return result

    def _traced_layers(
        self, job_id: str, summary: dict[str, Any], wall_s: float, done_at: float
    ) -> dict[str, float]:
        records: list[dict[str, Any]] = []
        deadline = time.perf_counter() + 10.0
        # The finalizer appends job_complete right after flipping the job's
        # state, so the client can see the result a moment before the line.
        while not any(r["record"] == "job_complete" for r in records):
            if time.perf_counter() > deadline:
                raise BenchmarkError(f"no job_complete record for {job_id}")
            records += [r for r in self._ledger.poll() if r.get("job") == job_id]
            time.sleep(0.002)
        layers = dict(self._trace.times)
        layers.update(scheduler_phases(records, done_at))
        layers["service.cache_hits"] = summary["cache_hits"]
        layers["service.simulated"] = summary["simulated"]
        chain = (
            "service.client.submit_s",
            "service.scheduler.admit_wait_s",
            "service.scheduler.dispatch_wait_s",
            "service.pool.execute_s",
            "service.scheduler.finalize_s",
            "service.client.notify_s",
        )
        layers[self.unaccounted] = wall_s - sum(layers[name] for name in chain)
        return layers


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (AnalyzeWorkload, CampaignColdWorkload, ServiceOverlapWorkload)
}
