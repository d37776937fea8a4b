"""The program under test for the in-process workloads, in its own process.

Run as ``python3 host.py <src-dir> <workload>``.  It imports ``repro`` (and,
for ``analyze-960``, opens and closes one session), then answers one JSON
request per stdin line with one JSON response line:

* ``{"op": "analyze", "corpus": dir, "trace": bool}`` — a fresh ephemeral
  session runs the paper analysis (Table I and all six figures);
* ``{"op": "campaign", "spec": {...}, "store": dir, "shard_size": n,
  "trace": bool}`` — ``stream_campaign`` into a fresh store;
* ``{"op": "exit"}``.

Each response carries the op's wall time, the digests of its checked
outputs and, for a traced op, the per-layer numbers.  Keeping the program
in its own process lets the benchmark time its set-up from a cold
interpreter and read its peak memory apart from the benchmark's own work.
"""

from __future__ import annotations

import json
import os
import sys
import time

import outputs
from layers import HOST_LAYERS, LayerTrace


def _analyze(request: dict):
    from repro.session import Session

    with Session() as session:
        dataset = session.dataset(corpus=request["corpus"])
        return session.analysis(dataset, table1=True, figures=True).result()


def _campaign(request: dict):
    from repro.campaign import CampaignSpec, stream_campaign

    spec = CampaignSpec.from_dict(request["spec"])
    return stream_campaign(spec, request["store"], shard_size=request["shard_size"])


def _campaign_outputs(result) -> dict:
    return outputs.aggregate_outputs(
        result.completed,
        len(result.failures),
        result.aggregate.to_dict(),
        simulated=result.simulated,
        shards=result.total_shards,
    )


#: op name -> (run the op, digest its checked outputs)
OPS = {
    "analyze": (_analyze, outputs.analysis_outputs),
    "campaign": (_campaign, _campaign_outputs),
}


def serve(requests, replies, trace) -> None:
    for line in requests:
        request = json.loads(line)
        if request["op"] == "exit":
            return
        traced = bool(request.get("trace"))
        run, describe = OPS[request["op"]]
        if traced:
            trace.install()
        error = None
        start = time.perf_counter()
        try:
            result = run(request)
        except Exception as exc:  # reported to the benchmark as a failed op
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall_s = time.perf_counter() - start
            if traced:
                trace.restore()
        reply = {"ok": error is None, "wall_s": wall_s}
        if error is None:
            reply["outputs"] = describe(result)
        else:
            reply["error"] = error
        if traced:
            reply["layers"] = {
                "times": trace.times,
                "counts": trace.counts,
                "top_level_s": trace.top_level_s(),
            }
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


if __name__ == "__main__":
    src, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    # Protocol lines go to the real stdout; anything the program prints
    # goes to stderr instead of corrupting them.
    replies = os.fdopen(os.dup(sys.stdout.fileno()), "w")
    sys.stdout = sys.stderr

    import repro  # noqa: F401  (set-up: the program's imports)

    if workload == "analyze-960":
        from repro.session import Session

        Session().close()
    else:
        import repro.campaign  # noqa: F401

    replies.write(json.dumps({"ready": True}) + "\n")
    replies.flush()
    serve(sys.stdin, replies, LayerTrace(HOST_LAYERS))
