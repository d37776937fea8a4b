#!/usr/bin/env python3
"""Campaign engine walk-through: a 2-axis generation x seed sweep.

Declares a sweep over three server generations and three seeds (nine units),
executes it into a resumable store through a :class:`repro.Session`, then
re-runs the identical spec to show the content-hash cache replaying the
campaign with zero new simulations.  The aggregated frame flows straight
into the paper's analysis pipeline, and ``Frame.memory_usage()`` shows what
the aggregation costs.

See the top-level README.md ("Campaign engine" section) for the declarative
spec format and the matching ``spectrends campaign run|status|resume`` CLI.

Run with ``python examples/campaign_sweep.py [store_dir]``; pass a persistent
directory to see warm-cache behaviour across invocations.
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro import Session
from repro.campaign import CampaignSpec, CampaignStore
from repro.session.policy import ExecutionPolicy

SPEC = CampaignSpec(
    name="generation-sweep",
    sweep={
        "cpu_model": ["Xeon X5670", "Xeon Platinum 8480+", "EPYC 9654"],
        "seed": [1, 2, 3],
    },
    # A shortened load ladder trades per-level resolution for sweep speed.
    base={"load_levels": [1.0, 0.7, 0.5, 0.2, 0.1, 0.0]},
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("store", nargs="?", default=None,
                        help="campaign store directory (default: temporary)")
    args = parser.parse_args()
    store = Path(args.store) if args.store else Path(tempfile.mkdtemp(prefix="campaign-"))

    session = Session()

    print(f"Campaign {SPEC.name!r}: {SPEC.n_units} units -> {store}")
    start = time.perf_counter()
    cold = session.campaign(SPEC, store=store).result()
    print(f"  cold: {cold.describe()}  [{time.perf_counter() - start:.2f}s]")

    # A fresh session proves the warm replay comes from the store on disk,
    # not from the first session's in-memory memo.
    session.close()
    session = Session()
    start = time.perf_counter()
    warm = session.campaign(SPEC, store=store).result()
    print(f"  warm: {warm.describe()}  [{time.perf_counter() - start:.2f}s]")
    assert warm.simulated == 0, "second invocation must be pure cache hits"

    print("\n" + CampaignStore(store).status().describe())

    frame = warm.frame
    print(f"\nCampaign frame: {frame.shape[0]} rows x {frame.shape[1]} columns, "
          f"{frame.nbytes / 1024:.1f} KiB")
    print(frame.memory_usage().head(5).to_string())

    print("\nPer-generation efficiency (ssj_ops/W, mean over seeds):")
    by_gen = (
        frame.groupby("campaign_cpu_model")
        .agg({"overall_ssj_ops_per_watt": "mean"})
        .sort_by("overall_ssj_ops_per_watt")
    )
    print(by_gen.to_string())

    result = session.analyze_frame(frame, table1=False)
    print(f"\nthe analysis pipeline accepted the campaign frame: "
          f"{len(result.filtered)} runs after the paper's filters")
    session.close()

    # Sweeps too large to hold resident stream shard by shard instead:
    # each shard's rows are flushed to a columnar store artifact before the
    # next shard starts, so memory stays O(shard_size) while frame() and
    # the online aggregate remain bit-identical to the default-layout run
    # (see README "Scaling campaigns").
    with Session(policy=ExecutionPolicy(shard_size=4)) as streaming_session:
        streamed = streaming_session.campaign(SPEC, store=store).result()
        print(f"\nstreamed: {streamed.describe()}")
        assert streamed.frame().equals(frame), "sharding must not change a row"
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
