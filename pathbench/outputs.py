"""Canonical digests of the outputs an op is checked on.

The program and the reference run in different processes (and, for the
service, reach the benchmark over a JSON wire), so outputs are compared as
SHA-256 digests of one canonical JSON text.  Floats print with ``repr``, so
two digests agree only when every value is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping


def digest(value: Any) -> str:
    """Digest of ``value`` as sorted-key JSON.

    ``default=str`` mirrors the service wire (``send_message``), so a value
    that crossed the wire and the same value computed in-process produce the
    same text.
    """
    text = json.dumps(value, sort_keys=True, default=str, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frame_digest(frame) -> str:
    """Digest of a frame's values with its column order kept."""
    return digest([[name, values] for name, values in frame.to_dict().items()])


def analysis_outputs(result) -> dict[str, Any]:
    """What an ``analyze-960`` op is checked on.

    The summary text, the filtered frame and each figure's ``data`` frame.
    Figure artifacts are not compared with ``==``: that compares chart
    objects, which never compare equal.
    """
    return {
        "runs": len(result.unfiltered),
        "summary": digest(result.summary()),
        "filtered": frame_digest(result.filtered),
        "figures": [frame_digest(artifact.data) for artifact in result.figures],
    }


def aggregate_outputs(
    completed: int, failures: int, aggregate: Mapping[str, Any], **extra: Any
) -> dict[str, Any]:
    """What a campaign op is checked on: rows, failures and the aggregate.

    ``aggregate`` is ``Frame.to_dict()`` (or its wire copy); the sorted-key
    digest ignores the column order the wire does not keep.
    """
    outputs = {"completed": completed, "failures": failures, "aggregate": digest(aggregate)}
    outputs.update(extra)
    return outputs


def mismatches(got: Mapping[str, Any], want: Mapping[str, Any]) -> list[str]:
    """Names of the checked outputs that differ (empty when the op is correct)."""
    return [key for key in sorted(set(got) | set(want)) if got.get(key) != want.get(key)]
