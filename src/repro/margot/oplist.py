"""Operating-point list serialization (mARGOt's oplist files).

mARGOt persists design-time knowledge as operating-point list files so
the profiling campaign and the production runs can be decoupled.  This
module provides the same round trip as JSON documents:

.. code-block:: python

    save_knowledge(kb, "2mm.oplist.json")
    kb = load_knowledge("2mm.oplist.json")

The schema stores knob values with a type tag so integers survive the
round trip (thread counts must come back as ``int``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.margot.knowledge import KnowledgeBase, MetricStats, OperatingPoint

_FORMAT_VERSION = 1


class OplistError(ValueError):
    """Raised on malformed oplist documents."""


def _encode_knob(value: object) -> Dict[str, object]:
    if isinstance(value, bool):
        raise OplistError("boolean knobs are not supported")
    if isinstance(value, int):
        return {"type": "int", "value": value}
    if isinstance(value, float):
        return {"type": "float", "value": value}
    return {"type": "str", "value": str(value)}


def _decode_knob(entry: Dict[str, object]) -> object:
    kind = entry.get("type")
    value = entry.get("value")
    if kind == "int":
        return int(value)  # type: ignore[arg-type]
    if kind == "float":
        return float(value)  # type: ignore[arg-type]
    if kind == "str":
        return str(value)
    raise OplistError(f"unknown knob type {kind!r}")


def knowledge_to_dict(
    knowledge: KnowledgeBase, machine: Optional[str] = None
) -> Dict[str, object]:
    """Serialize a knowledge base into a JSON-ready document.

    ``machine`` records which registry platform the campaign profiled
    (knowledge is machine-specific; a ``biglittle_4p4e`` oplist is
    meaningless on ``xeon_2s``).  It is omitted when not given, keeping
    historical documents byte-identical.
    """
    points: List[Dict[str, object]] = []
    for point in knowledge:
        points.append(
            {
                "knobs": {name: _encode_knob(value) for name, value in point.knobs.items()},
                "metrics": {
                    name: {"mean": stats.mean, "std": stats.std}
                    for name, stats in point.metrics.items()
                },
            }
        )
    document: Dict[str, object] = {"format": _FORMAT_VERSION, "points": points}
    if machine is not None:
        document["machine"] = machine
    return document


def knowledge_from_dict(document: Dict[str, object]) -> KnowledgeBase:
    """Rebuild a knowledge base from :func:`knowledge_to_dict` output."""
    if document.get("format") != _FORMAT_VERSION:
        raise OplistError(f"unsupported oplist format {document.get('format')!r}")
    knowledge = KnowledgeBase()
    for entry in document.get("points", []):  # type: ignore[union-attr]
        knobs = {
            name: _decode_knob(value) for name, value in entry["knobs"].items()
        }
        metrics = {
            name: MetricStats(mean=float(stats["mean"]), std=float(stats["std"]))
            for name, stats in entry["metrics"].items()
        }
        knowledge.add(OperatingPoint(knobs=knobs, metrics=metrics))
    return knowledge


def save_knowledge(
    knowledge: KnowledgeBase, path: Union[str, Path], machine: Optional[str] = None
) -> None:
    """Write the oplist JSON file for ``knowledge``."""
    Path(path).write_text(
        json.dumps(knowledge_to_dict(knowledge, machine=machine), indent=2)
    )


def load_knowledge(path: Union[str, Path]) -> KnowledgeBase:
    """Read an oplist JSON file back into a knowledge base."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise OplistError(f"invalid oplist JSON: {error}") from None
    return knowledge_from_dict(document)
