"""Declarative mARGOt configuration (the XML-config equivalent).

The real mARGOt is configured through an XML file listing monitors,
goals and optimization states; *margot_heel* generates the glue from
it.  Here the same information is expressed as JSON / plain dicts:

.. code-block:: python

    CONFIG = {
        "kernel": "2mm",
        "states": [
            {
                "name": "efficiency",
                "rank": {
                    "direction": "maximize",
                    "composition": "geometric",
                    "fields": [
                        {"metric": "throughput", "coefficient": 1.0},
                        {"metric": "power", "coefficient": -2.0},
                    ],
                },
            },
            {
                "name": "budget",
                "rank": {
                    "direction": "minimize",
                    "composition": "linear",
                    "fields": [{"metric": "time", "coefficient": 1.0}],
                },
                "constraints": [
                    {
                        "metric": "power",
                        "comparison": "le",
                        "value": 100.0,
                        "confidence": 1.0,
                        "priority": 10,
                    }
                ],
            },
        ],
        "active_state": "efficiency",
    }

``load_config`` validates the document into a
:class:`MargotConfiguration`; ``apply_configuration`` installs it on an
AS-RTM (or on an :class:`~repro.core.adaptive.AdaptiveApplication`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Union

from repro.margot.goal import ComparisonFunction, Goal
from repro.margot.state import (
    Constraint,
    OptimizationState,
    Rank,
    RankComposition,
    RankDirection,
    RankField,
)

_COMPARISONS = {
    "lt": ComparisonFunction.LESS,
    "le": ComparisonFunction.LESS_OR_EQUAL,
    "gt": ComparisonFunction.GREATER,
    "ge": ComparisonFunction.GREATER_OR_EQUAL,
    "<": ComparisonFunction.LESS,
    "<=": ComparisonFunction.LESS_OR_EQUAL,
    ">": ComparisonFunction.GREATER,
    ">=": ComparisonFunction.GREATER_OR_EQUAL,
}


class ConfigError(ValueError):
    """Raised on malformed configuration documents."""


@dataclass
class MargotConfiguration:
    """A validated mARGOt configuration."""

    kernel: str
    states: List[OptimizationState]
    active_state: Optional[str] = None

    def state_names(self) -> List[str]:
        return [state.name for state in self.states]


def _require(document: Mapping, key: str, context: str):
    if key not in document:
        raise ConfigError(f"missing {key!r} in {context}")
    return document[key]


def _parse_rank(document: Mapping) -> Rank:
    direction_text = str(_require(document, "direction", "rank")).lower()
    try:
        direction = RankDirection(direction_text)
    except ValueError:
        raise ConfigError(f"unknown rank direction {direction_text!r}") from None
    composition_text = str(document.get("composition", "linear")).lower()
    try:
        composition = RankComposition(composition_text)
    except ValueError:
        raise ConfigError(f"unknown rank composition {composition_text!r}") from None
    fields_doc = _require(document, "fields", "rank")
    if not fields_doc:
        raise ConfigError("rank needs at least one field")
    fields = tuple(
        RankField(
            metric=str(_require(entry, "metric", "rank field")),
            coefficient=float(entry.get("coefficient", 1.0)),
        )
        for entry in fields_doc
    )
    return Rank(direction=direction, composition=composition, fields=fields)


def _parse_constraint(document: Mapping) -> Constraint:
    metric = str(_require(document, "metric", "constraint"))
    comparison_text = str(_require(document, "comparison", "constraint")).lower()
    if comparison_text not in _COMPARISONS:
        raise ConfigError(f"unknown comparison {comparison_text!r}")
    value = float(_require(document, "value", "constraint"))
    return Constraint(
        goal=Goal(metric, _COMPARISONS[comparison_text], value),
        priority=int(document.get("priority", 10)),
        confidence=float(document.get("confidence", 0.0)),
    )


def _parse_state(document: Mapping) -> OptimizationState:
    name = str(_require(document, "name", "state"))
    rank = _parse_rank(_require(document, "rank", f"state {name!r}"))
    state = OptimizationState(name=name, rank=rank)
    for entry in document.get("constraints", []):
        state.add_constraint(_parse_constraint(entry))
    return state


def load_config(source: Union[str, Path, Mapping]) -> MargotConfiguration:
    """Parse and validate a configuration document.

    ``source`` may be a mapping, a JSON string, or a path to a JSON
    file.  A :class:`~pathlib.Path`, or a string that does not start
    with ``{``, is a path, and a missing file is named as such.
    """
    if isinstance(source, Mapping):
        document = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            try:
                text = Path(source).read_text()
            except OSError as error:
                raise ConfigError(
                    f"{source}: cannot read configuration ({error.strerror or error})"
                ) from None
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigError(f"invalid JSON configuration: {error}") from None
    kernel = str(_require(document, "kernel", "configuration"))
    states_doc = _require(document, "states", "configuration")
    if not states_doc:
        raise ConfigError("configuration needs at least one state")
    states = [_parse_state(entry) for entry in states_doc]
    names = [state.name for state in states]
    if len(set(names)) != len(names):
        raise ConfigError(f"duplicate state names in {names}")
    active = document.get("active_state")
    if active is not None and active not in names:
        raise ConfigError(f"active_state {active!r} is not a defined state")
    return MargotConfiguration(kernel=kernel, states=states, active_state=active)


def apply_configuration(config: MargotConfiguration, target) -> None:
    """Install every state of ``config`` on ``target``.

    ``target`` is anything with mARGOt's state API — an
    :class:`~repro.margot.asrtm.ApplicationRuntimeManager` or an
    :class:`~repro.core.adaptive.AdaptiveApplication`.
    """
    for state in config.states:
        activate = config.active_state == state.name
        target.add_state(state, activate=activate)
    if config.active_state is not None:
        target.switch_state(config.active_state)
