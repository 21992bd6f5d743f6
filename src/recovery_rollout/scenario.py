"""Scenario files: one YAML document describing the community, the hazard,
and the run configuration.  One file is one reproducible experiment.

Parsing reports the offending field path in a ParseError; a semantic
problem propagates as the model builder's ValidationError, whose message
names the broken invariant.  Every mapping is read through _mapping,
so a key outside its allow-list is a ParseError wherever it appears.  The
mdp and rollout sections and each cell and retailer entry are read field
by field from their dataclasses, so their types and defaults are declared
there only.
"""

from __future__ import annotations

import enum
import functools
import math
import re
from dataclasses import MISSING, dataclass, fields
from typing import Any, Callable, get_type_hints

import yaml
from yaml.constructor import ConstructorError

from .community import (
    DAMAGED_STATES,
    DEFAULT_REPAIR_DAYS,
    Community,
    Component,
    ComponentClass,
    DamageState,
    GridCell,
    Retailer,
)
from .errors import ParseError
from .hazard import ComponentHazard, FragilityCurve, FragilitySet
from .mdp import MdpConfig
from .planner import PriorityBasePolicy, RolloutConfig

_CLASS_NAMES = {c.value: c for c in ComponentClass}
_STATE_NAMES = {s.name.lower(): s for s in DamageState}
_DAMAGED_NAMES = tuple(s.name.lower() for s in DAMAGED_STATES)
# location is accepted and ignored, so older files that place components load
_COMPONENT_KEYS = ("id", "class", "repair_days", "any_supplier", "location")


@dataclass(frozen=True)
class Scenario:
    name: str
    community: Community
    hazards: dict[int, ComponentHazard]
    mdp: MdpConfig
    rollout: RolloutConfig
    base_policy: PriorityBasePolicy
    seed: int


def _mapping(raw: Any, path: str, known: tuple[str, ...] | None) -> dict:
    """raw as a dict whose keys all lie in known: a misspelt key would
    otherwise leave its field at the default.  known is None only for a
    table keyed by component id, whose caller checks each key."""
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: expected a mapping, got {type(raw).__name__}")
    for key in raw:
        if known is not None and key not in known:
            names = ", ".join(sorted(known))
            raise ParseError(f"{path}.{key}: unknown field (one of: {names})")
    return raw


def _get(mapping: dict, key: str, path: str) -> Any:
    if key not in mapping:
        raise ParseError(f"{path}.{key}: required field is missing")
    return mapping[key]


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ParseError(f"{path}: expected a finite number, got {number}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{path}: expected an integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{path}: expected true or false")
    return value


def _point(value: Any, path: str) -> tuple[float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ParseError(f"{path}: expected [x, y]")
    return (_number(value[0], f"{path}[0]"), _number(value[1], f"{path}[1]"))


def _lookup(table: dict[str, Any], value: Any, path: str, what: str) -> Any:
    if not isinstance(value, str) or value not in table:
        known = ", ".join(sorted(table))
        raise ParseError(f"{path}: unknown {what} {value!r} (one of: {known})")
    return table[value]


_READERS = {int: _integer, float: _number, tuple[float, float]: _point}


@functools.cache
def _record_fields(cls: type) -> tuple[tuple[str, Callable, bool], ...]:
    """(name, reader, required) per field of a dataclass, in declaration
    order.  An enum field is read by value and named in messages by its
    class name split at capitals and lower-cased."""
    hints = get_type_hints(cls)
    specs = []
    for f in fields(cls):
        hint = hints[f.name]
        if isinstance(hint, type) and issubclass(hint, enum.Enum):
            label = re.sub(r"(?<!^)(?=[A-Z])", " ", hint.__name__).lower()
            read = functools.partial(_lookup, {m.value: m for m in hint}, what=label)
        else:
            read = _READERS[hint]
        specs.append((f.name, read, f.default is MISSING))
    return tuple(specs)


def _read_record(cls: type, raw: Any, path: str) -> Any:
    """A dataclass from a mapping keyed by its field names; an omitted
    field takes the dataclass default."""
    specs = _record_fields(cls)
    raw = _mapping(raw, path, tuple(name for name, _, _ in specs))
    values = {}
    for name, read, required in specs:
        if name in raw:
            values[name] = read(raw[name], f"{path}.{name}")
        elif required:
            raise ParseError(f"{path}.{name}: required field is missing")
    return cls(**values)


def _per_state(raw: Any, path: str, read: Callable[[Any, str], Any]) -> list:
    """One value per damaged state, minor to complete, read from a mapping
    keyed by their names."""
    raw = _mapping(raw, path, _DAMAGED_NAMES)
    return [read(_get(raw, key, path), f"{path}.{key}") for key in _DAMAGED_NAMES]


def _parse_repair_days(
    raw: Any, kind: ComponentClass, path: str
) -> dict[DamageState, float]:
    if raw is None:
        if kind not in DEFAULT_REPAIR_DAYS:
            raise ParseError(
                f"{path}.repair_days: required for class '{kind.value}' "
                "(no built-in default)"
            )
        return dict(zip(DAMAGED_STATES, DEFAULT_REPAIR_DAYS[kind]))
    return dict(
        zip(DAMAGED_STATES, _per_state(raw, f"{path}.repair_days", _number))
    )


def _parse_component(raw: Any, path: str) -> Component:
    raw = _mapping(raw, path, _COMPONENT_KEYS)
    kind = _lookup(
        _CLASS_NAMES, _get(raw, "class", path), f"{path}.class", "component class"
    )
    return Component(
        id=_integer(_get(raw, "id", path), f"{path}.id"),
        kind=kind,
        mean_repair_days=_parse_repair_days(raw.get("repair_days"), kind, path),
        any_supplier=_boolean(
            raw.get("any_supplier", False), f"{path}.any_supplier"
        ),
    )


def _parse_curve(raw: Any, path: str) -> FragilityCurve:
    raw = _mapping(raw, path, ("median", "beta"))
    return FragilityCurve(
        median_im=_number(_get(raw, "median", path), f"{path}.median"),
        beta=_number(_get(raw, "beta", path), f"{path}.beta"),
    )


def _parse_hazard_entry(raw: Any, path: str) -> ComponentHazard:
    raw = _mapping(raw, path, ("fixed", "pmf", "im", "curves"))
    forms = [k for k in ("fixed", "pmf", "im") if k in raw]
    if len(forms) != 1 or ("curves" in raw and "im" not in raw):
        raise ParseError(
            f"{path}: give exactly one of 'fixed', 'pmf', or 'im' with 'curves'"
        )
    if "fixed" in raw:
        state = _lookup(_STATE_NAMES, raw["fixed"], f"{path}.fixed", "damage state")
        return ComponentHazard(fixed=state)
    if "pmf" in raw:
        pmf = raw["pmf"]
        if not isinstance(pmf, list) or len(pmf) != 5:
            raise ParseError(f"{path}.pmf: expected 5 probabilities")
        values = tuple(_number(p, f"{path}.pmf[{i}]") for i, p in enumerate(pmf))
        return ComponentHazard(pmf=values)  # type: ignore[arg-type]
    im = _number(raw["im"], f"{path}.im")
    curves = _per_state(_get(raw, "curves", path), f"{path}.curves", _parse_curve)
    return ComponentHazard(fragility=FragilitySet(im=im, curves=tuple(curves)))


def _parse_hazards(
    raw: Any, components: list[Component]
) -> dict[int, ComponentHazard]:
    raw = _mapping(raw if raw is not None else {}, "hazard", ("default", "components"))
    default_raw = raw.get("default")
    default = (
        _parse_hazard_entry(default_raw, "hazard.default")
        if default_raw is not None
        else None
    )
    per_component = _mapping(raw.get("components", {}), "hazard.components", None)
    hazards: dict[int, ComponentHazard] = {}
    known_ids = {c.id for c in components}
    for key, entry in per_component.items():
        cid = _integer(key, f"hazard.components.{key}")
        if cid not in known_ids:
            raise ParseError(
                f"hazard.components.{key}: unknown component id {cid}"
            )
        hazards[cid] = _parse_hazard_entry(entry, f"hazard.components.{key}")
    if default is not None:
        for c in components:
            hazards.setdefault(c.id, default)
    return hazards


_SECTIONS = ("name", "seed", "components", "edges", "cells", "retailers",
             "gravity_exponent", "hazard", "mdp", "rollout")


def parse_scenario(raw: Any, source: str = "<scenario>") -> Scenario:
    doc = _mapping(raw, source, _SECTIONS)
    components_raw = _get(doc, "components", source)
    if not isinstance(components_raw, list) or not components_raw:
        raise ParseError(f"{source}.components: expected a non-empty list")
    components = [
        _parse_component(c, f"components[{i}]") for i, c in enumerate(components_raw)
    ]

    edges_raw = doc.get("edges", [])
    if not isinstance(edges_raw, list):
        raise ParseError("edges: expected a list of [supplier, dependent] pairs")
    edges = []
    for i, pair in enumerate(edges_raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"edges[{i}]: expected [supplier, dependent]")
        edges.append(
            (
                _integer(pair[0], f"edges[{i}][0]"),
                _integer(pair[1], f"edges[{i}][1]"),
            )
        )

    cells_raw = _get(doc, "cells", source)
    if not isinstance(cells_raw, list) or not cells_raw:
        raise ParseError("cells: expected a non-empty list")
    cells = []
    for i, c in enumerate(cells_raw):
        cells.append(_read_record(GridCell, c, f"cells[{i}]"))
        if cells[-1].population < 0:
            raise ParseError(f"cells[{i}].population: must be >= 0")
        if cells[-1].population > 2**53:  # beyond it floats lose persons
            raise ParseError(f"cells[{i}].population: must be <= 2**53")

    retailers_raw = _get(doc, "retailers", source)
    if not isinstance(retailers_raw, list):
        raise ParseError("retailers: expected a list")
    retailers = [
        _read_record(Retailer, r, f"retailers[{i}]")
        for i, r in enumerate(retailers_raw)
    ]

    community = Community(
        components=components,
        edges=edges,
        cells=cells,
        retailers=retailers,
        gravity_exponent=_number(
            doc.get("gravity_exponent", 2.0), "gravity_exponent"
        ),
    )
    rollout_raw = doc.get("rollout")  # an empty section takes the defaults
    seed = _integer(doc.get("seed", 0), "seed")
    if not 0 <= seed < 2**64:
        raise ParseError("seed: must fit in an unsigned 64-bit integer")
    return Scenario(
        name=str(doc.get("name", "scenario")),
        community=community,
        hazards=_parse_hazards(doc.get("hazard"), components),
        mdp=_read_record(MdpConfig, _get(doc, "mdp", source), "mdp"),
        rollout=_read_record(
            RolloutConfig, {} if rollout_raw is None else rollout_raw, "rollout"
        ),
        base_policy=PriorityBasePolicy(),
        seed=seed,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that refuses a key repeated in one mapping, where plain
    YAML keeps the last value silently.  Keys taken from a `<<` merge may
    still be overridden."""

    def construct_mapping(self, node: yaml.Node, deep: bool = False) -> dict:
        if isinstance(node, yaml.MappingNode):
            seen = set()
            for key_node, _ in node.value:
                scalar = isinstance(key_node, yaml.ScalarNode)
                if not scalar or key_node.tag == "tag:yaml.org,2002:merge":
                    continue  # super() rejects an unhashable key
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    line = key_node.start_mark.line + 1
                    raise ConstructorError(
                        problem=f"repeated key {key!r} on line {line}"
                    )
                seen.add(key)
        return super().construct_mapping(node, deep=deep)


def load_scenario(path: str) -> Scenario:
    """Read and fully validate a scenario file."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = yaml.load(text, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ParseError(f"{path}: not valid YAML ({exc})") from exc
    return parse_scenario(raw, source=path)
