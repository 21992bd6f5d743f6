"""Scenario parsing and the command-line entry points."""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import pytest
import yaml

import recovery_rollout
from recovery_rollout import planner as planner_module
from recovery_rollout.cli import _config_lines, _fmt, main
from recovery_rollout.community import ComponentClass
from recovery_rollout.errors import ParseError, ValidationError
from recovery_rollout.mdp import Objective, RepairModel
from recovery_rollout.planner import RolloutConfig, RolloutMode
from recovery_rollout.scenario import load_scenario, parse_scenario

DATA = Path(recovery_rollout.__file__).parent / "data"
MINI = str(DATA / "mini_gilroy.yaml")
DEMO = str(DATA / "oracle_demo.yaml")


def minimal_doc() -> dict:
    return {
        "name": "t",
        "components": [
            {"id": 1, "class": "substation"},
            {"id": 2, "class": "distribution"},
            {"id": 3, "class": "well"},
            {
                "id": 4,
                "class": "pipeline",
                "repair_days": {
                    "minor": 1.0, "moderate": 2.0,
                    "extensive": 3.0, "complete": 4.0,
                },
            },
        ],
        "edges": [[1, 2], [3, 4]],
        "cells": [
            {"id": 1, "population": 100, "centroid": [1.0, 0.0],
             "power_feed": 2, "water_feed": 4},
        ],
        "retailers": [
            {"id": 1, "capacity": 10.0, "centroid": [0.0, 1.0],
             "power_feed": 2, "water_feed": 4},
        ],
        "hazard": {"default": {"fixed": "none"}},
        "mdp": {"n_e": 1, "n_w": 1},
    }


# --- scenario files ----------------------------------------------------------


def test_load_bundled_mini_scenario():
    sc = load_scenario(MINI)
    assert sc.name == "mini-gilroy"
    assert sc.seed == 7
    community = sc.community
    assert community.n_components == 20
    assert len(community.epn_indices) == 12
    assert len(community.wn_indices) == 8
    assert set(sc.hazards) == {c.id for c in community.components}
    assert sc.mdp.gamma == pytest.approx(0.99)
    assert sc.mdp.objective is Objective.MIN_TIME_TO_COVERAGE
    assert sc.rollout.mode is RolloutMode.MEAN
    # every pipeline carries explicit repair days (there is no default)
    for comp in community.components:
        if comp.kind is ComponentClass.PIPELINE:
            assert all(d > 0 for d in comp.mean_repair_days.values())


def test_load_bundled_demo_scenario():
    sc = load_scenario(DEMO)
    assert sc.mdp.repair_model is RepairModel.REMAINING_WORK
    assert sc.mdp.gamma == pytest.approx(1.0)
    assert sc.community.n_components == 7
    # fixed-state hazard: the damage draw is deterministic
    assert sc.hazards[1].damage_pmf() == (0.0, 0.0, 0.0, 1.0, 0.0)


def test_parse_minimal_document():
    sc = parse_scenario(minimal_doc())
    assert sc.community.n_components == 4
    assert sc.seed == 0
    assert set(sc.hazards) == {1, 2, 3, 4}
    assert sc.mdp.repair_model is RepairModel.EXPONENTIAL


def test_unknown_component_class_names_field():
    doc = minimal_doc()
    doc["components"][1]["class"] = "fusion_reactor"
    with pytest.raises(ParseError, match=r"components\[1\]\.class"):
        parse_scenario(doc)


@pytest.mark.parametrize("flag", ["false", "true", 0, 1])
def test_any_supplier_must_be_a_boolean(flag):
    doc = minimal_doc()
    doc["components"][1]["any_supplier"] = flag
    with pytest.raises(
        ParseError, match=r"components\[1\]\.any_supplier: expected true or false"
    ):
        parse_scenario(doc)
    doc["components"][1]["any_supplier"] = True
    assert parse_scenario(doc).community.components[1].any_supplier is True


NUMBER_FIELDS = [
    ("components", 3, "repair_days", "minor"),
    ("components", 3, "repair_days", "moderate"),
    ("components", 3, "repair_days", "extensive"),
    ("components", 3, "repair_days", "complete"),
    ("gravity_exponent",),
    ("rollout", "se_threshold"),
    ("hazard", "default", "pmf", 0),
]


def field_path(keys) -> str:
    return "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys
    ).lstrip(".")


@pytest.mark.parametrize(
    "value",
    [float("nan"), float("inf"), float("-inf"), pytest.param(10**401, id="10**401")],
)
@pytest.mark.parametrize("keys", NUMBER_FIELDS, ids=field_path)
def test_non_finite_number_rejected(keys, value):
    doc = minimal_doc()
    doc["rollout"] = {"se_threshold": 0.05}
    doc["hazard"]["default"] = {"pmf": [1.0, 0.0, 0.0, 0.0, 0.0]}
    parse_scenario(doc)  # valid until the one field is spoiled
    *parents, last = keys
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    shown = value if isinstance(value, float) else "inf"  # too large for a float
    message = f"{field_path(keys)}: expected a finite number, got {shown}"
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_scenario(doc)


def test_dangling_feed_reference():
    doc = minimal_doc()
    doc["cells"][0]["water_feed"] = 99
    with pytest.raises(
        ValidationError, match="cell 1: feed references unknown component 99"
    ):
        parse_scenario(doc)


def test_pipeline_requires_repair_days():
    doc = minimal_doc()
    del doc["components"][3]["repair_days"]
    with pytest.raises(ParseError, match="pipeline"):
        parse_scenario(doc)


def test_hazard_default_sugar_with_override():
    doc = minimal_doc()
    doc["hazard"] = {
        "default": {"fixed": "none"},
        "components": {1: {"fixed": "complete"}},
    }
    sc = parse_scenario(doc)
    assert sc.hazards[1].damage_pmf() == (0.0, 0.0, 0.0, 0.0, 1.0)
    assert sc.hazards[2].damage_pmf() == (1.0, 0.0, 0.0, 0.0, 0.0)


def test_hazard_for_unknown_component_rejected():
    doc = minimal_doc()
    doc["hazard"]["components"] = {42: {"fixed": "none"}}
    with pytest.raises(ParseError, match="unknown component id"):
        parse_scenario(doc)


def test_hazard_entry_needs_one_form():
    doc = minimal_doc()
    doc["hazard"]["default"] = {
        "fixed": "none", "pmf": [1.0, 0.0, 0.0, 0.0, 0.0]
    }
    with pytest.raises(ParseError, match="exactly one"):
        parse_scenario(doc)


def test_hazard_curves_need_im():
    doc = minimal_doc()
    doc["hazard"]["default"] = {"fixed": "none", "curves": {}}
    with pytest.raises(ParseError, match="exactly one"):
        parse_scenario(doc)


def test_component_location_is_ignored():
    doc = minimal_doc()
    doc["components"][0]["location"] = [3.0, 1.5]
    plain = parse_scenario(minimal_doc())
    assert parse_scenario(doc).community.components == plain.community.components


def test_fragility_form_roundtrip():
    doc = minimal_doc()
    doc["hazard"]["default"] = {
        "im": 0.4,
        "curves": {
            "minor": {"median": 0.2, "beta": 0.5},
            "moderate": {"median": 0.4, "beta": 0.5},
            "extensive": {"median": 0.7, "beta": 0.5},
            "complete": {"median": 1.2, "beta": 0.5},
        },
    }
    sc = parse_scenario(doc)
    pmf = sc.hazards[3].damage_pmf()
    assert sum(pmf) == pytest.approx(1.0, abs=1e-12)
    assert pmf[2] > 0.0  # mass at moderate for im right at that median


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "too-large"])
def test_negative_seed_rejected(seed):
    doc = minimal_doc()
    doc["seed"] = seed
    with pytest.raises(ParseError, match="seed"):
        parse_scenario(doc)


def test_missing_mdp_section_rejected():
    doc = minimal_doc()
    del doc["mdp"]
    with pytest.raises(ParseError, match="mdp"):
        parse_scenario(doc)


def test_rollout_horizon_rejected():
    # trajectories always run to a terminal state; ignoring the key would
    # silently change what an older scenario file computes
    doc = minimal_doc()
    doc["rollout"] = {"horizon": 5}
    with pytest.raises(ParseError, match=r"rollout\.horizon"):
        parse_scenario(doc)
    # so does every other unknown rollout key
    doc["rollout"] = {"lookahead_note": 5}
    with pytest.raises(ParseError, match=r"rollout\.lookahead_note"):
        parse_scenario(doc)


@pytest.mark.parametrize("where, key, path", [
    ((), "rolout", "<scenario>.rolout"),
    (("mdp",), "objectve", "mdp.objectve"),
    (("rollout",), "n_mc_mx", "rollout.n_mc_mx"),
    (("cells", 0), "populaton", "cells[0].populaton"),
    (("retailers", 0), "capcity", "retailers[0].capcity"),
    (("components", 0), "any_suplier", "components[0].any_suplier"),
    (("components", 0), "repair_dayz", "components[0].repair_dayz"),
    (("components", 3, "repair_days"), "minr",
     "components[3].repair_days.minr"),
    (("hazard",), "defualt", "hazard.defualt"),
    (("hazard", "default"), "pmff", "hazard.default.pmff"),
    (("hazard", "components", 1, "curves"), "minr",
     "hazard.components.1.curves.minr"),
    (("hazard", "components", 1, "curves", "minor"), "betta",
     "hazard.components.1.curves.minor.betta"),
], ids=["top-level", "mdp", "rollout", "cell", "retailer", "any-supplier",
        "repair-days-key", "repair-days", "hazard", "hazard-entry", "curves",
        "curve"])
def test_misspelt_key_rejected(where, key, path):
    # ignored, the key would leave its field at the default
    doc = minimal_doc()
    doc["rollout"] = {}
    doc["hazard"]["components"] = {1: {"im": 0.4, "curves": {
        state: {"median": median, "beta": 0.5}
        for state, median in [("minor", 0.2), ("moderate", 0.4),
                              ("extensive", 0.7), ("complete", 1.2)]
    }}}
    section = doc
    for step in where:
        section = section[step]
    section[key] = 1
    with pytest.raises(ParseError, match=re.escape(f"{path}: unknown field (one of: ")):
        parse_scenario(doc)


# Every field of the records read from a section: (section, field, value
# written in full_doc(), value read back, default when the key is omitted).
# Written out by hand so that a loader which drops or re-defaults a field
# disagrees with this table.
REQUIRED = object()
RECORD_FIELDS = [
    ("mdp", "n_e", 2, 2, REQUIRED),
    ("mdp", "n_w", 3, 3, REQUIRED),
    ("mdp", "gamma", 0.9, 0.9, 0.99),
    ("mdp", "objective", "max_benefit_rate", Objective.MAX_BENEFIT_RATE,
     Objective.MIN_TIME_TO_COVERAGE),
    ("mdp", "alpha", 0.5, 0.5, 0.8),
    ("mdp", "repair_model", "remaining_work", RepairModel.REMAINING_WORK,
     RepairModel.EXPONENTIAL),
    ("rollout", "n_mc_min", 16, 16, 32),
    ("rollout", "n_mc_max", 64, 64, 2048),
    ("rollout", "se_threshold", 0.1, 0.1, 0.05),
    ("rollout", "mode", "worst", RolloutMode.WORST_CASE, RolloutMode.MEAN),
    ("rollout", "action_cap", 7, 7, 500),
    ("cells[0]", "id", 5, 5, REQUIRED),
    ("cells[0]", "population", 100, 100, REQUIRED),
    ("cells[0]", "centroid", [1.0, 0.0], (1.0, 0.0), REQUIRED),
    ("cells[0]", "power_feed", 2, 2, REQUIRED),
    ("cells[0]", "water_feed", 4, 4, REQUIRED),
    ("retailers[0]", "id", 6, 6, REQUIRED),
    ("retailers[0]", "capacity", 10.0, 10.0, REQUIRED),
    ("retailers[0]", "centroid", [0.0, 1.0], (0.0, 1.0), REQUIRED),
    ("retailers[0]", "power_feed", 2, 2, REQUIRED),
    ("retailers[0]", "water_feed", 4, 4, REQUIRED),
]


def full_doc() -> dict:
    """minimal_doc with every RECORD_FIELDS key written out."""
    doc = minimal_doc()
    doc["rollout"] = {}
    for section, field, written, _, _ in RECORD_FIELDS:
        record_of(doc, section)[field] = written
    return doc


def record_of(doc: dict, section: str) -> dict:
    if section in ("mdp", "rollout"):
        return doc[section]
    return doc[section.removesuffix("[0]")][0]


def parsed_record(sc, section: str):
    return {
        "mdp": sc.mdp,
        "rollout": sc.rollout,
        "cells[0]": sc.community.cells[0],
        "retailers[0]": sc.community.retailers[0],
    }[section]


def record_id(row) -> str:
    return f"{row[0]}.{row[1]}"


def test_every_record_field_is_read():
    sc = parse_scenario(full_doc())
    for section, field, _, read, _ in RECORD_FIELDS:
        assert getattr(parsed_record(sc, section), field) == read, (section, field)


@pytest.mark.parametrize("row", RECORD_FIELDS, ids=record_id)
def test_omitted_record_field_takes_its_default(row):
    section, field, _, _, default = row
    doc = full_doc()
    del record_of(doc, section)[field]
    if default is REQUIRED:
        message = f"{section}.{field}: required field is missing"
        with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
            parse_scenario(doc)
        return
    sc = parse_scenario(doc)
    assert getattr(parsed_record(sc, section), field) == default
    # the other fields keep their written values
    for other_section, other, _, read, _ in RECORD_FIELDS:
        if (other_section, other) != (section, field):
            assert getattr(parsed_record(sc, other_section), other) == read


@pytest.mark.parametrize("value", ["x", True], ids=["string", "true"])
@pytest.mark.parametrize("row", RECORD_FIELDS, ids=record_id)
def test_wrongly_typed_record_field_names_its_path(row, value):
    section, field, _, _, _ = row
    doc = full_doc()
    record_of(doc, section)[field] = value
    with pytest.raises(ParseError, match="^" + re.escape(f"{section}.{field}: ")):
        parse_scenario(doc)


@pytest.mark.parametrize(
    "section, field, label, known",
    [
        ("mdp", "objective", "objective",
         "max_benefit_rate, min_time_to_coverage"),
        ("mdp", "repair_model", "repair model", "exponential, remaining_work"),
        ("rollout", "mode", "rollout mode", "mean, worst"),
    ],
)
def test_unknown_enum_value_lists_the_known_ones(section, field, label, known):
    doc = full_doc()
    record_of(doc, section)[field] = "x"
    message = f"{section}.{field}: unknown {label} 'x' (one of: {known})"
    with pytest.raises(ParseError, match="^" + re.escape(message) + "$"):
        parse_scenario(doc)


def test_negative_population_rejected():
    doc = full_doc()
    doc["cells"][0]["population"] = -1
    with pytest.raises(
        ParseError, match="^" + re.escape("cells[0].population: must be >= 0") + "$"
    ):
        parse_scenario(doc)


def test_invalid_yaml_reports_file(tmp_path):
    bad = tmp_path / "broken.yaml"
    bad.write_text("components: [unclosed\n", encoding="utf-8")
    with pytest.raises(ParseError, match="not valid YAML"):
        load_scenario(str(bad))


# --- command-line interface --------------------------------------------------


def test_plan_is_byte_identical_across_runs(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["plan", "--scenario", DEMO, "--seed", "3",
                     "--out", str(out)])
        assert code == 0
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    assert "summary_plan.txt" in names_a
    assert "curve_rollout_ep0.csv" in names_a
    for name in names_a:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_plan_base_policy_flag(tmp_path):
    code = main(["plan", "--scenario", DEMO, "--policy", "base",
                 "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "curve_base_ep0.csv").exists()
    assert (tmp_path / "trace_base.txt").exists()


def test_plan_mode_override(tmp_path):
    code = main(["plan", "--scenario", DEMO, "--mode", "worst",
                 "--out", str(tmp_path)])
    assert code == 0
    summary = (tmp_path / "summary_plan.txt").read_text(encoding="utf-8")
    assert "mode = worst" in summary


def test_curve_file_format(tmp_path):
    main(["plan", "--scenario", DEMO, "--out", str(tmp_path)])
    lines = (tmp_path / "curve_rollout_ep0.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert lines[0] == "time_days,benefitted_persons,epn_frac,wn_frac"
    assert all(len(line.split(",")) == 4 for line in lines[1:])
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times == sorted(times)
    assert times[0] == 0.0


@pytest.mark.parametrize("command", ["plan", "oracle-check"])
def test_zero_episodes_is_validation_error(command, capsys):
    assert main([command, "--scenario", DEMO, "--episodes", "0"]) == 1
    assert capsys.readouterr() == ("", "error: episodes must be >= 1\n")


@pytest.mark.parametrize("command", ["plan", "oracle-check"])
def test_missing_scenario_file_is_io_error(command, capsys, tmp_path):
    missing = tmp_path / "nope.yaml"
    assert main([command, "--scenario", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"
    )


def test_unwritable_out_dir_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(["plan", "--scenario", DEMO,
                 "--out", str(blocker / "sub")])
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["plan", "oracle-check"])
def test_malformed_scenario_is_validation_error(command, tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("components: []\n", encoding="utf-8")
    assert main([command, "--scenario", str(bad)]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}.components: expected a non-empty list\n"
    )


def _curves(*pairs: tuple[float, float]) -> dict:
    return {
        state: {"median": median, "beta": beta}
        for state, (median, beta) in zip(
            ("minor", "moderate", "extensive", "complete"), pairs
        )
    }


_INCREASING = _curves((0.2, 0.6), (0.4, 0.6), (0.8, 0.6), (1.6, 0.6))


def _set_fragility(im: float, curves: dict) -> Callable[[dict], None]:
    def mutate(doc: dict) -> None:
        doc["hazard"]["components"][1] = {"im": im, "curves": curves}
    return mutate


def _set_field(key: str, index: int, field: str, value) -> Callable[[dict], None]:
    def mutate(doc: dict) -> None:
        doc[key][index][field] = value
    return mutate


def _add_edge(supplier: int, dependent: int) -> Callable[[dict], None]:
    return lambda doc: doc["edges"].append([supplier, dependent])


def _zero_population(doc: dict) -> None:
    for cell in doc["cells"]:
        cell["population"] = 0


# one row per model check a scenario file can reach: (command, mutation of
# oracle_demo.yaml, the stderr line main prints)
BROKEN_SCENARIOS = {
    "cycle": ("sample-damage", _add_edge(7, 5),
              "dependency cycle through components [5, 6, 7]"),
    "cycle-with-dependents": ("sample-damage", _add_edge(4, 1),
                              "dependency cycle through components [1, 2, 4]"),
    "edge-to-unknown-id": (
        "sample-damage", _add_edge(1, 99),
        "dependency edge (1 -> 99) references unknown component 99"),
    "feed-to-unknown-id": (
        "sample-damage", _set_field("cells", 0, "power_feed", 99),
        "cell 1: feed references unknown component 99"),
    "feed-into-wrong-network": (
        "sample-damage", _set_field("retailers", 0, "water_feed", 3),
        "retailer 1: wn feed points at a epn component (3)"),
    "epn-on-wn": ("sample-damage", _add_edge(6, 4),
                  "EPN component 4 cannot depend on WN component 6"),
    "pipeline-on-epn": ("sample-damage", _add_edge(1, 7),
                        "pipeline 7 cannot depend directly on EPN component 1"),
    "zero-repair-days": (
        "sample-damage",
        lambda doc: doc["components"][6]["repair_days"].update(minor=0),
        "component 7: repair time for MINOR must be > 0"),
    "cell-on-retailer-centroid": (
        "sample-damage", _set_field("cells", 1, "centroid", [2.4, 0.3]),
        "cell 2 is co-located with retailer 1; offset one of the centroids"),
    "no-retailers": ("sample-damage", lambda doc: doc.update(retailers=[]),
                     "community has no retailers"),
    "non-positive-im": ("sample-damage", _set_fragility(0.0, _INCREASING),
                        "intensity measure must be > 0"),
    "medians-not-increasing": (
        "sample-damage",
        _set_fragility(0.5, _curves((0.4, 0.6), (0.4, 0.6), (0.8, 0.6), (1.6, 0.6))),
        "fragility medians must strictly increase with severity"),
    "curves-cross": (
        "sample-damage",
        _set_fragility(0.5, _curves((1.0, 0.1), (1.1, 2.0), (2.0, 0.6), (4.0, 0.6))),
        "exceedance probabilities increase with severity; curves cross"),
    "missing-hazard-entry": ("sample-damage", lambda doc: doc["hazard"].pop("default"),
                             "no hazard entry for components [3, 7]"),
    "zero-population": ("sample-damage", _zero_population,
                        "community population is zero"),
    "zero-population-rate": (
        "plan",
        lambda doc: (_zero_population(doc),
                     doc["mdp"].update(objective="max_benefit_rate")),
        "community population is zero"),
    "repair-days-decrease": (
        "sample-damage",
        lambda doc: doc["components"][6]["repair_days"].update(moderate=0.4),
        "component 7: repair times must not decrease with severity"),
    "zero-capacity": ("sample-damage", _set_field("retailers", 0, "capacity", 0.0),
                      "retailer 1: capacity must be > 0"),
    "zero-gravity-exponent": (
        "sample-damage", lambda doc: doc.update(gravity_exponent=0.0),
        "gravity_exponent must be > 0"),
    "zero-median": (
        "sample-damage",
        _set_fragility(0.5, _curves((0.0, 0.6), (0.4, 0.6), (0.8, 0.6), (1.6, 0.6))),
        "fragility median must be > 0"),
    "zero-beta": (
        "sample-damage",
        _set_fragility(0.5, _curves((0.2, 0.0), (0.4, 0.6), (0.8, 0.6), (1.6, 0.6))),
        "fragility dispersion must be > 0"),
    "pmf-negative-entry": (
        "sample-damage",
        lambda doc: doc["hazard"]["components"].update(
            {1: {"pmf": [1.1, -0.1, 0, 0, 0]}}),
        "damage pmf needs 5 nonnegative entries"),
    "gravity-weights-overflow": (
        "sample-damage", lambda doc: doc.update(gravity_exponent=5000),
        "cell 1: gravity weights overflow or underflow at gravity_exponent "
        "5000; lower it"),
    "gravity-weights-underflow": (
        "sample-damage",
        lambda doc: (doc.update(gravity_exponent=400),
                     doc["retailers"][0].update(centroid=[40, 40])),
        "cell 1: gravity weights overflow or underflow at gravity_exponent "
        "400; lower it"),
    "population-beyond-float-range": (
        "sample-damage", _set_field("cells", 1, "population", 10**400),
        "cells[1].population: must be <= 2**53"),
}


@pytest.mark.parametrize("row", list(BROKEN_SCENARIOS), ids=list(BROKEN_SCENARIOS))
def test_broken_scenario_exits_1_naming_its_fault(row, tmp_path, capsys):
    command, mutate, message = BROKEN_SCENARIOS[row]
    doc = yaml.safe_load(Path(DEMO).read_text(encoding="utf-8"))
    mutate(doc)
    broken = tmp_path / "broken.yaml"
    broken.write_text(yaml.safe_dump(doc), encoding="utf-8")
    code = main([command, "--scenario", str(broken), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# one row per repeated-key kind: (edit of oracle_demo.yaml's text, the key
# and its line as the error names them)
REPEATED_KEYS = {
    "top-level-section": (lambda text: text + "rollout:\n  mode: worst\n",
                          "'rollout' on line 57"),
    "mdp-n_e": (lambda text: text.replace("  n_e: 1\n", "  n_e: 1\n  n_e: 3\n"),
                "'n_e' on line 45"),
    "hazard-id": (lambda text: text.replace(
        "    1: {fixed: extensive}\n",
        "    1: {fixed: extensive}\n    1: {fixed: none}\n"), "1 on line 38"),
}


@pytest.mark.parametrize("row", list(REPEATED_KEYS), ids=list(REPEATED_KEYS))
def test_repeated_key_exits_1_naming_it(row, tmp_path, capsys):
    edit, where = REPEATED_KEYS[row]
    text = Path(DEMO).read_text(encoding="utf-8")
    repeated = tmp_path / "repeated.yaml"
    repeated.write_text(edit(text), encoding="utf-8")
    assert main(["sample-damage", "--scenario", str(repeated)]) == 1
    assert capsys.readouterr().err == (
        f"error: {repeated}: not valid YAML (repeated key {where})\n"
    )


def test_merged_key_may_be_overridden(tmp_path):
    text = Path(DEMO).read_text(encoding="utf-8")
    merged = tmp_path / "merged.yaml"
    merged.write_text(
        text.replace("mdp:\n  n_e: 1\n", "mdp:\n  <<: {n_e: 3}\n  n_e: 2\n"),
        encoding="utf-8",
    )
    assert load_scenario(str(merged)).mdp.n_e == 2


@pytest.mark.parametrize("command", ["sample-damage", "oracle-check"])
def test_negative_seed_exits_1(command, capsys):
    assert main([command, "--scenario", DEMO, "--seed", "-1"]) == 1
    assert capsys.readouterr().err == (
        "error: seed must fit in an unsigned 64-bit integer\n"
    )


def test_oracle_check_on_undamaged_scenario_exits_1(tmp_path, capsys):
    doc = yaml.safe_load(Path(DEMO).read_text(encoding="utf-8"))
    doc["hazard"]["components"] = {}
    undamaged = tmp_path / "undamaged.yaml"
    undamaged.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert main(["oracle-check", "--scenario", str(undamaged)]) == 1
    assert capsys.readouterr() == (
        "metric time_to_coverage_days\n"
        "episode 0 refused: initial state is already terminal\n",
        "error: initial state is already terminal\n",
    )
    argv = ["oracle-check", "--scenario", str(undamaged), "--episodes", "2"]
    assert main(argv) == 1
    assert capsys.readouterr() == (
        "metric time_to_coverage_days\n"
        "episode 0 refused: initial state is already terminal\n"
        "episode 1 refused: initial state is already terminal\n",
        "error: initial state is already terminal\n",
    )


def check_paired_lines(summary: str, minimize: bool) -> list[str]:
    """The four paired lines follow improvement_pct and agree with the
    per-episode lines, signed so that positive favours rollout; returns
    them."""
    lines = summary.splitlines()
    pairs = [
        (float(m.group(1)), float(m.group(2)))
        for m in (re.fullmatch(r"episode \d+ base (\S+) rollout (\S+)", line)
                  for line in lines)
        if m
    ]
    gains = [b - r if minimize else r - b for b, r in pairs]
    wins = sum(g > 1e-9 for g in gains)
    ties = sum(abs(g) <= 1e-9 for g in gains)
    assert lines[-5].startswith("improvement_pct = ")
    mean = re.fullmatch(r"paired_gain_mean = (\S+) stderr \S+", lines[-4])
    assert float(mean.group(1)) == pytest.approx(sum(gains) / len(gains), abs=1e-5)
    assert lines[-3].startswith("paired_t = ")
    assert lines[-2] == f"wins_ties_losses = {wins}/{ties}/{len(gains) - wins - ties}"
    assert lines[-1] == f"not_worse_frac = {(wins + ties) / len(gains):.6f}"
    return lines[-4:]


def test_compare_outputs(tmp_path, capsys):
    code = main(["compare", "--scenario", DEMO, "--episodes", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    for name in ("compare_summary.txt", "compare_retailers.csv",
                 "curve_base_ep0.csv", "curve_rollout_ep0.csv"):
        assert (tmp_path / name).exists(), name
    summary = (tmp_path / "compare_summary.txt").read_text(encoding="utf-8")
    assert "improvement_pct = " in summary
    assert "base_mean = " in summary
    _, _, wtl, _ = check_paired_lines(summary, minimize=True)
    assert sum(map(int, wtl.split(" = ")[1].split("/"))) == 2
    retailers = (tmp_path / "compare_retailers.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert retailers[0] == (
        "retailer_id,base_mean_recovery_days,rollout_mean_recovery_days"
    )
    assert "improvement" in capsys.readouterr().out


def _rate_copy(directory: Path) -> str:
    """mini_gilroy.yaml under the max_benefit_rate objective, written to
    directory; returns its path."""
    rate_copy = directory / "mini_gilroy_rate.yaml"
    rate_copy.write_text(
        Path(MINI).read_text().replace(
            "objective: min_time_to_coverage", "objective: max_benefit_rate"
        )
    )
    return str(rate_copy)


def test_compare_paired_lines_under_rate_objective(tmp_path, capsys):
    code = main(["compare", "--scenario", _rate_copy(tmp_path), "--episodes", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 0
    summary = (tmp_path / "out" / "compare_summary.txt").read_text(encoding="utf-8")
    assert "objective = max_benefit_rate" in summary
    check_paired_lines(summary, minimize=False)


def test_compare_single_episode_has_no_paired_t(tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", "--scenario", DEMO, "--episodes", "1",
                     "--out", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().err == ""
    summary = (tmp_path / "compare_summary.txt").read_text(encoding="utf-8")
    gain, t_line, _, _ = check_paired_lines(summary, minimize=True)
    assert gain.endswith(" stderr 0.000000")
    assert t_line == "paired_t = nan"


def test_oracle_check_refuses_too_many_damaged(tmp_path, capsys):
    # the damaged-count guard applies only with more than one crew in a
    # network; episode 0 of mini_gilroy has 11 damaged
    two_crews = tmp_path / "mini_gilroy_two_crews.yaml"
    two_crews.write_text(Path(MINI).read_text().replace("n_e: 1", "n_e: 2"))
    code = main(["oracle-check", "--scenario", str(two_crews)])
    assert code == 1
    assert capsys.readouterr() == (
        "metric time_to_coverage_days\n"
        "episode 0 refused: 11 damaged components exceed the oracle bound 8\n",
        "error: 11 damaged components exceed the oracle bound 8\n",
    )


# stands for the path of _rate_copy in an ORACLE_CHECK_OUTPUTS case or a
# golden case
RATE_MINI = "<mini_gilroy under max_benefit_rate>"

# (arguments after the command, the oracle's state bound, stdout)
ORACLE_CHECK_OUTPUTS = {
    # one episode prints the same report as several
    "oracle_demo": ([DEMO], 100_000, """\
metric time_to_coverage_days
episode 0 oracle_optimum 8.500000 rollout 8.500000 gap_pct 0.000000
gap_pct mean 0.000000 median 0.000000 max 0.000000
exact_episodes 1
refused_episodes 0
PASS (tolerance 5.000000%)
"""),
    "mini_gilroy": ([MINI], 100_000, """\
metric time_to_coverage_days
episode 0 oracle_optimum 13.200000 rollout 13.200000 gap_pct 0.000000
gap_pct mean 0.000000 median 0.000000 max 0.000000
exact_episodes 1
refused_episodes 0
PASS (tolerance 5.000000%)
"""),
    "oracle_demo-3-episodes": ([DEMO, "--episodes", "3"], 100_000, """\
metric time_to_coverage_days
episode 0 oracle_optimum 8.500000 rollout 8.500000 gap_pct 0.000000
episode 1 oracle_optimum 8.500000 rollout 8.500000 gap_pct 0.000000
episode 2 oracle_optimum 8.500000 rollout 8.500000 gap_pct 0.000000
gap_pct mean 0.000000 median 0.000000 max 0.000000
exact_episodes 3
refused_episodes 0
PASS (tolerance 5.000000%)
"""),
    # the verdict reads the worst gap; a FAIL verdict still exits 0
    "mini_gilroy-3-episodes": ([MINI, "--episodes", "3"], 100_000, """\
metric time_to_coverage_days
episode 0 oracle_optimum 13.200000 rollout 13.200000 gap_pct 0.000000
episode 1 oracle_optimum 11.000000 rollout 11.700000 gap_pct 6.363636
episode 2 oracle_optimum 12.000000 rollout 12.000000 gap_pct 0.000000
gap_pct mean 2.121212 median 0.000000 max 6.363636
exact_episodes 2
refused_episodes 0
FAIL (tolerance 5.000000%)
"""),
    # episode 0 takes 1,240 DP states, episodes 1 and 2 over 8,000; the
    # refused ones are left out of the summary
    "mini_gilroy-refusals": ([MINI, "--episodes", "3"], 5000, """\
metric time_to_coverage_days
episode 0 oracle_optimum 13.200000 rollout 13.200000 gap_pct 0.000000
episode 1 refused: more than 5000 remaining-work states; the instance exceeds the oracle bound
episode 2 refused: more than 5000 remaining-work states; the instance exceeds the oracle bound
gap_pct mean 0.000000 median 0.000000 max 0.000000
exact_episodes 1
refused_episodes 2
PASS (tolerance 5.000000%)
"""),
    # the rate objective runs the oracle's Dinkelbach iteration
    "mini_gilroy-rate-3-episodes": ([RATE_MINI, "--episodes", "3"], 100_000, """\
metric persons_per_day
episode 0 oracle_optimum 22359.711263 rollout 1135.977085 gap_pct 94.919536
episode 1 oracle_optimum 10648.884892 rollout 968.440896 gap_pct 90.905706
episode 2 oracle_optimum 13353.802238 rollout 5654.535369 gap_pct 57.655990
gap_pct mean 81.160411 median 90.905706 max 94.919536
exact_episodes 0
refused_episodes 0
FAIL (tolerance 5.000000%)
"""),
}


@pytest.mark.parametrize("case", list(ORACLE_CHECK_OUTPUTS))
def test_oracle_check_output(case, monkeypatch, capsys, tmp_path):
    args, max_states, expected = ORACLE_CHECK_OUTPUTS[case]
    args = [_rate_copy(tmp_path) if a == RATE_MINI else a for a in args]
    monkeypatch.setattr(planner_module, "_ORACLE_MAX_STATES", max_states)
    assert main(["oracle-check", "--scenario", *args]) == 0
    assert capsys.readouterr() == (expected, "")


def test_config_lines_write_every_config_field():
    @dataclass(frozen=True)
    class ExtendedRollout(RolloutConfig):
        beta: float = 0.5

    scenario = load_scenario(MINI)
    lines = _config_lines(scenario, 3, 2, ExtendedRollout())
    assert lines[:3] == ["scenario = mini-gilroy", "seed = 3", "episodes = 2"]
    assert lines[-2:] == ["action_cap = 500", "beta = 0.500000"]
    assert len(lines) == 3 + 6 + 6


def test_sample_damage_csv_and_stdout(tmp_path, capsys):
    code = main(["sample-damage", "--scenario", DEMO, "--episodes", "2",
                 "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "ep 0:" in out and "ep 1:" in out
    rows = (tmp_path / "damage_samples.csv").read_text(
        encoding="utf-8"
    ).splitlines()
    assert rows[0] == "episode,component_id,damage_state"
    # the demo hazard is fixed, so the draw is the same every episode
    assert "0,1,extensive" in rows
    assert "1,1,extensive" in rows
    assert len(rows) == 1 + 2 * 7


def test_sample_damage_without_out_writes_nothing(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["sample-damage", "--scenario", DEMO])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_fmt_keeps_the_sign_of_infinity():
    assert _fmt(-math.inf) == "-inf"
    assert _fmt(math.inf) == "inf"
    assert _fmt(math.nan) == "nan"
    assert _fmt(-1.5) == "-1.500000"
