"""Scenario parsing and the command-line entry points."""

from __future__ import annotations

import math
import re
import warnings
from pathlib import Path

import pytest

import recovery_rollout
from recovery_rollout.cli import _fmt, main
from recovery_rollout.community import ComponentClass
from recovery_rollout.errors import DanglingFeedReference, ParseError
from recovery_rollout.mdp import Objective, RepairModel
from recovery_rollout.planner import RolloutMode
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
    assert parse_scenario(doc).community.any_supplier_flags[1] is True


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
    with pytest.raises(DanglingFeedReference):
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
    # other unknown rollout keys stay ignored
    doc["rollout"] = {"lookahead_note": 5}
    assert parse_scenario(doc).rollout.n_mc_min == 32


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


def test_zero_episodes_is_validation_error(capsys, tmp_path):
    code = main(["plan", "--scenario", DEMO, "--episodes", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_missing_scenario_file_is_io_error(capsys, tmp_path):
    code = main(["plan", "--scenario", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def test_unwritable_out_dir_is_io_error(tmp_path, capsys):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(["plan", "--scenario", DEMO,
                 "--out", str(blocker / "sub")])
    assert code == 2
    assert "i/o error:" in capsys.readouterr().err


def test_malformed_scenario_is_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("components: []\n", encoding="utf-8")
    code = main(["plan", "--scenario", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_compare_paired_lines_under_rate_objective(tmp_path, capsys):
    rate_copy = tmp_path / "mini_gilroy_rate.yaml"
    rate_copy.write_text(
        Path(MINI).read_text().replace(
            "objective: min_time_to_coverage", "objective: max_benefit_rate"
        )
    )
    code = main(["compare", "--scenario", str(rate_copy), "--episodes", "2",
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


def test_oracle_check_passes_on_demo(capsys):
    code = main(["oracle-check", "--scenario", DEMO])
    assert code == 0
    out = capsys.readouterr().out
    assert "oracle_optimum" in out
    assert "gap_pct" in out
    assert "PASS" in out


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
