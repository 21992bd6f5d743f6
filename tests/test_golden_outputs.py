"""Golden outputs: the sha256 of stdout and of every file each CLI command
writes on the bundled scenarios.

Refactors must keep these bytes.  A digest may change only together with
a CHANGES.md entry that names the output change and gives its reason.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

import recovery_rollout
from recovery_rollout.cli import main

from test_scenario_cli import RATE_MINI, _rate_copy

DATA = Path(recovery_rollout.__file__).parent / "data"
MINI = str(DATA / "mini_gilroy.yaml")
DEMO = str(DATA / "oracle_demo.yaml")

# (case id, argv without --out, writes files?, {output name: sha256})
CASES = [
    (
        "plan-mini",
        ["plan", "--scenario", MINI, "--episodes", "2"],
        True,
        {
            "stdout": "4e2b0d5be354d5756ddb991e30e5838145754defcef3c5b0ab2e6c7f414e39be",
            "curve_rollout_ep0.csv": "9adfc1680563aa8164cb0459b35843ea8c38794e17b9529580c1af9ee11ab00c",
            "curve_rollout_ep1.csv": "64c5185d88f21f0db0c597a910fd8eb909184bee0bf9f078ff48a368ba2bdc35",
            "summary_plan.txt": "fc53f946d05ab1f91c9d98c6f84e078ebcd6b05fc6296adca215abc9c1fac558",
            "trace_rollout.txt": "24a5648483636556975c08ed57449d4319b87421386d65b9084b517b27afe227",
        },
    ),
    (
        "compare-mini-mean",
        ["compare", "--scenario", MINI, "--episodes", "2", "--mode", "mean"],
        True,
        {
            "stdout": "f5fa9118e1c1ca8e81b0f20b12d9b8b37f8758373c0257251744adc4b98ee730",
            "compare_retailers.csv": "89e4236a4880a4b3ea0e1fdcc1a91df0dc877526fdd3c7de2dbb13f1dbdb96be",
            "compare_summary.txt": "b68351825a85ecef53d3584e2c53062bd54857ee5e73996f548d97c1cd6a37dd",
            "curve_base_ep0.csv": "3438e23cd3ef561405e20b094dbe72614f76b27c6c735ecf1267b59a4e8236e0",
            "curve_rollout_ep0.csv": "9adfc1680563aa8164cb0459b35843ea8c38794e17b9529580c1af9ee11ab00c",
        },
    ),
    (
        "compare-mini-worst",
        ["compare", "--scenario", MINI, "--episodes", "2", "--mode", "worst"],
        True,
        {
            "stdout": "ea7bd9792a8f286693738e9da1f1ac0bae4241cb485d9d261ecb7693c7c78b4d",
            "compare_retailers.csv": "d37a4366aa6143f033eb10e8cc4bba2298e6d2160c44a1b9fb69c89e06161125",
            "compare_summary.txt": "e23e49a3aa1631fd7e5c33d7e74128510fc523675bc6e1eaffbe7b4cde028a25",
            "curve_base_ep0.csv": "3438e23cd3ef561405e20b094dbe72614f76b27c6c735ecf1267b59a4e8236e0",
            "curve_rollout_ep0.csv": "64a279d85bad1fda1d3b6ce000ceca2b2b5e1ffa16c7c932538fe522bed2d0cf",
        },
    ),
    (
        # the reward is B/elapsed in both the step and the continuation
        "compare-mini-rate",
        ["compare", "--scenario", RATE_MINI, "--episodes", "2"],
        True,
        {
            "stdout": "a9489f78ea065467d70f4f8d1308696fe24e7ce35ef76eff34ab12308d652fe8",
            "compare_retailers.csv": "beeddce793b4e83add99fbb8ad671a6d455dd591ee604bd0cbfb6a8ddb358d1c",
            "compare_summary.txt": "02071d6670fed996fee7587b0540a23fad0afa9c19322765b1508226c370eadb",
            "curve_base_ep0.csv": "3438e23cd3ef561405e20b094dbe72614f76b27c6c735ecf1267b59a4e8236e0",
            "curve_rollout_ep0.csv": "2eb8e66bf64673924641a3e3f67675be0da7b6a1ee0aee92da50d05757dbb697",
        },
    ),
    (
        "sample-damage-mini",
        ["sample-damage", "--scenario", MINI, "--episodes", "5"],
        True,
        {
            "stdout": "4dac8dd4abe2ef95f9c04a709cbc584f124dc36315ba7f7bf2f822d73c1de6ca",
            "damage_samples.csv": "720f573c05c370d04cfcf5d3d9e3168c9c1b35de1ff2c706e9c90dd6c3dc3055",
        },
    ),
    (
        "plan-demo",
        ["plan", "--scenario", DEMO],
        True,
        {
            "stdout": "ede0481b9d2b5fc11311b785d0114f9c8d0fb769f1b72aa7abd20e8e5cf5751f",
            "curve_rollout_ep0.csv": "e273ed8de65966c6de1734f03785bdca67a47c0f517be7aaddbded642c8a03aa",
            "summary_plan.txt": "dc3c753579edda8ae3e9e1560deeb0450b57b19b0eff893edbefdc61e624e724",
            "trace_rollout.txt": "96d722e84d6c20618dc1a7c13fb6765e2882b5eb16f3ad352d4dd095d73ac482",
        },
    ),
    (
        # the remaining-work repair model
        "compare-demo",
        ["compare", "--scenario", DEMO, "--episodes", "2"],
        True,
        {
            "stdout": "4c139020979c17e76ee5021a9de6b653a52845ed7fe927a3729ad33b0f35dadc",
            "compare_retailers.csv": "ef13a18a35390ac4c44f0a8137cf7ca9a9dc9c4f1ffbd2866b153b26f9bdc898",
            "compare_summary.txt": "596debea2831a6c3c105d26deae16316f239bde4029639ba8e011ee6bbb00404",
            "curve_base_ep0.csv": "e273ed8de65966c6de1734f03785bdca67a47c0f517be7aaddbded642c8a03aa",
            "curve_rollout_ep0.csv": "e273ed8de65966c6de1734f03785bdca67a47c0f517be7aaddbded642c8a03aa",
        },
    ),
    (
        "oracle-check-demo",
        ["oracle-check", "--scenario", DEMO],
        False,
        {
            "stdout": "7f7d42505f3797848f127d239f13aea3f12992c010710f2473e77f4dc7414c84",
        },
    ),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv: list[str], writes_files: bool, out: Path, capsys) -> dict:
    """Run one CLI command; return the sha256 of stdout and of every file
    it wrote, keyed by file name."""
    if writes_files:
        argv = argv + ["--out", str(out)]
    assert main(argv) == 0
    digests = {"stdout": _sha(capsys.readouterr().out.encode("utf-8"))}
    if writes_files:
        for path in sorted(out.iterdir()):
            digests[path.name] = _sha(path.read_bytes())
    return digests


@pytest.mark.parametrize(
    "argv, writes_files, expected",
    [pytest.param(argv, w, exp, id=name) for name, argv, w, exp in CASES],
)
def test_cli_outputs_match_golden_digests(argv, writes_files, expected, tmp_path, capsys):
    argv = [_rate_copy(tmp_path) if a == RATE_MINI else a for a in argv]
    assert run_digests(argv, writes_files, tmp_path / "out", capsys) == expected
