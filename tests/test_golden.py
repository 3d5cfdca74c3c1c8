"""Pinned digests of whole outputs, so a refactor that must leave them
byte-identical is checked by the suite rather than by hand.

Each digest is the sha256 of a canonical JSON text: a simulate report
with all three checks on, a six-node exact-code verification report,
the six-node code's JSON form with its rule table, and H's members with
their witnesses.  A digest that moves means an
output moved; if the change is intended, the new digest goes in with
the reason for the change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from lrrc.cli_sim import SimConfig, simulate
from lrrc.exact6321 import build_exact_code, code_to_dict, verify_exact_code
from lrrc.mfhs import h_enumerate, params_new


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SIMULATIONS = {
    ((6, 3, 2, 1), "auto", 3, 12):
        "47c6af2b9e63e5254ce96eaf1597c28e8a234a9f2fddd01c0fdc53df8db6f9a4",
    ((4, 2, 1, 1), "auto", 3, 8):
        "785796457c6b34224aac3e6c0d9484fbf28000d6c448458597eff5ff8595d9ed",
    ((4, 2, 1, 1), 3, 1, 8):
        "a7c8dc44e6b07e6b0c32912f3b27c48db9d52c10e66fd93585a2ff268db90e37",
    # the points above have M <= 4, where the sweeps run unsplit; these
    # split theirs; at GF(307) more than half the attempts are rejected,
    # and the (10,6,3,2) sweeps take several chunks
    ((6, 4, 3, 1), "auto", 3, 12):
        "1fb5088298554f4a9eb37b144a44af7152dfda8e735a290b4f26248eec2986d9",
    ((6, 4, 3, 1), 307, 1, 12):
        "d2c1ad9bfe908fb83219be7cd46485a4354e1793edd9e3bbae2f1a2843826096",
    ((10, 6, 3, 2), "auto", 3, 2):
        "31ec0e32d941f530b62b5349a62ff6360ae5ce78762081dbb2736205312014de",
}


@pytest.mark.parametrize("case", sorted(SIMULATIONS, key=str),
                         ids=lambda c: "-".join(map(str, c[0])) + f"-q{c[1]}-seed{c[2]}-rounds{c[3]}")
def test_simulate_report_digest(case):
    nkdr, q, seed, rounds = case
    report = simulate(SimConfig(params=params_new(*nkdr), q=q, seed=seed, rounds=rounds,
                                check_invariant=True, check_reconstruction=True,
                                check_witness=True))
    assert report.passed
    assert digest(report.canonical_json()) == SIMULATIONS[case]


EXACT_REPORTS = {
    7: "2622894e0f579b90d3420365952947f2d597afcc9aeab693f956672de19ea027",
    11: "ee550b9ecd32548c86fcae47bf6093fb5b9437ecd48f541b86ba8a1e66fe4455",
    # the int32 tier's last prime, the int64 tier's first, and a prime
    # above 2^31, whose residues are Python ints
    32749: "6233ecf0129922fc7f6aa9017ba8f5ee629a62959935939f3f6540367e38da28",
    32771: "ba12282ac5b778aaa1b90719e483c5c8653902c13affbdf4193bef71000a2705",
    2147483659: "fb034bcb62508bc57a4abb60983f533e18a4ddab3c6071ea7738b3f6f96eac55",
}


@pytest.mark.parametrize("q", sorted(EXACT_REPORTS))
def test_exact_code_report_digest(q):
    report = verify_exact_code(build_exact_code(q))
    assert report.passed
    assert digest(json.dumps(report.to_dict(), sort_keys=True)) == EXACT_REPORTS[q]


# code_to_dict spells out the 30 repair rules, whose send pairs
# repair_rule reads from the code's entries, so these pin that read
EXACT_CODES = {
    7: "cd50e3990d8d664dc1303b7d593d0fe6a5f77c7c1a9bc6b1547d020b4c887958",
    11: "540eae3a9f0c3211d08f96f65974ffc02bd1246e3dfd0adfafe42c43cb4a6a43",
    32771: "e0f5bf0ebb75dee16bd3dd7c31972fc1a745e19963a0665a93722d0aadc23493",
    2147483659: "a6b6eb7aa73a32a00d2df5d69cb4f7f85e0a0e2384f9e82295d3a4a735209af8",
}


@pytest.mark.parametrize("q", sorted(EXACT_CODES))
def test_exact_code_rule_table_digest(q):
    text = json.dumps(code_to_dict(build_exact_code(q)), sort_keys=True)
    assert digest(text) == EXACT_CODES[q]


def test_h_members_and_witnesses_digest():
    hset = h_enumerate(params_new(6, 4, 3, 1))
    text = json.dumps({"members": hset.members, "witnesses": hset.witnesses})
    assert digest(text) == "044aef47f1971179c27c69801335e4ac7ba27c53af0c96f1d36810ee1d2e3b7c"
