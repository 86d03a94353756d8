"""Output identity: each report command of ``tests/digest.py`` still
prints what it printed when its hash was recorded, and the lemma-bank
derivations that no report or digest part reaches still read as recorded.

A command's output is its exit code, stdout and stderr, hashed as the
digest hashes them, so a failure names the first command whose output
moved; the combined hashes are the digest's ``berry`` and ``demo`` lines.
"""

from __future__ import annotations

import hashlib

from berrykit.generators import (
    LemmaBank, prove_le_numerals, prove_least_unique, prove_ne_numerals,
    prove_order_totality, prove_sigma, refute_delta0,
)
from berrykit.proofs import to_json_lines
from berrykit.syntax import BExists, BForall, Eq, Le, Not, Var, numeral
from digest import REPORT_COMMANDS, _cli

# each command after the shared settings, with the sha256 of its output
RECORDED = {
    "berry --max-len 4 --backend semantic":
        "df7a77c1941dc410380703ecaf31fafb6ea8a6ec703dd6da16b31c26974801d7",
    "berry --max-len 5 --backend semantic":
        "2234ddd8dd56406d448dbeda8847424e3edbc692f470f9899a3e143c7fd00006",
    "berry --max-len 6 --backend semantic":
        "f96a9b9e9d1937c27973d5b868bdb3bb75f3339df70a95834895d4741a962507",
    "berry --max-len 7 --backend semantic":
        "5a5da244076cf4f772955f11f29b79fbcc6bca6e155f82f28edbf493016afd47",
    "berry --max-len 4 --backend prover":
        "0a3da234a7a52e2b778bce9d1824d61788dd4453f181a1b89b11289c1b1c8f09",
    "berry --max-len 5 --backend prover":
        "8b3ae5f7c0c4d09d3faaaabbe3e0c6c48a0801cfd2aa94c6871d765c134730c9",
    "berry --max-len 6 --backend prover":
        "3460ee4df12eb8a0c54a0d483096a5a1d53c1b655b7feb294a25c2e5c183cb8c",
    "berry --max-len 7 --backend prover":
        "8bf21729cdecf46ce458a8777b878d9f9897b33b760c8b4598b0fc59be8db9c9",
    "demo 1 --backend semantic --scale 6":
        "c9c59c036cf28b77fa1067a25d59e401643f479bdb0e6948bcac3970e8960ac3",
    "demo 2 --backend semantic --scale 6":
        "557b52e755a826a93da6cd1fb12543fecd850cc75fdf0ca7326b41484dc3d174",
    "demo 3 --backend semantic --scale 6":
        "666f8259ee215bd651284194a9c8800d9bd3f9716db678508d6b95e5326ace06",
    "demo 4 --backend semantic --scale 6":
        "959d4f38439190820388cbd5eb0f3096f15edfd106554bb8d5f85f10ef65395a",
    "demo 5 --backend semantic --scale 6":
        "bd4786de63bb12dd7befcac884dd178348dccf6713a9cf3966df95267e78bb7b",
    "demo 1 --backend prover --scale 6":
        "58113d9df38c7d4338d286452f5951f5f8bdbaf3c9a542ba899c4a0d3e4a594e",
    "demo 2 --backend prover --scale 6":
        "994eb93ebd29aa0b5f7e2fdb5ec10ecd4d3079839ea789bf96c3f6b865df994e",
    "demo 3 --backend prover --scale 6":
        "fcfdb2281a1bb92d4b872607d652f532cfe7af987422b1238f2bcc9bcb055914",
    "demo 4 --backend prover --scale 6":
        "2e694d60ab978f32cce9eda8953cd9d3def1bfe4ca01b4599f06beb3e610162f",
    "demo 5 --backend prover --scale 6":
        "5eb2155ca5ba3e6527ecbcee0dbbd14b685e91bc8be6a2c205e2f6aa2cc0105a",
}
COMBINED = {
    "berry": "1dd4ec744c7c511c95875e2ba6acca2e8d766fa1398816243be19bab2c3fc9fb",
    "demo": "6b6ce4d0720e57862f9269dcf0f27d8cddf31a30c3e3866cf5fa9fe37c21efc6",
}


def test_report_commands_print_their_recorded_output():
    combined = {part: hashlib.sha256() for part in COMBINED}
    moved = []
    for part, argv in REPORT_COMMANDS:
        out = _cli(argv)
        combined[part].update(out)
        command = " ".join(argv[argv.index(part):])
        if hashlib.sha256(out).hexdigest() != RECORDED[command]:
            moved.append(command)
    assert not moved, f"first moved: {moved[0]} ({len(moved)} of {len(RECORDED)} moved)"
    assert len(REPORT_COMMANDS) == len(RECORDED)
    assert {part: h.hexdigest() for part, h in combined.items()} == COMBINED


# the derivations below, in order, as their JSON lines each followed by "\n"
BANK_STEPS = 25187
BANK_SHA256 = "caa6148ecec449cdf6e6bfc3a1ad404b416ee26ca531f95271acd6561e977f8a"


def test_bank_derivations_read_as_recorded():
    """ne, le, nle, tot, l5, g1 and leib's Exists case, through the public
    builders with one bank at budget 16."""
    bank, n = LemmaBank(), range(4)
    mus = [Eq(Var(0), numeral(2)), Le(Var(0), numeral(1)), Not(Eq(Var(0), Var(0)))]
    derivations = [
        *(prove_ne_numerals(i, j, bank) for i in n for j in n if i != j),
        *(prove_le_numerals(i, j, bank) for i in n for j in n if i <= j),
        *(refute_delta0(Le(numeral(i), numeral(j)), 16, bank) for i in n for j in n if i > j),
        *(prove_order_totality(k, bank) for k in range(5)),
        *(prove_least_unique(mu, i, bank) for mu in mus for i in range(3)),
        prove_sigma(BForall(1, numeral(3), BExists(2, numeral(4), Eq(Var(2), Var(1)))), 16, bank),
        refute_delta0(BExists(1, numeral(3), Eq(Var(1), numeral(5))), 16, bank),
    ]
    h = hashlib.sha256()
    for d in derivations:
        for line in to_json_lines(d):
            h.update((line + "\n").encode())
    assert sum(len(d.steps) for d in derivations) == BANK_STEPS
    assert h.hexdigest() == BANK_SHA256
