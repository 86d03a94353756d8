from __future__ import annotations

import json

import pytest

from berrykit.demos import Claim, DemoReport, replay_demo, run_demo
from berrykit.errors import InputError

ALL = (1, 2, 3, 4, 5)


@pytest.fixture(scope="module")
def reports():
    return {k: run_demo(k) for k in ALL}


class TestBuild:
    def test_every_demo_builds(self, reports):
        for k in ALL:
            rpt = reports[k]
            assert rpt.corollary == k
            assert rpt.claims

    def test_claim_statuses_are_partitioned(self, reports):
        for rpt in reports.values():
            for c in rpt.claims:
                match c.status:
                    case "checked":
                        assert c.evidence is not None and c.citation is None
                    case "asserted":
                        assert c.citation is not None and c.evidence is None
                    case other:
                        pytest.fail(f"unexpected status {other!r}")

    def test_each_demo_asserts_at_least_once(self, reports):
        # the unfeasible leg of each illustration is labeled, not hidden
        for rpt in reports.values():
            assert any(c.status == "asserted" for c in rpt.claims)

    def test_each_demo_checks_at_least_once(self, reports):
        for rpt in reports.values():
            assert any(c.status == "checked" for c in rpt.claims)

    def test_titles_distinct(self, reports):
        titles = [r.title for r in reports.values()]
        assert len(set(titles)) == len(titles)

    def test_json_round_trip(self, reports):
        for rpt in reports.values():
            obj = rpt.to_json_obj()
            assert obj["v"] == 1
            assert obj["params"] == {
                "backend": rpt.backend,
                "budget": rpt.budget,
                "scale": rpt.scale,
            }
            json.loads(json.dumps(obj))


class TestReplay:
    @pytest.mark.parametrize("k", ALL)
    def test_fresh_report_replays_clean(self, k, reports):
        ok, mismatches = replay_demo(reports[k].to_json_obj())
        assert ok and mismatches == []

    def test_tampered_evidence_detected(self, reports):
        obj = json.loads(json.dumps(reports[1].to_json_obj()))
        for c in obj["claims"]:
            if c["status"] == "checked":
                c["evidence"] = {"forged": True}
                break
        ok, mismatches = replay_demo(obj)
        assert not ok and mismatches

    def test_tampered_summary_detected(self, reports):
        obj = json.loads(json.dumps(reports[2].to_json_obj()))
        obj["summary"] = obj["summary"] + " and then some"
        ok, mismatches = replay_demo(obj)
        assert not ok

    def test_tampered_statement_detected(self, reports):
        obj = json.loads(json.dumps(reports[4].to_json_obj()))
        obj["claims"][0]["statement"] = "something else entirely"
        ok, _ = replay_demo(obj)
        assert not ok

    def test_replay_respects_stored_params(self, reports):
        small = run_demo(1, scale=5)
        ok, mismatches = replay_demo(small.to_json_obj())
        assert ok, mismatches


class TestValidation:
    def test_unknown_corollary(self):
        with pytest.raises(InputError):
            run_demo(6)

    def test_scale_cap(self):
        with pytest.raises(InputError) as err:
            run_demo(1, scale=9)
        assert str(err.value) == (
            "scale 9 is past the feasibility cap; the fragment explodes"
            " combinatorially, stay at 8 or below"
        )

    def test_bad_backend(self):
        with pytest.raises(InputError, match="^unknown backend 'guesswork'$"):
            run_demo(1, backend="guesswork")
