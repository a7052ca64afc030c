"""Unit tests for the tidy record schema of the analysis subsystem."""

import pytest

from repro.analysis.records import (
    AnalysisRecord,
    OUTCOMES,
    experiment_records,
    outcome_counts,
    record_from_entry,
    workload_records,
)


def make_entry(**findings_overrides):
    findings = {
        "workload": "dsc",
        "algorithm": "algorithm1",
        "order": "adversarial",
        "n": 96,
        "m": 24,
        "opt_guess": 4,
        "solution_size": 8,
        "feasible": True,
        "passes": 3,
        "peak_space_words": 300,
        "final_space_words": 120,
        "dominant_category": "stored_incidences",
        "peak_by_category": {"stored_incidences": 250, "solution": 50},
        "stored_incidences_peak": 250,
        "space_budget": None,
        "budget_exceeded": False,
        "instance_uncoverable": False,
    }
    findings.update(findings_overrides)
    return {
        "format": 1,
        "fingerprint": "f" * 64,
        "key": "ADV[algorithm=algorithm1,order=adversarial,workload=dsc]",
        "task": {
            "runner": "WL",
            "seed": 20170517,
            "params": [["algorithm", "algorithm1"], ["workload", "dsc"]],
        },
        "result": {
            "experiment_id": "WL",
            "title": "dsc workload",
            "table": {
                "headers": ["workload", "n", "m", "dominant_category"],
                "rows": [["dsc", 96, 24, "stored_incidences"]],
                "title": "WL",
            },
            "findings": findings,
        },
    }


class TestRecordFromEntry:
    def test_identity_fields(self):
        record = record_from_entry(make_entry())
        assert record.runner == "WL"
        assert record.seed == 20170517
        assert record.fingerprint == "f" * 64
        assert record.params == (("algorithm", "algorithm1"), ("workload", "dsc"))

    def test_workload_axes_and_metrics(self):
        record = record_from_entry(make_entry())
        assert record.workload == "dsc"
        assert record.algorithm == "algorithm1"
        assert record.universe_size == 96
        assert record.num_sets == 24
        assert record.passes == 3
        assert record.peak_space_words == 300
        assert record.final_space_words == 120
        assert record.dominant_category == "stored_incidences"

    def test_is_workload(self):
        assert record_from_entry(make_entry()).is_workload

    def test_approx_ratio_uses_opt_guess(self):
        record = record_from_entry(make_entry())
        assert record.approx_ratio == pytest.approx(2.0)
        assert not record.opt_is_planted

    def test_planted_opt_preferred_over_guess(self):
        record = record_from_entry(make_entry(planted_opt=2))
        assert record.opt_bound == 2
        assert record.opt_is_planted
        assert record.approx_ratio == pytest.approx(4.0)

    def test_infeasible_solution_has_no_ratio(self):
        record = record_from_entry(make_entry(feasible=False))
        assert record.approx_ratio is None

    def test_missing_solution_has_no_ratio(self):
        record = record_from_entry(make_entry(solution_size=None))
        assert record.approx_ratio is None

    def test_outcome_priority(self):
        assert record_from_entry(make_entry()).outcome == "ok"
        assert record_from_entry(make_entry(feasible=False)).outcome == "infeasible"
        assert (
            record_from_entry(make_entry(instance_uncoverable=True)).outcome
            == "uncoverable"
        )
        assert (
            record_from_entry(
                make_entry(budget_exceeded=True, instance_uncoverable=True)
            ).outcome
            == "budget_exceeded"
        )

    def test_pre_space_fields_entries_fall_back_to_table(self):
        entry = make_entry()
        for key in ("n", "m", "dominant_category", "final_space_words"):
            del entry["result"]["findings"][key]
        record = record_from_entry(entry)
        assert record.universe_size == 96
        assert record.num_sets == 24
        assert record.dominant_category == "stored_incidences"
        assert record.final_space_words is None

    def test_dash_dominant_category_reads_as_none(self):
        record = record_from_entry(make_entry(dominant_category=None))
        # falls back to the table value; force the dash through the table too
        entry = make_entry(dominant_category=None)
        entry["result"]["table"]["rows"][0][3] = "-"
        assert record_from_entry(entry).dominant_category is None
        assert record.dominant_category == "stored_incidences"

    def test_non_workload_entry_keeps_payload_only(self):
        entry = make_entry()
        entry["result"]["findings"] = {"exponent": 0.5}
        entry["task"]["runner"] = "E1"
        record = record_from_entry(entry)
        assert not record.is_workload
        assert record.approx_ratio is None
        assert record.findings == {"exponent": 0.5}
        assert record.table["headers"]

    def test_tolerates_minimal_entry(self):
        record = record_from_entry({"fingerprint": "a", "key": "x"})
        assert record.key == "x"
        assert record.outcome == "ok"
        assert not record.is_workload


class TestHelpers:
    def test_partitions(self):
        records = [
            record_from_entry(make_entry()),
            record_from_entry({"fingerprint": "a", "key": "E1"}),
        ]
        assert len(workload_records(records)) == 1
        assert len(experiment_records(records)) == 1

    def test_outcome_counts_cover_all_buckets(self):
        counts = outcome_counts([record_from_entry(make_entry())])
        assert set(counts) == set(OUTCOMES)
        assert counts["ok"] == 1

    def test_record_is_frozen(self):
        record = record_from_entry(make_entry())
        with pytest.raises(AttributeError):
            record.key = "other"


class TestBooleanHygiene:
    def test_bool_findings_never_parse_as_ints(self):
        record = record_from_entry(make_entry(passes=True))
        assert record.passes is None

    def test_non_bool_feasible_reads_as_unknown(self):
        record = record_from_entry(make_entry(feasible="yes"))
        assert record.feasible is None
        assert record.outcome == "ok"
