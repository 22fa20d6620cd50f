"""Witness serialization: round trips, canonical bytes, format errors."""

import pytest

from repro.explore.registry import child_seed
from repro.explore.serialize import (
    FORMAT_VERSION,
    DivergenceRecord,
    WitnessFormatError,
    case_to_document,
    divergence_of,
    document_to_case,
    dumps,
    loads,
    pinned_signatures_of,
)
from repro.relational.domain import NULL, is_null
from repro.workloads import random_scenario


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [0, 1, 7, 23, child_seed(0, 5)])
    def test_document_round_trip_is_byte_identical(self, seed):
        case = random_scenario(seed)
        document = case_to_document(case)
        rebuilt = document_to_case(loads(dumps(document)))
        assert dumps(case_to_document(rebuilt)) == dumps(document)

    def test_round_trip_preserves_semantics(self):
        case = random_scenario(3, n_trace_steps=2)
        rebuilt = document_to_case(case_to_document(case))
        assert rebuilt.name == case.name
        assert rebuilt.trace == case.trace
        assert set(rebuilt.instance.facts()) == set(case.instance.facts())
        assert len(list(rebuilt.constraints)) == len(list(case.constraints))
        assert rebuilt.final_instance() == case.final_instance()

    def test_null_encodes_as_json_null(self):
        for seed in range(40):
            case = random_scenario(seed, null_density=0.9)
            if case.instance.has_nulls():
                break
        else:  # pragma: no cover - null_density=0.9 always produces one
            pytest.fail("no null-carrying scenario in 40 seeds")
        document = case_to_document(case)
        assert any(None in values for _pred, values in document["facts"])
        rebuilt = document_to_case(document)
        assert any(
            any(is_null(v) for v in fact.values) for fact in rebuilt.instance.facts()
        )
        assert not any(
            v is None for fact in rebuilt.instance.facts() for v in fact.values
        )

    def test_dumps_is_canonical(self):
        document = case_to_document(random_scenario(11))
        text = dumps(document)
        assert text.endswith("\n")
        assert dumps(loads(text)) == text


class TestDivergenceMetadata:
    RECORD = DivergenceRecord(
        kind="repairs",
        left="direct:parallel",
        right="program",
        signature="repairs:direct/program",
        detail="3 vs 2 repairs",
    )

    def test_divergence_record_round_trips(self):
        document = case_to_document(random_scenario(0), divergence=self.RECORD)
        assert divergence_of(loads(dumps(document))) == self.RECORD

    def test_signatures_default_to_the_divergence_signature(self):
        document = case_to_document(random_scenario(0), divergence=self.RECORD)
        assert pinned_signatures_of(document) == ["repairs:direct/program"]

    def test_explicit_signatures_are_sorted_and_merged(self):
        document = case_to_document(
            random_scenario(0),
            divergence=self.RECORD,
            signatures=["answers:direct/program"],
        )
        assert pinned_signatures_of(document) == [
            "answers:direct/program",
            "repairs:direct/program",
        ]

    def test_no_divergence_means_no_pinned_signatures(self):
        document = case_to_document(random_scenario(0))
        assert divergence_of(document) is None
        assert pinned_signatures_of(document) == []


class TestFormatErrors:
    def test_unsupported_format_version_rejected(self):
        document = case_to_document(random_scenario(0))
        document["format"] = FORMAT_VERSION + 1
        with pytest.raises(WitnessFormatError, match="unsupported witness format"):
            document_to_case(document)

    def test_boolean_constants_rejected_on_encode(self):
        from repro.explore.serialize import _encode_value

        with pytest.raises(WitnessFormatError):
            _encode_value(True)
        assert _encode_value(NULL) is None
        assert _encode_value(3) == 3

    def test_invalid_json_rejected(self):
        with pytest.raises(WitnessFormatError, match="not valid JSON"):
            loads("{not json")

    def test_non_object_document_rejected(self):
        with pytest.raises(WitnessFormatError, match="JSON object"):
            loads("[1, 2, 3]")

    def test_malformed_document_rejected(self):
        document = case_to_document(random_scenario(0))
        del document["schema"]
        with pytest.raises(WitnessFormatError, match="malformed witness document"):
            document_to_case(document)
