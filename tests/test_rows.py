import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phenorank.corpus import ClinicalNote, NoteChunk, Patient
from phenorank.errors import DataError
from phenorank.evaluation import MetricsReport
from phenorank.extraction import ChunkFailure, Mention, PatientMentions
from phenorank.ranking import TrainingMeta
from phenorank.rows import PatientTerms, decode

ROW_TYPES = (
    Patient,
    ClinicalNote,
    NoteChunk,
    Mention,
    PatientMentions,
    ChunkFailure,
    PatientTerms,
    TrainingMeta,
    MetricsReport,
)

# One value of each JSON type, keyed as error messages name the type.
JSON_VALUES = {
    "an integer": 7,
    "a number": 7.5,
    "a boolean": True,
    "a string": "7",
    "null": None,
    "an array": [],
    "an object": {},
}


def strategy(tp):
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        return st.none() | strategy(inner)
    if origin is list:
        return st.lists(strategy(typing.get_args(tp)[0]), max_size=3)
    if origin is set:
        return st.sets(strategy(typing.get_args(tp)[0]), max_size=3)
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        return st.builds(tp, *(strategy(hints[f.name]) for f in dataclasses.fields(tp)))
    return {
        str: st.text(),
        int: st.integers(),
        float: st.floats(allow_nan=False, allow_infinity=False),
        dict: st.dictionaries(st.text(), st.integers(), max_size=2),
    }[tp]


def accepted(tp):
    """The JSON types a field of type ``tp`` accepts."""
    args = typing.get_args(tp)
    if type(None) in args:
        (inner,) = set(args) - {type(None)}
        return accepted(inner) | {"null"}
    if typing.get_origin(tp) in (list, set):
        return {"an array"}
    return {
        str: {"a string"},
        int: {"an integer"},
        float: {"an integer", "a number"},
        dict: {"an object"},
    }[tp]


def json_key(name):
    head, *rest = name.split("_")
    return head + "".join(w.capitalize() for w in rest)


@pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_round_trip_through_json(row_type, data):
    row = data.draw(strategy(row_type))
    doc = json.loads(json.dumps(row.to_dict(), sort_keys=True))
    assert row_type.from_dict(doc) == row


@pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_wrong_json_type_and_missing_key_names_the_field(row_type, data):
    good = data.draw(strategy(row_type)).to_dict()
    hints = typing.get_type_hints(row_type)
    for f in dataclasses.fields(row_type):
        key = json_key(f.name)
        assert key in good
        for kind in set(JSON_VALUES) - accepted(hints[f.name]):
            with pytest.raises(DataError) as e:
                row_type.from_dict({**good, key: JSON_VALUES[kind]})
            assert str(e.value).startswith(f"field {key!r} is {kind}, not ")
        missing = {k: v for k, v in good.items() if k != key}
        with pytest.raises(DataError, match=f"field '{key}' is missing"):
            row_type.from_dict(missing)


def test_nested_rows_name_the_path():
    mention = Mention("fever", "N1#c000", 3, 8, "gazetteer")
    good = PatientMentions("P1", [mention]).to_dict()
    good["mentions"][0]["start"] = "3"
    with pytest.raises(DataError, match=r"'mentions\[0\]\.start' is a string, not an int"):
        PatientMentions.from_dict(good)
    good["mentions"][0] = ["fever"]
    with pytest.raises(DataError, match=r"'mentions\[0\]' is an array, not an object"):
        PatientMentions.from_dict(good)
    with pytest.raises(DataError, match=r"'terms\[1\]' is an integer, not a string"):
        PatientTerms.from_dict({"patientId": "P1", "terms": ["HP:1", 2]})


def test_not_an_object_and_undeclared_keys():
    with pytest.raises(DataError, match="^not an object$"):
        PatientTerms.from_dict(["P1"])
    row = PatientTerms.from_dict({"patientId": "P1", "terms": ["HP:1"], "scores": [0.5]})
    assert row == PatientTerms("P1", ["HP:1"])


def test_an_integer_reads_as_a_float_and_a_set_writes_sorted():
    doc = {"patientId": "P1", "ageYears": 7, "sex": "female", "symptomCategory": "other"}
    p = Patient.from_dict({**doc, "curatedTerms": ["HP:2", "HP:1", "HP:2"]})
    assert type(p.age_years) is float and p.curated_terms == {"HP:1", "HP:2"}
    assert p.to_dict()["curatedTerms"] == ["HP:1", "HP:2"]
    with pytest.raises(DataError, match="field 'curatedTerms' is null, not an array"):
        Patient.from_dict({**doc, "curatedTerms": None})


def test_decode_reads_a_boolean_and_an_array_as_a_tuple():
    assert decode(bool, False, ("flag",)) is False
    assert decode(tuple[int, ...], [10, 20], ("cutoffs",)) == (10, 20)
    with pytest.raises(DataError, match="^field 'flag' is an integer, not a boolean$"):
        decode(bool, 1, ("flag",))
    with pytest.raises(DataError, match=r"^field 'cutoffs\[1\]' is a boolean, not an integer$"):
        decode(tuple[int, ...], [10, True], ("cutoffs",))
