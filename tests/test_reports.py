"""Report writing: the writer's schema check never passes what jsonschema
rejects, an invalid report raises jsonschema's own error and leaves no file
behind, the indented writer gives json.dumps's bytes, and every document the
CLI writes is built from exact JSON types."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator, ValidationError

from harnacklab import cli, harnack_lab, reports
from harnacklab.harnack_lab import (
    INEQUALITY_IDS,
    default_ratio_grid,
    jensen_suite,
    verify_harnack,
    verify_log_harnack,
    verify_p_harnack,
    verify_ratio_lemma,
    verify_truncated_ratio,
    young_suite,
)
from harnacklab.levy_core import OUSpec, StableSpec, TruncatedStableSpec
from harnacklab.reports import load_schema, validate_report, write_report
from harnacklab.sampling import SeedSpec

YOUNG = young_suite(n_cases=4, seed=SeedSpec(5)).to_dict()


def _without_lhs(doc):
    del doc["per_node"][1]["lhs"]


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value

    return mutate


REJECTED = {
    "node_without_lhs": _without_lhs,
    "slack_as_string": _set(("per_node", 0, "slack"), "0.0"),
    "x_holding_a_string": _set(("per_node", 2, "x", 0), "1.0"),
    "fitted_C_true": _set(("fitted_C",), True),
    "excluded_nodes_negative": _set(("excluded_nodes",), -1),
    "unknown_inequality_id": _set(("inequality_id",), "harnack_unknown"),
}


@pytest.mark.parametrize("mutate", REJECTED.values(), ids=REJECTED.keys())
@pytest.mark.parametrize("fmt", ["json", "both"])
def test_invalid_report_raises_the_schema_error_and_writes_nothing(tmp_path, mutate, fmt):
    doc = copy.deepcopy(YOUNG)
    mutate(doc)
    with pytest.raises(ValidationError) as expected:
        validate_report(doc)
    out = tmp_path / "reports" / "young.json"
    with pytest.raises(ValidationError) as raised:
        write_report(doc, out, fmt)
    assert raised.value.message == expected.value.message
    assert list(raised.value.absolute_path) == list(expected.value.absolute_path)
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")], ids=str)
@pytest.mark.parametrize("scalar", [float, np.float64])
@pytest.mark.parametrize("nest", [lambda v: {"a": {"b": v}}, lambda v: [0.5, [v]]],
                         ids=["in_dict", "in_list"])
def test_non_finite_values_are_refused_and_nothing_is_written(tmp_path, value, scalar, nest):
    doc = copy.deepcopy(YOUNG)
    doc["mc_meta"]["extra"] = nest(scalar(value))
    with pytest.raises(ValueError, match="non-finite"):
        reports.canonical_json(doc)
    out = tmp_path / "young.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_report(doc, out, "both")
    assert not out.exists() and not out.with_suffix(".csv").exists()


@pytest.mark.parametrize(
    "leaf", [np.int64(3), np.array([0.5, 1.0]), (0.5, 1.0)], ids=["int64", "ndarray", "tuple"]
)
@pytest.mark.parametrize("fmt", ["json", "csv", "both"])
def test_leaves_that_are_not_json_are_refused_and_nothing_is_written(tmp_path, leaf, fmt):
    doc = copy.deepcopy(YOUNG)
    doc["mc_meta"]["extra"] = {"a": [leaf]}
    out = tmp_path / "reports" / "young.json"
    with pytest.raises(TypeError):
        write_report(doc, out, fmt)
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "bad",
    [{"a": (1, 2)}, {"b": {3: 4}}, {"c": [{None: 0.5}]}, {"d": {1.5: 1}}, {"e": [np.int64(3)]},
     {"f": np.array([0.5])}],
    ids=["tuple", "int_key", "none_key", "float_key", "int64", "ndarray"],
)
def test_canonical_json_refuses_what_the_writer_refuses(bad):
    with pytest.raises(TypeError):
        reports.indented_json(bad)
    with pytest.raises(TypeError):
        reports.canonical_json(bad)
    with pytest.raises(TypeError):
        reports.canonical_json({**YOUNG, "mc_meta": {**YOUNG["mc_meta"], "extra": bad}})


def test_canonical_json_keeps_the_compact_json_dumps_form():
    doc = {"created_at": "now", "b": [1, 2.5, np.float64(0.1), True, None], "a": {"x": "é"}}
    assert reports.canonical_json(doc) == '{"a":{"x":"\\u00e9"},"b":[1,2.5,0.1,true,null]}'


def test_valid_report_is_written(tmp_path):
    out = tmp_path / "young.json"
    assert write_report(YOUNG, out, "both") == [out, out.with_suffix(".csv")]
    assert out.read_text().startswith("{")


def test_report_the_check_refuses_but_jsonschema_accepts_is_written(tmp_path):
    # np.float64 is no exact float, so the writer's check refuses it and
    # jsonschema, which accepts it, decides
    exact, subclass = copy.deepcopy(YOUNG), copy.deepcopy(YOUNG)
    exact["fitted_C"], subclass["fitted_C"] = 0.75, np.float64(0.75)
    assert not _accepts(subclass)
    write_report(exact, tmp_path / "exact.json")
    write_report(subclass, tmp_path / "subclass.json")
    assert (tmp_path / "subclass.json").read_bytes() == (tmp_path / "exact.json").read_bytes()


CAUCHY = StableSpec(d=1, alpha=1.0, c=1.0)
TSPEC = TruncatedStableSpec(d=1, alpha=1.0, c=1.0, r=1.0)


def _real_reports() -> dict:
    """One small report per inequality id, as the verifiers build them."""
    free = OUSpec(A=np.zeros((1, 1)), driver=CAUCHY)
    drift = OUSpec(A=np.array([[0.5]]), driver=CAUCHY)
    ratio_grid = default_ratio_grid(1, 1.0, t_values=(0.5, 1.0), offsets=(0.0, 1.0), n_z=12)
    built = [
        verify_harnack(free, n=2000, seed=SeedSpec(1), validation=False),
        verify_harnack(drift, n=2000, seed=SeedSpec(1)),
        verify_p_harnack(free, n=2000, seed=SeedSpec(1)),
        verify_log_harnack(free, n=2000, seed=SeedSpec(1)),
        verify_ratio_lemma(CAUCHY, grid=ratio_grid, validation=False),
        verify_truncated_ratio(
            TSPEC, (0.5, 1.0), offsets=(0.0, 1.0), z_count=9, seed=SeedSpec(7),
        ),
        young_suite(n_cases=20, seed=SeedSpec(5)),
        jensen_suite(n_cases=20, seed=SeedSpec(6)),
    ]
    return {r.inequality_id: r.to_dict() for r in built}


@pytest.fixture(scope="module")
def real_reports():
    return _real_reports()


JSON_TYPES = (dict, list, str, int, float, bool, type(None))


def _leaks(doc, path=()):
    """(path, type name) of every key that is not a str and every value whose
    type is not exactly a JSON type (np.float64, a float subclass, is one)."""
    if type(doc) not in JSON_TYPES:
        yield path, type(doc).__name__
    elif type(doc) is dict:
        for key, value in doc.items():
            if type(key) is not str:
                yield path + (key,), f"key {type(key).__name__}"
            yield from _leaks(value, path + (key,))
    elif type(doc) is list:
        for i, value in enumerate(doc):
            yield from _leaks(value, path + (i,))


def _cli_documents(tmp_path, monkeypatch) -> list:
    """Every document the CLI hands to a writer on one run of each command."""
    seen = []

    def keep(write):
        def wrapper(doc, *args):
            seen.append(doc)
            return write(doc, *args)

        return wrapper

    monkeypatch.setattr(cli, "indented_json", keep(reports.indented_json))
    monkeypatch.setattr(cli, "write_report", keep(reports.write_report))
    monkeypatch.setattr(reports, "indented_json", keep(reports.indented_json))
    # no margin passes, so young writes a violations file beside its report
    monkeypatch.setattr(harnack_lab, "_MARGIN_TOL", -math.inf)
    specs = {
        "stable": {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0},
        "trunc": {"driver": "truncated_stable", "d": 1, "alpha": 1.0, "c": 1.0, "r": 1.0},
        "ou": {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 1.0], [0.0, -0.5]]},
        "cases": {"n_cases": 20},
    }
    paths = {}
    for name, doc in specs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    runs = [
        (0, ["density", "--spec", paths["stable"], "--t", "0.5", "--radii", "0,1"]),
        (0, ["density", "--spec", paths["trunc"], "--t", "0.5", "--x", "-1",
             "--format", "both", "--out", tmp_path / "density.json"]),
        (0, ["estimate", "--spec", paths["stable"], "--t", "0.5", "--x", "1", "--n", "1000"]),
        (0, ["estimate", "--spec", paths["ou"], "--t", "0.5", "--x", "1,-1", "--n", "1000",
             "--out", tmp_path / "estimate.json"]),
        (0, ["sample", "--spec", paths["stable"], "--t", "0.5", "--n", "10",
             "--out", tmp_path / "stable.bin"]),
        (0, ["sample", "--spec", paths["trunc"], "--t", "0.5", "--n", "10",
             "--out", tmp_path / "trunc.bin"]),
        (2, ["verify", "--spec", paths["stable"], "--inequality", "young",
             "--grid", paths["cases"], "--out", tmp_path / "verify"]),
    ]
    for rc, argv in runs:
        assert cli.main([str(a) for a in argv]) == rc, argv
    return seen


def test_every_document_is_built_from_exact_json_types(real_reports, tmp_path, monkeypatch, capsys):
    # a np.float64 value fails the writer's check of a typed report field and
    # sends the write to jsonschema, so documents hold exact types only
    documents = list(real_reports.values()) + _cli_documents(tmp_path, monkeypatch)
    # two density, two estimate and two sidecar documents, a report and its violations
    assert len(documents) == len(INEQUALITY_IDS) + 8
    for i, doc in enumerate(documents):
        assert list(_leaks(doc)) == [], i


def _accepts(doc) -> bool:
    try:
        reports._put_indented(doc, "\n", lambda text: None, reports._schema_node("report"))
    except reports._Refused:
        return False
    return True


def test_check_accepts_every_inequality_report(real_reports):
    assert set(real_reports) == set(INEQUALITY_IDS)
    for doc in real_reports.values():
        validate_report(doc)
        assert _accepts(doc), doc["inequality_id"]


@pytest.mark.parametrize(
    "field, value, valid",
    [
        ("excluded_nodes", 3.0, True),  # an integral float is an integer
        ("excluded_nodes", 0, True),
        ("excluded_nodes", 2.5, False),
        ("excluded_nodes", True, False),  # a bool is not an integer
        ("fitted_C", 1, True),
        ("fitted_C", True, False),  # nor a number
        ("fitted_C", None, False),
        ("validation_C", None, True),
        ("seed", None, True),
        ("seed", {"master_seed": 1.5}, False),
        ("passed", 1, False),
        ("inequality_id", "young", True),
        ("inequality_id", 0, False),
    ],
)
def test_check_agrees_with_jsonschema_on_edge_values(field, value, valid):
    doc = copy.deepcopy(YOUNG)
    doc[field] = value
    assert _accepts(doc) is valid
    if valid:
        validate_report(doc)
    else:
        with pytest.raises(ValidationError):
            validate_report(doc)


@pytest.mark.parametrize(
    "where", [(), ("properties", "per_node", "items", "properties", "x")], ids=["top", "nested"]
)
def test_compile_refuses_unknown_keywords(where):
    schema = load_schema("report")
    sub = schema
    for key in where:
        sub = sub[key]
    sub["pattern"] = "^h"
    with pytest.raises(ValueError, match="pattern"):
        reports._Node(schema)


def test_compile_refuses_closed_objects():
    schema = load_schema("report")
    schema["additionalProperties"] = False
    with pytest.raises(ValueError, match="additionalProperties"):
        reports._Node(schema)


@pytest.mark.parametrize(
    "schema, value, accepted",
    [
        ({"enum": [1, "a"]}, True, False),  # a bool never matches an int member
        ({"enum": [1, "a"]}, 1.0, False),  # nor a float, which jsonschema would accept
        ({"enum": [1, "a"]}, "a", True),
        ({"enum": [[1]]}, [1], False),  # container members never match
        ({"type": "integer"}, 2.0, True),
        ({"type": "integer"}, 2.5, False),
        ({"minimum": 0}, "text", True),  # minimum applies to numbers only
        ({"minimum": 0}, True, True),
        ({"minimum": 0}, np.float64(1.0), False),  # and to exact ones here
        ({"required": ["a"]}, [], True),
        ({"required": ["a"]}, {"b": 1}, False),
    ],
)
def test_node_checks_one_value_with_exact_types(schema, value, accepted):
    try:
        reports._Node(schema).check(value)
    except reports._Refused:
        assert not accepted
    else:
        assert accepted
        Draft202012Validator(schema).validate(value)


def _paths(doc, prefix=()):
    """Every key and index path inside a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


WRONG_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(-3.0, 3.0),
    st.text(max_size=3),
    st.sampled_from(list(INEQUALITY_IDS)),
    st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.sampled_from(["t", "lhs", "master_seed"]), st.integers(), max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_never_passes_what_jsonschema_rejects(real_reports, data):
    inequality = data.draw(st.sampled_from(sorted(real_reports)))
    doc = copy.deepcopy(real_reports[inequality])
    doc["per_node"] = doc["per_node"][:3]
    *head, last = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = data.draw(WRONG_VALUES)
    if _accepts(doc):
        validate_report(doc)


# scalars json.dumps must agree with the writer on: -0.0, subnormals, the
# shortest-repr switches at 1e16 and 1e-4, ints past 2^53, bool beside int,
# non-ASCII text and control characters
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**53 - 2, max_value=2**80),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300, allow_nan=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 1e-5, 9007199254740993.0, 1, True, 0, False]),
    st.text(),
    st.text(st.characters(max_codepoint=0x1F) | st.sampled_from(list('"\\/é€\U0001f600\u2028'))),
)
JSON_TREES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=4), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(JSON_TREES)
@example({})
@example([])
@example({"a": {}, "b": [[], {}], "c": [True, 1, 1.0, False, 0, None]})
@example({"\u00e9\n\x00": "\x1f\u2028", "": ["\\", "/"]})
@example({"a": [np.float64(0.1), np.float64(-0.0)], "b": np.float64(1e16)})
def test_indented_writer_is_json_dumps(tree):
    expected = json.dumps(tree, sort_keys=True, indent=2)
    assert reports._indented(tree) == expected
    assert reports.indented_json(tree) == expected + "\n"


@settings(max_examples=100, deadline=None)
@given(JSON_TREES, st.sampled_from([math.nan, math.inf, -math.inf]), st.booleans())
def test_indented_writer_refuses_non_finite_numbers(tree, bad, in_dict):
    doc = {"tree": tree, "bad": bad} if in_dict else [tree, [bad]]
    with pytest.raises(ValueError, match="non-finite"):
        reports._indented(doc)
    with pytest.raises(ValueError, match="non-finite"):
        reports.indented_json(doc)


def test_samples_dump_with_a_non_finite_sidecar_writes_nothing(tmp_path):
    path = tmp_path / "dump" / "samples.bin"
    with pytest.raises(ValueError, match="non-finite"):
        reports.write_samples_dump(np.zeros((3, 1)), path, {"t": math.inf})
    assert not (tmp_path / "dump").exists()
