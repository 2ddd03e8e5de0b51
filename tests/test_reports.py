"""Schema checks and report writing: the package's schema check accepts a
config, grid override or report exactly when jsonschema (the oracle, a test
dependency only) does, an invalid report raises SchemaError at one of the
paths jsonschema reports and leaves no file behind, the indented writer gives
json.dumps's bytes, and every document the CLI writes is built from exact
JSON types."""

import copy
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from jsonschema import Draft202012Validator

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
from harnacklab.reports import (
    SchemaError,
    load_schema,
    validate_config,
    validate_grid_override,
    validate_report,
    write_report,
)
from harnacklab.sampling import SeedSpec

YOUNG = young_suite(n_cases=4, seed=SeedSpec(5)).to_dict()
# jsonschema, the oracle each schema check is held to
ORACLES = {name: Draft202012Validator(load_schema(name)) for name in ("config", "grid", "report")}


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
    # each (path, keyword) jsonschema finds wrong
    expected = {
        (tuple(e.absolute_path), e.validator) for e in ORACLES["report"].iter_errors(doc)
    }
    assert expected
    out = tmp_path / "reports" / "young.json"
    with pytest.raises(SchemaError) as raised:
        write_report(doc, out, fmt)
    assert (raised.value.path, raised.value.keyword) in expected
    assert raised.value.keyword in str(raised.value)
    assert not out.exists() and not out.with_suffix(".csv").exists()
    with pytest.raises(SchemaError) as validated:
        validate_report(doc)
    assert (validated.value.path, validated.value.keyword) in expected


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


def test_float64_field_is_written_with_the_exact_floats_bytes(tmp_path):
    # a float subclass is a number, as in jsonschema, and is written as its float
    exact, subclass = copy.deepcopy(YOUNG), copy.deepcopy(YOUNG)
    exact["fitted_C"], subclass["fitted_C"] = 0.1, np.float64(0.1)
    subclass["per_node"][0]["x"] = [np.float64(v) for v in subclass["per_node"][0]["x"]]
    assert _accepts(subclass, "report")
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
    # the writer converts nothing, so the code that builds a document emits
    # JSON values (a float subclass is the one value it writes as another)
    documents = list(real_reports.values()) + _cli_documents(tmp_path, monkeypatch)
    # two density, two estimate and two sidecar documents, a report and its violations
    assert len(documents) == len(INEQUALITY_IDS) + 8
    for i, doc in enumerate(documents):
        assert list(_leaks(doc)) == [], i


def _accepts(doc, name) -> bool:
    """Whether the schema ``name``'s walk accepts ``doc`` (left unchanged);
    for a report, the writer's walk must give the same verdict."""
    verdicts = set()
    walks = [lambda: reports._schema_node(name).validate(copy.deepcopy(doc))]
    if name == "report":
        walks.append(lambda: reports._put_indented(doc, "\n", lambda text: None, reports._schema_node(name)))
    for walk in walks:
        try:
            walk()
        except SchemaError:
            verdicts.add(False)
        else:
            verdicts.add(True)
    assert len(verdicts) == 1, doc
    return verdicts.pop()


def test_check_accepts_every_inequality_report(real_reports):
    assert set(real_reports) == set(INEQUALITY_IDS)
    for doc in real_reports.values():
        validate_report(doc)
        assert _accepts(doc, "report"), doc["inequality_id"]


# what may stand where a per-node record holds a number
RECORD_MUTANTS = {
    "string": "0.5", "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
    "int64": np.int64(3), "tuple": (0.5,), "bool": True,
}
PER_NODE_KEYS = frozenset(load_schema("report")["properties"]["per_node"]["items"]["properties"])


@pytest.mark.parametrize("value", RECORD_MUTANTS.values(), ids=RECORD_MUTANTS.keys())
@pytest.mark.parametrize("where", ["lhs", "ratio", "x", "unnamed"])
def test_walk_of_mutated_records_is_json_dumps_or_the_old_refusal(real_reports, tmp_path, value, where):
    # the first record lays out its keys and the later ones reuse that layout;
    # a float leaf or float vector its node lets through is written inline
    for inequality, report in real_reports.items():
        for row in (0, len(report["per_node"]) // 2, -1):
            doc = copy.deepcopy(report)
            record = doc["per_node"][row]
            unnamed = sorted(set(record) - PER_NODE_KEYS)
            if where == "x":
                record["x"][-1] = value
            else:
                record[where if where != "unnamed" else unnamed[0] if unnamed else "note"] = value
            try:
                validate_report(copy.deepcopy(doc))
            except SchemaError as exc:
                expected = SchemaError, (exc.path, exc.keyword)
            else:
                if isinstance(value, float) and not math.isfinite(value):
                    expected = ValueError, "non-finite value cannot be written as JSON"
                elif type(value) in (np.int64, tuple):
                    expected = TypeError, f"Object of type {type(value).__name__} is not JSON serializable"
                else:
                    expected = None
            out = tmp_path / f"{inequality}.json"
            if expected is None:
                write_report(doc, out)
                assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
                out.unlink()
                continue
            with pytest.raises(expected[0]) as raised:
                write_report(doc, out)
            if expected[0] is SchemaError:
                assert (raised.value.path, raised.value.keyword) == expected[1], (inequality, row)
            else:
                assert str(raised.value) == expected[1], (inequality, row)
            assert not out.exists()


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
    assert _accepts(doc, "report") is valid
    assert ORACLES["report"].is_valid(doc) is valid


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
        reports._Node(schema, "report")


@pytest.mark.parametrize(
    "schema",
    [{"additionalProperties": {"type": "number"}}, {"enum": [[1], "a"]}, {"enum": [{"a": 1}]}],
    ids=["additional_properties_schema", "array_member", "object_member"],
)
def test_compile_refuses_forms_it_cannot_read(schema):
    with pytest.raises(ValueError, match="cannot read"):
        reports._Node(schema, "test")


def test_closed_object_refuses_an_unknown_key(tmp_path):
    schema = load_schema("report")
    schema["additionalProperties"] = False
    node = reports._Node(schema, "report")
    node.validate(copy.deepcopy(YOUNG))
    doc = {**copy.deepcopy(YOUNG), "unknown": 1}
    with pytest.raises(SchemaError) as raised:
        node.validate(doc)
    assert (raised.value.path, raised.value.keyword) == ((), "additionalProperties")
    assert "'unknown' not allowed" in str(raised.value)
    assert not Draft202012Validator(schema).is_valid(doc)


@pytest.mark.parametrize(
    "schema, value, accepted",
    [
        ({"enum": [1, "a"]}, True, False),  # a bool never matches an int member
        ({"enum": [1, "a"]}, 1.0, True),  # but an equal float does
        ({"enum": [True]}, 1, False),
        ({"enum": [1, "a"]}, "a", True),
        ({"type": "integer"}, 2.0, True),
        ({"type": "integer"}, 2.5, False),
        ({"type": "integer"}, True, False),
        ({"type": "integer"}, np.int64(2), False),  # an integer is a Python int
        ({"type": "number"}, np.float64(0.5), True),  # a float subclass is a number
        ({"type": "number"}, np.int64(2), True),  # as any numbers.Number is
        ({"type": "number"}, False, False),
        ({"type": "object"}, [], False),
        ({"type": ["number", "null"]}, None, True),
        ({"minimum": 0}, "text", True),  # minimum applies to numbers only
        ({"minimum": 0}, True, True),
        ({"minimum": 0}, np.float64(-1.0), False),  # float subclasses included
        ({"minimum": 0}, np.float64(1.0), True),
        ({"minimum": 0}, math.nan, True),  # NaN breaks no bound
        ({"exclusiveMinimum": 0}, 0.0, False),
        ({"exclusiveMinimum": 0}, 5e-324, True),
        ({"exclusiveMaximum": 2}, 2, False),
        ({"exclusiveMaximum": 2}, 1.9999999999999998, True),
        ({"minItems": 1}, [], False),
        ({"minItems": 1}, {}, True),  # minItems applies to arrays only
        ({"required": ["a"]}, [], True),
        ({"required": ["a"]}, {"b": 1}, False),
        ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1}, True),
        ({"additionalProperties": False, "properties": {"a": {}}}, {"a": 1, "b": 2}, False),
        ({"additionalProperties": False}, "text", True),  # and to objects only
    ],
)
def test_node_checks_one_value_as_jsonschema_does(schema, value, accepted):
    try:
        reports._Node(schema, "test").check(value)
    except SchemaError:
        assert not accepted
    else:
        assert accepted
    assert Draft202012Validator(schema).is_valid(value) is accepted


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
    # the schemas' bounds, integral floats among them, and the smallest step past 0
    st.sampled_from([0, 0.0, -0.0, 1, 1.0, 2, 2.0, 5e-324, 2000.0]),
    st.text(max_size=3),
    st.sampled_from(list(INEQUALITY_IDS) + ["stable", "truncated_stable"]),
    st.lists(st.one_of(st.none(), st.integers(), st.floats(-3.0, 3.0), st.text(max_size=2)), max_size=2),
    st.dictionaries(st.sampled_from(["t", "lhs", "master_seed", "driver"]), st.integers(), max_size=2),
)
# keys a mutation may add to an object: ones the schemas name and ones they do not
NEW_KEYS = st.sampled_from(["bogus", "t", "lhs", "alpha", "n", "A", "master_seed"])


def _mutate(data, doc) -> None:
    """Replace or delete the value at one drawn path of doc, or add a key
    beside it."""
    *head, last = data.draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in head:
        parent = parent[key]
    how = data.draw(st.sampled_from(["replace", "delete", "add"]))
    if isinstance(parent, dict) and how == "delete":
        del parent[last]
    elif isinstance(parent, dict) and how == "add":
        parent[data.draw(NEW_KEYS)] = data.draw(WRONG_VALUES)
    else:
        parent[last] = data.draw(WRONG_VALUES)


CONFIGS = [
    {"driver": "stable", "d": 1, "alpha": 1.0, "c": 1.0},
    {"driver": "truncated_stable", "d": 1, "alpha": 1.8, "c": 1.0, "r": 0.5},
    {"driver": "stable", "d": 2, "alpha": 1.5, "c": 1.0, "A": [[0.5, 0.0], [0.0, 0.5]]},
]
GRIDS = [
    {"t_values": [0.5, 1.0], "offsets": [0.0, 1.0], "n_z": 4, "z_count": 5, "n": 2000,
     "p_list": [1.5, 2.0], "n_cases": 20, "validation": False},
    {"n": 2000, "t_values": [1.0]},
]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_agrees_with_jsonschema_on_reports(real_reports, data):
    inequality = data.draw(st.sampled_from(sorted(real_reports)))
    doc = copy.deepcopy(real_reports[inequality])
    doc["per_node"] = doc["per_node"][:3]
    _mutate(data, doc)
    assert _accepts(doc, "report") is ORACLES["report"].is_valid(doc)


@pytest.mark.parametrize("name, valid", [("config", CONFIGS), ("grid", GRIDS)], ids=["config", "grid"])
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_check_agrees_with_jsonschema_on_configs_and_grids(name, valid, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(valid)))
    _mutate(data, doc)
    assert _accepts(doc, name) is ORACLES[name].is_valid(doc)


def test_integral_floats_at_integer_fields_become_ints():
    grid = {"n": 2000.0, "n_z": 4.0, "z_count": 5.0, "n_cases": 5.0, "t_values": [1.0], "offsets": [0.0, 2.0]}
    validate_grid_override(grid)
    assert [type(grid[key]) for key in ("n", "n_z", "z_count", "n_cases")] == [int] * 4
    assert grid == {"n": 2000, "n_z": 4, "z_count": 5, "n_cases": 5, "t_values": [1.0], "offsets": [0.0, 2.0]}
    assert [type(v) for v in grid["t_values"] + grid["offsets"]] == [float] * 3
    config = {"driver": "stable", "d": 2.0, "alpha": 1.0, "c": 2.0, "A": [[1.0, 0.0], [0.0, 1.0]]}
    validate_config(config)
    assert type(config["d"]) is int and config["d"] == 2
    assert type(config["c"]) is float and type(config["A"][0][0]) is float


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
