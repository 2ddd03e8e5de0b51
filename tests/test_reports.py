"""Report writing: the compiled schema check never passes what jsonschema
rejects, and an invalid report raises jsonschema's own error and leaves no
file behind."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from jsonschema import ValidationError

from harnacklab import reports
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


def test_valid_report_is_written(tmp_path):
    out = tmp_path / "young.json"
    assert write_report(YOUNG, out, "both") == [out, out.with_suffix(".csv")]
    assert out.read_text().startswith("{")


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
    return {r.inequality_id: reports._plain(r.to_dict()) for r in built}


@pytest.fixture(scope="module")
def real_reports():
    return _real_reports()


def _accepts(doc) -> bool:
    return reports._schema_check("report")(doc)


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
        reports._compile_schema(schema)


def test_compile_refuses_closed_objects():
    schema = load_schema("report")
    schema["additionalProperties"] = False
    with pytest.raises(ValueError, match="additionalProperties"):
        reports._compile_schema(schema)


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
