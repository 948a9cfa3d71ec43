"""Oracle test of serialize.json_text, the writer behind --format json.

The oracle is the standard library: json_text must give the same text as
json.dumps(value, indent=2, sort_keys=True) on every JSON value built from
dicts with str keys, lists, str, int, bool and None, and must refuse
anything else rather than guess a rendering.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from mcseries.serialize import json_text

# quotes, backslashes and control characters next to arbitrary code points,
# non-ASCII ones included
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x07\b\t\n\f\r\x1f\x7f'),
                         st.characters()))
INTS = st.integers(min_value=-10**100, max_value=10**100)
VALUES = st.recursive(
    st.none() | st.booleans() | INTS | TEXT,
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(TEXT, inner, max_size=5),
    max_leaves=40)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(VALUES)
def test_matches_json_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    1.5,
    (1, 2),
    {1: "a"},
    {"a": [0, {"b": 0.5}]},
    [{"a": 1}, {("k",): 1}],
], ids=["float", "tuple", "int-key", "nested-float", "nested-tuple-key"])
def test_refuses_what_it_cannot_write_exactly(value):
    with pytest.raises(TypeError):
        json_text(value)
