"""The package's indent-2 JSON writer against the stdlib as its oracle."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qset import _json

# Characters the encoder escapes or passes through differently: quote,
# backslash, control characters, DEL, non-ASCII, line separators, lone
# surrogates and an astral character (written as a surrogate pair).
TRICKY = '"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\u2029\ud800\udfff\U0001f600'

chars = st.one_of(st.sampled_from(TRICKY), st.characters(blacklist_categories=()))
strings = st.text(chars, max_size=12)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.integers(),
    strings,
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.dictionaries(strings, inner, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=400, deadline=None)
@given(documents)
def test_dumps_matches_the_stdlib_indent_2_output(doc):
    assert _json.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [[], {}, (), [[], {}], {"a": [], "b": {}}, "", 0, -0, True, None])
def test_empty_containers_and_bare_scalars(doc):
    assert _json.dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc",
    [1.5, {1, 2}, {1: "a"}, [{"a": 1.0}], {"a": ["b", {True: 1}]}],
    ids=["float", "set", "int-key", "nested-float", "nested-bool-key"],
)
def test_types_the_package_does_not_emit_raise_type_error(doc):
    with pytest.raises(TypeError):
        _json.dumps(doc)
