"""A layer's text kept in blocks equals the join of its parts, whatever
the parts hold and in whatever order they are written."""

import pytest

from surfgen.backtrack import BLOCK, Layer, fill_post_contexts
from surfgen.engine import LiteralTok, join_tokens

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

# empty parts, and parts that start or end with a space, tab or newline
TOKENS = st.sampled_from(["", "", "a", "bc", " ", "\t", "\n", "x\t", "\ty",
                          " z", "w ", "\n\n", "u\tv"]) \
    | st.text(alphabet="ab \t\n", max_size=3)


@pytest.mark.parametrize("size", [1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@hypothesis.settings(max_examples=50, deadline=None, database=None)
@hypothesis.given(data=st.data())
def test_blocked_text_is_the_join_of_the_parts(size, data):
    parts = data.draw(st.lists(TOKENS, min_size=size, max_size=size))
    layer = Layer(tuple(LiteralTok(t) for t in parts), None, 0)
    fill_post_contexts(layer, {})
    assert (layer.blocks is None) == (size <= BLOCK)
    layer.join(whole=True)
    assert layer.text == join_tokens(parts)
    positions = st.integers(0, size - 1)
    for batch in data.draw(st.lists(st.lists(st.tuples(positions, TOKENS),
                                             min_size=1, max_size=4),
                                    max_size=12)):
        for pos, token in batch:
            layer.write(pos, token)
            parts[pos] = token
        layer.join()
        assert layer.text == join_tokens(parts)
    # joined whole, as an entered layer is, it reads the same
    layer.join(whole=True)
    assert layer.text == join_tokens(parts)
