import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girit.analysis import AnalyzerConfig
from girit.corpus import RawDocument
from girit.errors import IndexStoreError
from girit.index import build_index
from girit.util import decode_varints, encode_varints

INT64_MAX = 2**63 - 1

one_byte_blocks = st.lists(st.integers(0, 0x7F), max_size=200)
multi_byte_blocks = st.lists(
    st.one_of(st.integers(0x80, INT64_MAX), st.integers(0x80, INT64_MAX), st.integers(0, 0x7F)),
    max_size=200,
)


class TestVarintRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(one_byte_blocks, multi_byte_blocks))
    def test_decode_inverts_encode(self, xs):
        data = encode_varints(xs)
        out = decode_varints(data, 0, len(xs), len(data))
        assert out.dtype == np.int64
        assert out.tolist() == xs

    @settings(max_examples=100, deadline=None)
    @given(multi_byte_blocks, multi_byte_blocks, multi_byte_blocks)
    def test_block_inside_a_larger_buffer(self, before, xs, after):
        head, block = encode_varints(before), encode_varints(xs)
        data = head + block + encode_varints(after)
        assert decode_varints(data, len(head), len(xs), len(block)).tolist() == xs

    def test_widths_at_the_group_boundaries(self):
        xs = [0, 0x7F, 0x80, 2**14 - 1, 2**14, 2**56 - 1, 2**56, INT64_MAX]
        data = encode_varints(xs)
        assert [len(encode_varints([x])) for x in xs] == [1, 1, 2, 2, 3, 8, 9, 9]
        assert decode_varints(data, 0, len(xs), len(data)).tolist() == xs


class TestMalformedBlocks:
    def block(self):
        prefix = encode_varints([5, 6])
        return prefix, prefix + encode_varints([1, 300, 2]) + encode_varints([7, 8])

    def test_too_few_varints(self):
        prefix, data = self.block()
        with pytest.raises(IndexStoreError, match=f"byte offset {len(prefix)}: holds 3 varints, expected 4"):
            decode_varints(data, len(prefix), 4, 4)

    def test_too_many_varints(self):
        prefix, data = self.block()
        with pytest.raises(IndexStoreError, match=f"byte offset {len(prefix)}: holds 3 varints, expected 2"):
            decode_varints(data, len(prefix), 2, 4)

    def test_trailing_continuation_byte(self):
        data = encode_varints([1, 2]) + b"\x80"
        with pytest.raises(IndexStoreError, match="varint at byte offset 2 has no terminator"):
            decode_varints(data, 0, 2, len(data))

    def test_block_cut_inside_a_varint(self):
        # the block ends after the first byte of the two-byte 300
        prefix, data = self.block()
        with pytest.raises(IndexStoreError, match=f"varint at byte offset {len(prefix) + 1} has no terminator"):
            decode_varints(data, len(prefix), 3, 2)

    def test_block_past_the_end_of_the_buffer(self):
        data = encode_varints([1, 2, 3])
        with pytest.raises(IndexStoreError, match="byte offset 1: 4 bytes overrun"):
            decode_varints(data, 1, 4, 4)

    def test_varint_wider_than_int64(self):
        data = encode_varints([3]) + b"\x80" * 9 + b"\x01"
        with pytest.raises(IndexStoreError, match="varint at byte offset 1 is longer than 9 bytes"):
            decode_varints(data, 0, 2, len(data))


def test_lookup_with_a_wrong_df_raises_instead_of_reading_the_next_term():
    cfg = AnalyzerConfig()
    docs = [RawDocument("d1", "apple banana"), RawDocument("d2", "apple cherry")]
    index = build_index(docs, cfg)
    df, cf, offset, nbytes = index._lexicon["apple"]
    index._lexicon["apple"] = (df + 1, cf, offset, nbytes)
    with pytest.raises(IndexStoreError, match=f"byte offset {offset}"):
        index.lookup("apple")
