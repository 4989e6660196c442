import logging
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import girit.index
from girit.analysis import AnalyzerConfig
from girit.corpus import RawDocument
from girit.errors import IndexStoreError
from girit.index import build_index, build_index_to_dir, decode_varints, encode_varints, varint_widths
from girit.synth import synth_corpus

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


def _reference_encode(values) -> bytes:
    """The byte-at-a-time varint loop, kept as the reference."""
    out = bytearray()
    for v in values:
        while v >= 0x80:
            out.append(0x80 | (v & 0x7F))
            v >>= 7
        out.append(v)
    return bytes(out)


# 0, then each side of every 7-bit group boundary, then the int64 maximum
BOUNDARIES = [0] + [b for k in range(1, 9) for b in (2 ** (7 * k) - 1, 2 ** (7 * k))] + [INT64_MAX]


class TestVectorEncoder:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(one_byte_blocks, multi_byte_blocks))
    def test_matches_the_reference_loop_for_int64_and_list_inputs(self, xs):
        expected = _reference_encode(xs)
        assert encode_varints(xs) == expected
        assert encode_varints(np.array(xs, dtype=np.int64)) == expected
        assert varint_widths(xs).tolist() == [len(_reference_encode([x])) for x in xs]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(0, 2**31 - 1), max_size=200))
    def test_int32_input_round_trips(self, xs):
        data = encode_varints(np.array(xs, dtype=np.int32))
        assert data == _reference_encode(xs)
        assert decode_varints(data, 0, len(xs), len(data)).tolist() == xs

    def test_empty_input(self):
        assert encode_varints([]) == b""
        assert encode_varints(np.empty(0, dtype=np.int64)) == b""
        assert varint_widths([]).tolist() == []

    def test_every_group_boundary(self):
        data = encode_varints(BOUNDARIES)
        assert data == _reference_encode(BOUNDARIES)
        assert varint_widths(BOUNDARIES).tolist() == [1] + [w for k in range(1, 9) for w in (k, k + 1)] + [9]
        assert decode_varints(data, 0, len(BOUNDARIES), len(data)).tolist() == BOUNDARIES

    def test_single_values(self):
        assert encode_varints([0]) == b"\x00"
        assert encode_varints([127]) == b"\x7f"
        assert encode_varints([128]) == b"\x80\x01"
        assert encode_varints([INT64_MAX]) == b"\xff" * 8 + b"\x7f"

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            encode_varints([5, -1])


def _dir_bytes(path):
    return {f.name: f.read_bytes() for f in sorted(path.iterdir()) if f.is_file()}


@pytest.mark.parametrize(
    "budget", [{"memory_budget_mb": 0}, {"memory_budget_mb": 1}, {}], ids=["budget-0", "budget-1MiB", "default-budget"]
)
def test_spilled_and_batched_builds_write_the_bytes_of_the_in_memory_build(tmp_path, monkeypatch, caplog, budget):
    cfg = AnalyzerConfig()
    docs = synth_corpus(random.Random(21), 1000, vocab_size=800, doc_len=(300, 600))
    build_index(docs, cfg).persist(tmp_path / "mem")
    # a term of the first and the last document has postings in the first
    # spill run and in the last rows, so it spans every run in between
    assert set(docs[0].text.split()) & set(docs[-1].text.split())
    batches = []
    encoded = girit.index._encoded

    def counted(stream, *args):
        for batch in encoded(stream, *args):
            batches.append(len(batch[0]))
            yield batch

    monkeypatch.setattr(girit.index, "_MAX_BATCH", 1 << 13)
    monkeypatch.setattr(girit.index, "_encoded", counted)
    with caplog.at_level(logging.INFO, logger="girit.index"):
        build_index_to_dir(docs, cfg, tmp_path / "dir", **budget)
    spills = sum(r.getMessage().startswith("spilling") for r in caplog.records)
    assert spills >= (2 if budget else 0)
    assert len(batches) >= 10
    assert _dir_bytes(tmp_path / "mem") == _dir_bytes(tmp_path / "dir")


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
    row = index._lexicon["apple"]
    offset = int(index._table[row, 2])
    index._table[row, 0] += 1
    with pytest.raises(IndexStoreError, match=f"byte offset {offset}"):
        index.lookup("apple")
