"""PGAS address spaces, hashing, translation."""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.geometry import CellGeometry, ChipGeometry
from repro.audit.reference import reference_translate
from repro.pgas import hashing, spaces
from repro.pgas.translate import (
    GLOBAL_DRAM_BASE,
    Destination,
    TargetKind,
    Translator,
)


class TestSpaces:
    def test_encode_decode_roundtrip(self):
        for space in spaces.Space:
            addr = spaces.encode(space, 0x1234, 5, 9)
            dec = spaces.decode(addr)
            assert dec.space is space
            assert dec.offset == 0x1234
            assert dec.field_a == 5
            assert dec.field_b == 9

    def test_local_spm_range_check(self):
        spaces.local_spm(0)
        spaces.local_spm(4095)
        with pytest.raises(ValueError):
            spaces.local_spm(4096)

    def test_group_spm_encodes_coords(self):
        addr = spaces.group_spm(3, 7, 0x10)
        dec = spaces.decode(addr)
        assert dec.space is spaces.Space.GROUP_SPM
        assert (dec.field_a, dec.field_b) == (3, 7)

    def test_group_dram_encodes_cell(self):
        addr = spaces.group_dram(1, 0, 0x40)
        dec = spaces.decode(addr)
        assert dec.space is spaces.Space.GROUP_DRAM
        assert (dec.field_a, dec.field_b) == (1, 0)

    def test_space_of(self):
        assert spaces.space_of(spaces.local_dram(4)) is spaces.Space.LOCAL_DRAM
        assert spaces.space_of(spaces.global_dram(4)) is spaces.Space.GLOBAL_DRAM

    def test_is_dram(self):
        assert spaces.is_dram(spaces.local_dram(0))
        assert spaces.is_dram(spaces.group_dram(0, 0, 0))
        assert spaces.is_dram(spaces.global_dram(0))
        assert not spaces.is_dram(spaces.local_spm(0))
        assert not spaces.is_dram(spaces.group_spm(0, 0, 0))

    def test_spaces_are_disjoint(self):
        addrs = {
            spaces.local_spm(0x100),
            spaces.group_spm(0, 0, 0x100),
            spaces.local_dram(0x100),
            spaces.group_dram(0, 0, 0x100),
            spaces.global_dram(0x100),
        }
        assert len(addrs) == 5

    def test_decode_rejects_bad_tag(self):
        with pytest.raises(ValueError):
            spaces.decode(7 << spaces.TAG_SHIFT)

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            spaces.decode(-1)

    def test_offset_range_check(self):
        with pytest.raises(ValueError):
            spaces.encode(spaces.Space.LOCAL_DRAM, 1 << 33)


class TestHashing:
    def test_ipoly_in_range(self):
        for banks in (2, 4, 8, 16, 32, 64):
            for line in range(200):
                assert 0 <= hashing.ipoly_hash(line, banks) < banks

    def test_ipoly_requires_pow2(self):
        with pytest.raises(ValueError):
            hashing.ipoly_hash(1, 12)

    def test_single_bank(self):
        assert hashing.ipoly_hash(123, 1) == 0

    def test_modulo(self):
        assert hashing.modulo_hash(37, 8) == 5
        with pytest.raises(ValueError):
            hashing.modulo_hash(1, 0)

    def test_sequential_lines_balanced_under_ipoly(self):
        score = hashing.stride_camping_score(32, 1, 2048, use_ipoly=True)
        assert score < 1.5

    def test_pow2_stride_camps_under_modulo(self):
        # Stride of 32 lines onto 32 banks: total camping.
        score = hashing.stride_camping_score(32, 32, 1024, use_ipoly=False)
        assert score == pytest.approx(32.0)

    def test_pow2_stride_balanced_under_ipoly(self):
        score = hashing.stride_camping_score(32, 32, 1024, use_ipoly=True)
        assert score < 2.0

    def test_ipoly_is_deterministic(self):
        assert [hashing.ipoly_hash(i, 16) for i in range(50)] == [
            hashing.ipoly_hash(i, 16) for i in range(50)
        ]


class TestTranslator:
    @pytest.fixture
    def chip(self):
        return ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=1)

    @pytest.fixture
    def translator(self, chip):
        return Translator(chip, block_bytes=64, use_ipoly=True)

    def test_local_spm_stays_home(self, translator):
        tile = (1, 2)
        dest = translator.translate(spaces.local_spm(0x80), tile)
        assert dest.kind is TargetKind.SPM
        assert dest.node == tile
        assert dest.mem_addr == 0x80

    def test_group_spm_targets_named_tile(self, translator):
        dest = translator.translate(spaces.group_spm(2, 3, 0x10), (0, 1))
        assert dest.kind is TargetKind.SPM
        assert dest.node == (2, 3)

    def test_group_spm_rejects_cache_rows(self, translator):
        with pytest.raises(ValueError):
            translator.translate(spaces.group_spm(0, 0, 0x10), (0, 1))

    def test_local_dram_stays_in_cell(self, translator, chip):
        tile = (1, 2)  # cell (0, 0)
        for off in range(0, 4096, 64):
            dest = translator.translate(spaces.local_dram(off), tile)
            assert dest.kind is TargetKind.CACHE
            assert dest.cell_xy == (0, 0)

    def test_local_dram_from_other_cell(self, translator, chip):
        tile = (5, 2)  # cell (1, 0)
        dest = translator.translate(spaces.local_dram(0), tile)
        assert dest.cell_xy == (1, 0)

    def test_group_dram_targets_named_cell(self, translator):
        dest = translator.translate(spaces.group_dram(1, 0, 0x40), (1, 2))
        assert dest.cell_xy == (1, 0)

    def test_group_dram_rejects_bad_cell(self, translator):
        with pytest.raises(ValueError):
            translator.translate(spaces.group_dram(5, 5, 0), (1, 2))

    def test_same_offset_same_bank_for_all_requesters(self, translator):
        a = translator.translate(spaces.local_dram(0x1000), (1, 1))
        b = translator.translate(spaces.local_dram(0x1000), (2, 3))
        assert a.node == b.node
        assert a.mem_addr == b.mem_addr

    def test_local_dram_striped_across_banks(self, translator):
        banks = {
            translator.translate(spaces.local_dram(off), (1, 1)).bank_index
            for off in range(0, 64 * 64, 64)
        }
        assert len(banks) > 4

    def test_global_dram_spreads_over_cells(self, translator):
        cells = {
            translator.translate(spaces.global_dram(off), (1, 1)).cell_xy
            for off in range(0, 64 * 128, 64)
        }
        assert cells == {(0, 0), (1, 0)}

    def test_global_dram_disjoint_backing_addresses(self, translator):
        g = translator.translate(spaces.global_dram(0x40), (1, 1))
        assert g.mem_addr == GLOBAL_DRAM_BASE + 0x40

    def test_words_in_same_line_share_bank(self, translator):
        dests = {
            translator.translate(spaces.local_dram(0x400 + w * 4), (1, 1)).bank_index
            for w in range(16)
        }
        assert len(dests) == 1

    def test_modulo_variant_camps(self, chip):
        tr = Translator(chip, block_bytes=64, use_ipoly=False)
        banks = {
            tr.translate(spaces.local_dram(off * 64 * 8), (1, 1)).bank_index
            for off in range(32)
        }
        ip = Translator(chip, block_bytes=64, use_ipoly=True)
        banks_ip = {
            ip.translate(spaces.local_dram(off * 64 * 8), (1, 1)).bank_index
            for off in range(32)
        }
        assert len(banks_ip) > len(banks)


class TestDestinationIsAValue:
    DEST = Destination(node=(5, 0), kind=TargetKind.CACHE, cell_xy=(1, 0),
                       bank_index=3, mem_addr=0x40)

    def test_equality_and_hash_follow_the_fields(self):
        twin = Destination((5, 0), TargetKind.CACHE, (1, 0), 3, 0x40)
        assert twin == self.DEST and hash(twin) == hash(self.DEST)
        assert len({twin, self.DEST}) == 1
        fields = dict(node=(5, 0), kind=TargetKind.CACHE, cell_xy=(1, 0),
                      bank_index=3, mem_addr=0x40)
        for field, other in (("node", (5, 9)), ("kind", TargetKind.SPM),
                             ("cell_xy", (0, 0)), ("bank_index", 4),
                             ("mem_addr", 0x44)):
            assert Destination(**{**fields, field: other}) != self.DEST
        assert self.DEST != (self.DEST.node, self.DEST.kind,
                             self.DEST.cell_xy, 3, 0x40)

    def test_pickles_and_copies(self):
        for proto in range(2, pickle.HIGHEST_PROTOCOL + 1):
            clone = pickle.loads(pickle.dumps(self.DEST, proto))
            assert clone == self.DEST and clone is not self.DEST
            assert clone.kind is TargetKind.CACHE
        assert copy.deepcopy(self.DEST) == self.DEST

    def test_repr_names_the_five_fields(self):
        assert repr(self.DEST) == (
            "Destination(node=(5, 0), kind=<TargetKind.CACHE: 'cache'>, "
            "cell_xy=(1, 0), bank_index=3, mem_addr=64)")

    def test_no_instance_dict(self):
        assert not hasattr(self.DEST, "__dict__")


# -- table translation vs the decode()-based reference -----------------------

#: (chip, translator keyword arguments): one Cell, two Cells side by side,
#: and a 2x2 chip whose global space is cut into 1x2 grids.
_CHIPS = [
    (ChipGeometry(CellGeometry(16, 8), cells_x=1, cells_y=1), {}),
    (ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=1), {}),
    (ChipGeometry(CellGeometry(4, 4), cells_x=2, cells_y=2),
     {"grid_cells": (1, 2)}),
]

#: Raw integers, not the ``spaces.*`` constructors: tags 6 and 7 name no
#: space, fields reach past every chip above, and the sign is free.
_raw_addrs = st.builds(
    lambda sign, tag, fa, fb, off: sign * (
        (tag << spaces.TAG_SHIFT) | (fa << spaces.FIELD_A_SHIFT)
        | (fb << spaces.FIELD_B_SHIFT) | off),
    st.sampled_from([1, 1, 1, 1, -1]),
    st.integers(0, 7),
    st.integers(0, 20), st.integers(0, 12),
    st.one_of(st.integers(0, 0x3FFF),
              st.integers(0, spaces.OFFSET_MASK)))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # compared by type and message below
        return (type(exc), str(exc))


@pytest.mark.parametrize("use_ipoly", [True, False])
@pytest.mark.parametrize("chip_index", range(len(_CHIPS)))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_table_translation_matches_decode_reference(chip_index, use_ipoly,
                                                    data):
    chip, kwargs = _CHIPS[chip_index]
    fast = Translator(chip, block_bytes=64, use_ipoly=use_ipoly, **kwargs)
    # Issuing nodes: mostly on the chip, sometimes one step off it.
    nodes = st.tuples(st.integers(0, chip.grid_cols),
                      st.integers(0, chip.grid_rows))
    for addr, node in data.draw(st.lists(st.tuples(_raw_addrs, nodes),
                                         min_size=1, max_size=30)):
        want = _outcome(reference_translate, fast, addr, node)
        # Twice: the first call may fill table rows, the second reads them.
        assert _outcome(fast.translate, addr, node) == want
        assert _outcome(fast.translate, addr, node) == want


def test_translation_error_messages():
    chip, _ = _CHIPS[1]
    tr = Translator(chip, block_bytes=64, use_ipoly=True)
    cases = [
        (-5, (1, 1), "addresses are unsigned"),
        (7 << spaces.TAG_SHIFT, (1, 1), "unknown address-space tag 7"),
        (spaces.group_spm(1, 0, 0), (1, 1), "targets a cache node (1, 0)"),
        (spaces.group_spm(9, 1, 0), (1, 1), "node (9, 1) outside the chip"),
        (spaces.group_dram(2, 0, 0), (1, 1), "cell (2, 0) out of range"),
        (spaces.pim_window(0, 1), (1, 1), "cell (0, 1) out of range"),
        (spaces.local_dram(0), (8, 1), "node (8, 1) outside the chip"),
    ]
    for addr, node, message in cases:
        with pytest.raises(ValueError, match=message.replace("(", r"\(")
                           .replace(")", r"\)")):
            tr.translate(addr, node)
        with pytest.raises(ValueError):
            reference_translate(tr, addr, node)


def test_tables_are_keyed_by_node_cell_and_line_not_by_address_and_tile():
    chip, _ = _CHIPS[0]
    tr = Translator(chip, block_bytes=64, use_ipoly=True)
    tiles = [(x, y) for x in range(16) for y in range(1, 9)]
    for tile in tiles:
        for word in range(64):  # 128 tiles x 64 words of four lines
            tr.translate(spaces.local_dram(4 * word), tile)
    assert len(tr._nodes) == len(tiles)
    assert len(tr._cells) == 1
    assert len(tr._bank_of) == 4
    assert not tr._global
