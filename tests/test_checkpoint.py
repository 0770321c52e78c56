import json
import struct

import numpy as np
import pytest

from dctm.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dctm.errors import DataError, NumericalError
from dctm.layers import Arena
from dctm.tensor import Tensor
from dctm.transformer import MultiHeadAttention


def arena_of(records, dtype):
    """An arena of parameters shaped like ``records`` (name, array) pairs,
    in their order, holding their values cast to ``dtype``."""
    return Arena([(name, Tensor(np.asarray(a, np.float64), requires_grad=True))
                  for name, a in records], dtype)


def blank(records, dtype):
    """An arena laid out like ``records``, every value zero."""
    return arena_of([(name, np.zeros(np.shape(a))) for name, a in records], dtype)


def saved(path, records, dtype=np.float32):
    """Save ``records`` as a ``dtype`` arena at ``path``; its bytes."""
    arena = arena_of(records, dtype)
    save_checkpoint(path, arena, arena.flat)
    return path.read_bytes()


def write_raw(path, header, payload=b""):
    """A DCTM2 file with ``header`` (a JSON value, or raw bytes) and ``payload``."""
    text = header if isinstance(header, bytes) else json.dumps(header).encode()
    path.write_bytes(MAGIC + struct.pack("<Q", len(text)) + text + payload)


def test_round_trip_bit_exact(tmp_path, rng):
    """At either precision the payload is the arena's bytes, a load restores
    them bit for bit, and a re-save is byte-identical."""
    arrays = [
        ("enc.0.weight", rng.standard_normal((4, 3, 5))),
        ("enc.0.bias", rng.standard_normal(4)),
        ("head.weight", rng.standard_normal((8, 1))),
        ("scalar", np.float64(1.5).reshape(())),
    ]
    for dtype in (np.float32, np.float64):
        source = arena_of(arrays, dtype)
        path = tmp_path / f"{np.dtype(dtype)}.dctm"
        save_checkpoint(path, source, source.flat)
        assert path.read_bytes().endswith(source.flat.tobytes())
        arena = blank(arrays, dtype)
        load_checkpoint(path, arena)
        assert arena.params[-1][1].shape == ()
        assert arena.flat.dtype == dtype and arena.flat.tobytes() == source.flat.tobytes()
        for (_, want), (_, p) in zip(arrays, arena.params):
            assert p.data.tobytes() == np.asarray(want, dtype).tobytes()
        save_checkpoint(tmp_path / "again.dctm", arena, arena.flat)
        assert (tmp_path / "again.dctm").read_bytes() == path.read_bytes()


def test_magic_bytes_lead_the_file(tmp_path):
    blob = saved(tmp_path / "m.dctm", [("w", np.zeros(2)), ("s", np.zeros(()))])
    assert blob[:5] == MAGIC == b"DCTM2"
    (n,) = struct.unpack("<Q", blob[5:13])
    assert json.loads(blob[13:13 + n]) == {"dtype": "<f4", "records": [["w", [2]], ["s", []]]}
    assert len(blob) == 13 + n + 3 * 4


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.dctm"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(DataError, match="bad magic, not a DCTM2 checkpoint"):
        load_checkpoint(path, blank([], np.float32))


def test_dctm1_file_is_refused_by_its_format_name(tmp_path):
    """The record-table format that stored every record as float32; it has
    no second reader."""
    path = tmp_path / "old.dctm"
    path.write_bytes(b"DCTM1" + struct.pack("<QQ", 1, 1) + b"w" + struct.pack("<QQ", 1, 2)
                     + np.ones(2, np.float32).tobytes())
    arena = blank([("w", np.zeros(2))], np.float32)
    with pytest.raises(DataError, match="old.dctm: bad magic, a DCTM1 file, a format this "
                                        "version no longer reads"):
        load_checkpoint(path, arena)
    assert not arena.flat.any()


def test_failed_save_leaves_the_old_checkpoint_whole(tmp_path, rng):
    path = tmp_path / "m.dctm"
    before = saved(path, [("w", rng.standard_normal((3, 2)))])
    arena = arena_of([("w", np.ones((3, 2)))], np.float32)
    # a buffer not in the arena's dtype is refused before the file is opened
    with pytest.raises(ValueError, match="not in the arena's layout"):
        save_checkpoint(path, arena, arena.flat.astype(np.float64))
    # a strided buffer fails after the header is written
    with pytest.raises(BufferError):
        save_checkpoint(path, arena, np.ones(12, np.float32)[::2])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_restore_matches_by_name_and_shape(tmp_path, rng):
    """Records are matched by name and shape in arena order."""
    w, b = rng.standard_normal((3, 2)), rng.standard_normal(4)
    saved(tmp_path / "a.dctm", [("w", w), ("b", b)])
    arena = blank([("w", w), ("b", b)], np.float32)
    load_checkpoint(tmp_path / "a.dctm", arena)
    np.testing.assert_array_equal(arena.params[0][1].data, w.astype(np.float32))
    np.testing.assert_array_equal(arena.params[1][1].data, b.astype(np.float32))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_reads_each_record_into_its_arena_view(tmp_path, rng, dtype):
    """Each record lands in its parameter's view of the arena, which stays
    bound: a float32 arena receives the file's bytes, a float64 one exactly
    ``record.astype(float64)``."""
    records = [("w", rng.standard_normal((3, 2)).astype(np.float32)),
               ("b", rng.standard_normal(5).astype(np.float32))]
    saved(tmp_path / "a.dctm", records)
    arena = blank(records, dtype)
    views = [p.data for _, p in arena.params]
    load_checkpoint(tmp_path / "a.dctm", arena)
    for (_, want), (_, p), view in zip(records, arena.params, views):
        assert p.data is view and p.data.base is arena.flat and p.data.flags.writeable
        assert p.data.dtype == dtype
        assert p.data.tobytes() == want.astype(dtype).tobytes()


def test_float64_file_into_float32_arena_equals_astype(tmp_path, rng):
    """A run scored at an overridden precision casts the payload once."""
    records = [("w", rng.standard_normal((3, 2))), ("b", rng.standard_normal(5))]
    source = arena_of(records, np.float64)
    save_checkpoint(tmp_path / "a.dctm", source, source.flat)
    arena = blank(records, np.float32)
    load_checkpoint(tmp_path / "a.dctm", arena)
    assert arena.flat.tobytes() == source.flat.astype(np.float32).tobytes()


def test_restore_shape_mismatch_names_tensor(tmp_path):
    saved(tmp_path / "a.dctm", [("conv.weight", np.zeros((2, 2)))])
    with pytest.raises(DataError, match="conv.weight"):
        load_checkpoint(tmp_path / "a.dctm", blank([("conv.weight", np.zeros((3, 2)))],
                                                   np.float32))


def test_restore_missing_tensor_reported(tmp_path):
    saved(tmp_path / "a.dctm", [("other", np.ones(2))])
    arena = blank([("w", np.zeros(2))], np.float32)
    with pytest.raises(DataError, match=r"mismatch: missing \['w'\], unexpected \['other'\]"):
        load_checkpoint(tmp_path / "a.dctm", arena)
    assert not arena.flat.any()


def test_shape_mismatch_is_refused_before_any_write(tmp_path):
    saved(tmp_path / "a.dctm", [("a", np.ones(2)), ("b", np.ones(3))])
    arena = blank([("a", np.ones(2)), ("b", np.ones(4))], np.float32)
    with pytest.raises(DataError, match=r"'b' has shape \(3,\), model expects \(4,\)"):
        load_checkpoint(tmp_path / "a.dctm", arena)
    assert not arena.flat.any()


A, B = ("a", np.ones(2)), ("b", np.ones((3, 1)))


# missing and mis-shaped records are refused by the tests above
@pytest.mark.parametrize("records, message", [
    ([A, B, ("c", np.ones(1))], r"missing \[\], unexpected \['c'\]"),
    ([B, A], "record 0 is 'b' where the model has 'a': out of order"),
    ([A, B, B], "3 records where the model has 2"),
], ids=["extra", "reordered", "duplicated"])
def test_layout_refusals_happen_before_any_write(tmp_path, records, message):
    arena = arena_of(records, np.float32)
    save_checkpoint(tmp_path / "a.dctm", arena, arena.flat)
    target = blank([A, B], np.float32)
    with pytest.raises(DataError, match=message):
        load_checkpoint(tmp_path / "a.dctm", target)
    assert not target.flat.any()


@pytest.mark.parametrize("header, message", [
    (b"{not json", "malformed header"),
    (b'{"dtype": "<f4", "records": [["\xff", [2]]]}', "malformed header"),
    (["<f4"], "malformed header"),
    ({"dtype": "<f4"}, "malformed header"),
    ({"dtype": "<f4", "records": [["a", [-2]]]}, "malformed header"),
    ({"dtype": "<f4", "records": [["a", ["2"]]]}, "malformed header"),
    ({"dtype": "<f4", "records": [["a", [2], "x"]]}, "malformed header"),
    ({"dtype": "<f4", "records": [["a", [2]]], "extra": 1}, "malformed header"),
    ({"dtype": "<f2", "records": [["a", [2]]]}, "unsupported dtype '<f2'"),
    ({"dtype": ">f4", "records": [["a", [2]]]}, "unsupported dtype '>f4'"),
], ids=["not-json", "not-utf8", "not-a-dict", "no-records", "negative-dim", "string-dim",
        "long-record", "extra-key", "half", "big-endian"])
def test_malformed_header_is_refused_before_any_write(tmp_path, header, message):
    path = tmp_path / "h.dctm"
    write_raw(path, header, np.ones(2, np.float32).tobytes())
    arena = blank([("a", np.zeros(2))], np.float32)
    with pytest.raises(DataError, match=f"h.dctm: {message}"):
        load_checkpoint(path, arena)
    assert not arena.flat.any()


def test_header_length_past_the_end_of_file(tmp_path):
    path = tmp_path / "h.dctm"
    path.write_bytes(MAGIC + struct.pack("<Q", 2 ** 63) + b"{}")
    with pytest.raises(DataError, match=rf"h.dctm: truncated in the header: needs {2 ** 63} "
                                        r"bytes at offset 13, 2 left"):
        load_checkpoint(path, blank([], np.float32))


# records 'enc.a' (2, 3) and 'enc.b' (2,) in float32: magic 0-5, header
# length 5-13, header 13-h (h = 77), payload h to h + 32 ('enc.a' h to
# h + 24); a negative cut counts from the end
@pytest.mark.parametrize("cut, part", [
    (9, "the header length"), (17, "the header"), (23, "the header"), (30, "the header"),
    (40, "the header"),
    (-32, r"the payload \(record 'enc.a'\)"), (-20, r"the payload \(record 'enc.a'\)"),
    (-5, r"the payload \(record 'enc.b'\)")])
def test_truncated_file_names_the_part(tmp_path, cut, part):
    path = tmp_path / "t.dctm"
    records = [("enc.a", np.arange(6.0).reshape(2, 3)), ("enc.b", np.ones(2))]
    blob = saved(path, records)
    path.write_bytes(blob[:cut])
    arena = blank(records, np.float32)
    with pytest.raises(DataError, match=f"t.dctm: truncated in {part}"):
        load_checkpoint(path, arena)
    assert not arena.flat.any()


def test_cut_inside_a_later_payload_names_it_and_writes_nothing(tmp_path):
    path = tmp_path / "t.dctm"
    records = [("a", np.ones(4)), ("b", np.ones(6))]
    path.write_bytes(saved(path, records)[:-5])
    arena = blank(records, np.float32)
    with pytest.raises(DataError, match=r"t.dctm: truncated in the payload \(record 'b'\): "
                                        r"needs 40 bytes at offset \d+, 35 left"):
        load_checkpoint(path, arena)
    assert not arena.flat.any()


def test_non_utf8_name_is_a_data_error(tmp_path):
    path = tmp_path / "n.dctm"
    blob = bytearray(saved(path, [("enc.w", np.zeros(2))]))
    blob[blob.index(b"enc.w")] = 0xFF  # first byte of the name
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="n.dctm: malformed header"):
        load_checkpoint(path, blank([("enc.w", np.zeros(2))], np.float32))


def test_truncated_payload_detected(tmp_path):
    """Bytes after the payload are refused too."""
    path = tmp_path / "t.dctm"
    path.write_bytes(saved(path, [("w", np.arange(6.0))]) + b"\x00\x00")
    arena = blank([("w", np.zeros(6))], np.float32)
    with pytest.raises(DataError, match="t.dctm: 2 trailing bytes after the payload"):
        load_checkpoint(path, arena)
    assert not arena.flat.any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_non_finite_value_names_its_parameter_and_index(tmp_path, bad, dtype):
    records = [("a", np.ones(3)), ("b", np.ones((2, 3))), ("c", np.ones(()))]
    source = arena_of(records, dtype)
    source.params[1][1].data[1, 2] = bad
    save_checkpoint(tmp_path / "a.dctm", source, source.flat)
    with pytest.raises(NumericalError, match=rf"checkpoint tensor 'b' holds {bad} at index "
                                             r"\(1, 2\)"):
        load_checkpoint(tmp_path / "a.dctm", blank(records, dtype))


def test_separate_attention_projection_records_are_refused(tmp_path):
    """Attention's records were ``wq.weight`` ... ``wo.bias`` before it packed
    q|k|v into ``w_in``; such a checkpoint is refused before anything is written."""
    saved(tmp_path / "a.dctm", [(f"w{k}.{part}", np.ones(shape))
                                for k in "qkvo" for part, shape in (("weight", (4, 4)),
                                                                     ("bias", (4,)))])
    mha = MultiHeadAttention(4, 2, None)
    arena = Arena(mha.named_parameters(), np.float32)
    with pytest.raises(DataError, match=r"missing \['b_in', 'b_out', 'w_in', 'w_out'\]"):
        load_checkpoint(tmp_path / "a.dctm", arena)
    assert not arena.flat.any()
