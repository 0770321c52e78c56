import numpy as np
import pytest

from dctm.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dctm.errors import DataError
from dctm.layers import Arena
from dctm.tensor import Tensor
from dctm.transformer import MultiHeadAttention


def blank(records, dtype):
    """Zeroed (name, parameter) pairs shaped like ``records``."""
    return [(name, Tensor(np.zeros(np.shape(a), dtype), requires_grad=True))
            for name, a in records]


def test_round_trip_bit_exact(tmp_path, rng):
    arrays = [
        ("enc.0.weight", rng.standard_normal((4, 3, 5)).astype(np.float32)),
        ("enc.0.bias", rng.standard_normal(4).astype(np.float32)),
        ("head.weight", rng.standard_normal((8, 1)).astype(np.float32)),
        ("scalar", np.float32(1.5).reshape(())),
    ]
    path = tmp_path / "model.dctm"
    save_checkpoint(path, arrays)
    # save_checkpoint writes a 0-d array as shape (1,)
    params = blank(arrays[:-1] + [("scalar", np.zeros(1))], np.float32)
    load_checkpoint(path, params)
    for (_, arr), (_, p) in zip(arrays, params):
        assert p.data.dtype == np.float32
        np.testing.assert_array_equal(p.data, arr)
        assert p.data.tobytes() == np.ascontiguousarray(arr).tobytes()
    save_checkpoint(tmp_path / "again.dctm", [(n, p.data) for n, p in params])
    assert (tmp_path / "again.dctm").read_bytes() == path.read_bytes()


def test_magic_bytes_lead_the_file(tmp_path):
    path = tmp_path / "m.dctm"
    save_checkpoint(path, [("w", np.zeros(2, dtype=np.float32))])
    assert path.read_bytes()[:5] == MAGIC == b"DCTM1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.dctm"
    path.write_bytes(b"NOPE!" + b"\x00" * 16)
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path, [])


def test_failed_save_leaves_the_old_checkpoint_whole(tmp_path, rng):
    path = tmp_path / "m.dctm"
    save_checkpoint(path, [("w", rng.standard_normal((3, 2)).astype(np.float32))])
    before = path.read_bytes()
    # the second record cannot be cast to float32, so the save fails midway
    with pytest.raises(ValueError):
        save_checkpoint(path, [("w", np.ones((3, 2))), ("bad", np.array(["x"]))])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_restore_matches_by_name_and_shape(tmp_path, rng):
    w = rng.standard_normal((3, 2)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    save_checkpoint(tmp_path / "a.dctm", [("w", w), ("b", b)])
    params = blank([("b", b), ("w", w)], np.float32)
    load_checkpoint(tmp_path / "a.dctm", params)
    np.testing.assert_array_equal(params[0][1].data, b)
    np.testing.assert_array_equal(params[1][1].data, w)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_load_reads_each_record_into_its_arena_view(tmp_path, rng, dtype):
    """Each record lands in its parameter's view of the arena, which stays
    bound: a float32 arena receives the file's bytes, a float64 one exactly
    ``record.astype(float64)``."""
    records = [("w", rng.standard_normal((3, 2)).astype(np.float32)),
               ("b", rng.standard_normal(5).astype(np.float32))]
    save_checkpoint(tmp_path / "a.dctm", records)
    params = blank(records, dtype)
    arena = Arena(params)
    views = [p.data for _, p in params]
    load_checkpoint(tmp_path / "a.dctm", params)
    for (_, want), (_, p), view in zip(records, params, views):
        assert p.data is view and p.data.base is arena.flat and p.data.flags.writeable
        assert p.data.dtype == dtype
        assert p.data.tobytes() == want.astype(dtype).tobytes()


def test_restore_shape_mismatch_names_tensor(tmp_path):
    save_checkpoint(tmp_path / "a.dctm", [("conv.weight", np.zeros((2, 2), dtype=np.float32))])
    p = Tensor(np.zeros((3, 2), dtype=np.float32), requires_grad=True)
    with pytest.raises(DataError, match="conv.weight"):
        load_checkpoint(tmp_path / "a.dctm", [("conv.weight", p)])


def test_restore_missing_tensor_reported(tmp_path):
    save_checkpoint(tmp_path / "a.dctm", [("other", np.zeros(2, dtype=np.float32))])
    p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
    with pytest.raises(DataError, match="mismatch"):
        load_checkpoint(tmp_path / "a.dctm", [("w", p)])


def test_shape_mismatch_is_refused_before_any_write(tmp_path):
    save_checkpoint(tmp_path / "a.dctm", [("a", np.ones(2, np.float32)),
                                          ("b", np.ones(3, np.float32))])
    params = blank([("a", np.ones(2)), ("b", np.ones(4))], np.float32)
    with pytest.raises(DataError, match=r"'b' has shape \(3,\), model expects \(4,\)"):
        load_checkpoint(tmp_path / "a.dctm", params)
    assert not any(p.data.any() for _, p in params)


def test_separate_attention_projection_records_are_refused(tmp_path):
    """Attention's records were ``wq.weight`` ... ``wo.bias`` before it packed
    q|k|v into ``w_in``; such a checkpoint is refused before anything is written."""
    old = [(f"w{k}.{part}", np.ones(shape, np.float32))
           for k in "qkvo" for part, shape in (("weight", (4, 4)), ("bias", (4,)))]
    save_checkpoint(tmp_path / "a.dctm", old)
    mha = MultiHeadAttention(4, 2, None)
    with pytest.raises(DataError, match=r"missing \['b_in', 'b_out', 'w_in', 'w_out'\]"):
        load_checkpoint(tmp_path / "a.dctm", mha.named_parameters())
    assert not any(p.data.any() for _, p in mha.named_parameters())


# one record 'enc.w' of shape (2, 3): magic 0-5, count 5-13, name length
# 13-21, name 21-26, rank 26-34, dims 34-50, payload 50-74
@pytest.mark.parametrize("cut, part", [
    (9, "the record count"), (17, "record 0 name length"), (23, "record 0 name"),
    (30, r"record 0 \('enc.w'\) rank"), (40, r"record 0 \('enc.w'\) shape"),
    (50, r"record 0 \('enc.w'\) payload"), (71, r"record 0 \('enc.w'\) payload")])
def test_truncated_file_names_record(tmp_path, cut, part):
    path = tmp_path / "t.dctm"
    save_checkpoint(path, [("enc.w", np.arange(6, dtype=np.float32).reshape(2, 3))])
    blob = path.read_bytes()
    assert len(blob) == 74
    path.write_bytes(blob[:cut])
    with pytest.raises(DataError, match=f"t.dctm: truncated in {part}"):
        load_checkpoint(path, blank([("enc.w", np.zeros((2, 3)))], np.float32))


def test_cut_inside_a_later_payload_names_it_and_writes_nothing(tmp_path):
    path = tmp_path / "t.dctm"
    records = [("a", np.ones(4, np.float32)), ("b", np.ones(6, np.float32))]
    save_checkpoint(path, records)
    path.write_bytes(path.read_bytes()[:-5])
    params = blank(records, np.float32)
    with pytest.raises(DataError, match=r"t.dctm: truncated in record 1 \('b'\) payload: "
                                        r"needs 24 bytes at offset \d+, 19 left"):
        load_checkpoint(path, params)
    assert not any(p.data.any() for _, p in params)


def test_non_utf8_name_is_a_data_error(tmp_path):
    path = tmp_path / "n.dctm"
    save_checkpoint(path, [("enc.w", np.zeros(2, dtype=np.float32))])
    blob = bytearray(path.read_bytes())
    blob[21] = 0xFF  # first byte of the name
    path.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="record 0 name is not UTF-8"):
        load_checkpoint(path, blank([("enc.w", np.zeros(2))], np.float32))


def test_truncated_payload_detected(tmp_path):
    path = tmp_path / "t.dctm"
    save_checkpoint(path, [("w", np.arange(6, dtype=np.float32))])
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00\x00")
    with pytest.raises(DataError, match="trailing"):
        load_checkpoint(path, blank([("w", np.zeros(6))], np.float32))
