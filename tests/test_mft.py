import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from moeforge import mft
from moeforge.mft import MftError, read_mft, write_mft
from moeforge.tensor import Rng


class TestRoundTrip:
    def test_lossless(self, tmp_path):
        path = str(tmp_path / "t.mft")
        rng = Rng(0)
        tensors = {
            "w_up": rng.normal_array((4, 6)),
            "w_gate": rng.normal_array((4, 6)),
            "w_down": rng.normal_array((6, 4)),
            "scalarish": np.array([3.0]),
        }
        write_mft(path, tensors)
        back = read_mft(path)
        assert set(back) == set(tensors)
        for name in tensors:
            assert np.array_equal(back[name], tensors[name])
            assert back[name].dtype == np.float64

    def test_rewrite_bytewise_identical(self, tmp_path):
        a, b = str(tmp_path / "a.mft"), str(tmp_path / "b.mft")
        tensors = {"x": Rng(1).normal_array((3, 3))}
        write_mft(a, tensors)
        write_mft(b, tensors)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_extreme_values_preserved(self, tmp_path):
        path = str(tmp_path / "e.mft")
        vals = np.array([0.0, -0.0, 1e-308, 1e308, np.pi])
        write_mft(path, {"v": vals})
        back = read_mft(path)["v"]
        assert np.array_equal(back, vals)
        assert np.signbit(back[1])

    def test_empty_file(self, tmp_path):
        path = str(tmp_path / "empty.mft")
        write_mft(path, {})
        assert read_mft(path) == {}


class TestErrors:
    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "bad.mft")
        with open(path, "wb") as f:
            f.write(b"NOPE" + b"\x00" * 8)
        with pytest.raises(MftError):
            read_mft(path)

    def test_truncated(self, tmp_path):
        path = str(tmp_path / "t.mft")
        write_mft(path, {"x": np.ones((4, 4))})
        data = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(data[:-8])
        with pytest.raises(MftError):
            read_mft(path)

    @pytest.mark.parametrize("cut", [86, 90, 96])
    def test_file_shorter_than_its_size_at_open(self, tmp_path, monkeypatch, cut):
        # a file cut while it is read: os.fstat still reports the full size,
        # so only the length of what each read returned shows the cut
        path = tmp_path / "t.mft"
        write_mft(str(path), {"a": np.ones((2, 3)), "b": np.ones(4)})
        full = path.stat().st_size
        path.write_bytes(path.read_bytes()[:cut])
        stat = SimpleNamespace(st_size=full)
        monkeypatch.setattr(mft, "os", SimpleNamespace(fstat=lambda fd: stat))
        with pytest.raises(MftError, match="truncated"):
            read_mft(str(path))

    def test_trailing_bytes(self, tmp_path):
        path = str(tmp_path / "t.mft")
        write_mft(path, {"x": np.ones(2)})
        with open(path, "ab") as f:
            f.write(b"junk")
        with pytest.raises(MftError):
            read_mft(path)


def header(name: bytes, dims) -> bytes:
    """An MFT header for one tensor, without its payload."""
    return (b"MFT1" + struct.pack("<II", 1, len(name)) + name
            + struct.pack(f"<I{len(dims)}Q", len(dims), *dims))


class TestHeaderDims:
    def test_dims_product_beyond_int64(self, tmp_path):
        # 2**62 * 4 wraps to 0 in uint64 arithmetic
        path = str(tmp_path / "huge.mft")
        with open(path, "wb") as f:
            f.write(header(b"w_up", (2**62, 4)) + b"\x00" * 64)
        with pytest.raises(MftError, match="truncated payload for 'w_up'"):
            read_mft(path)

    def test_rank_beyond_file(self, tmp_path):
        path = str(tmp_path / "rank.mft")
        with open(path, "wb") as f:
            f.write(b"MFT1" + struct.pack("<II", 1, 1) + b"x" + struct.pack("<I", 2**32 - 1))
        with pytest.raises(MftError, match="truncated file"):
            read_mft(path)

    def test_zero_size_with_huge_dim(self, tmp_path):
        path = str(tmp_path / "zero.mft")
        with open(path, "wb") as f:
            f.write(header(b"v", (0, 2**63)))
        with pytest.raises(MftError, match="'v'"):
            read_mft(path)

    def test_name_not_utf8(self, tmp_path):
        path = str(tmp_path / "name.mft")
        with open(path, "wb") as f:
            f.write(header(b"\xff\xfe", (1,)) + b"\x00" * 8)
        with pytest.raises(MftError, match="UTF-8"):
            read_mft(path)


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    TENSORS = {"w_up": (256, 2048), "w_gate": (256, 2048), "bias": (7,)}

    def tensors(self):
        return {name: np.full(shape, 0.5) for name, shape in self.TENSORS.items()}

    def test_read_holds_only_the_payload(self, tmp_path):
        path = str(tmp_path / "m.mft")
        tensors = self.tensors()
        write_mft(path, tensors)
        payload = sum(t.nbytes for t in tensors.values())
        assert peak_traced_bytes(read_mft, path) <= payload + 1e6

    def test_write_copies_nothing(self, tmp_path):
        tensors = self.tensors()
        assert peak_traced_bytes(write_mft, str(tmp_path / "m.mft"), tensors) <= 1e6
