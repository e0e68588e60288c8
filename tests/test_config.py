"""The self-hashing frame that checkpoints and images.bin share."""
from hashlib import sha256

import numpy as np
import pytest

from retentive.config import read_framed, write_framed
from retentive.errors import CorruptArtifactError

MAGIC = b"TESTFRM1"


def _listed(header):
    return header["shapes"]


def test_framed_round_trip_joins_the_payload_parts(tmp_path):
    """A payload written in parts reads back as the arrays its header lists,
    cut wherever the header says, as read-only views; the file is the one its
    joined payload would make: the digest covers header and payload."""
    values = np.arange(10.0)
    parts = [values[:3], b"", memoryview(values[3:].tobytes())]
    header = {"shapes": [[2], [0], [2, 4]], "a": None}
    digest = write_framed(tmp_path / "parts.bin", MAGIC, 7, header, *parts)
    got, arrays, got_digest = read_framed(tmp_path / "parts.bin", "frame", MAGIC, 7,
                                          CorruptArtifactError, _listed)
    assert got == header and got_digest == digest
    assert [a.shape for a in arrays] == [(2,), (0,), (2, 4)]
    assert all(a.dtype == np.float64 and not a.flags.writeable for a in arrays)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), values)
    blob = (tmp_path / "parts.bin").read_bytes()
    assert blob[:len(MAGIC)] == MAGIC
    assert blob[-32:].hex() == digest == sha256(blob[len(MAGIC) + 8:-32]).hexdigest()
    assert write_framed(tmp_path / "whole.bin", MAGIC, 7, header, values.tobytes()) == digest
    assert (tmp_path / "whole.bin").read_bytes() == blob


@pytest.mark.parametrize("magic, version, message", [
    (b"OTHERMG1", 7, "frame {path} has a foreign magic header"),
    (MAGIC, 8, "frame version 7 unsupported; expected 8"),
], ids=["magic", "version"])
def test_framed_read_names_the_kind_it_was_given(tmp_path, magic, version, message):
    path = tmp_path / "f.bin"
    write_framed(path, MAGIC, 7, {"shapes": [[1]]}, np.zeros(1))
    with pytest.raises(KeyError) as err:
        read_framed(path, "frame", magic, version, KeyError, _listed)
    assert err.value.args == (message.format(path=path),)


@pytest.mark.parametrize("shapes, payload_floats", [
    ([[2, 3]], 5), ([[2, 3]], 7), ([[2, 3], [1]], 6), ([], 1),
], ids=["one-float-short", "one-float-long", "one-array-more", "no-arrays"])
def test_framed_payload_of_another_length_names_both_lengths(tmp_path, shapes, payload_floats):
    path = tmp_path / "f.bin"
    write_framed(path, MAGIC, 7, {"shapes": shapes}, np.zeros(payload_floats))
    want = 8 * sum(int(np.prod(s)) for s in shapes)
    with pytest.raises(KeyError) as err:
        read_framed(path, "frame", MAGIC, 7, KeyError, _listed)
    assert err.value.args == (f"frame payload is {8 * payload_floats} bytes; expected {want}",)


@pytest.mark.parametrize("header", [[1, 2], {"shapes": [["x"]]}, {"shapes": [[-2, -3]]},
                                    {"shapes": [[-1, 6]]}, {}],
                         ids=["not-an-object", "not-a-number", "negative", "minus-one",
                              "no-shapes"])
def test_framed_header_whose_shapes_cannot_be_read_is_unreadable(tmp_path, header):
    """A hash-valid header that lists no readable shapes is one line, never a
    traceback from the shapes function or from reshaping the payload."""
    path = tmp_path / "f.bin"
    write_framed(path, MAGIC, 7, header, np.zeros(6))
    with pytest.raises(CorruptArtifactError, match=f"frame {path} has an unreadable header"):
        read_framed(path, "frame", MAGIC, 7, CorruptArtifactError, _listed)
