"""The self-hashing frame that checkpoints and images.bin share."""
from hashlib import sha256

import numpy as np
import pytest

from retentive.config import read_framed, write_framed
from retentive.errors import CorruptArtifactError

MAGIC = b"TESTFRM1"


def test_framed_round_trip_joins_the_payload_parts(tmp_path):
    """A payload written in parts reads back as one view, and the file is the
    one its joined payload would make: the digest covers header and payload."""
    parts = [b"ab", np.arange(3.0), b"", memoryview(b"xyz")]
    header = {"b": [1, 2.5], "a": None}
    digest = write_framed(tmp_path / "parts.bin", MAGIC, 7, header, *parts)
    got, payload, got_digest = read_framed(tmp_path / "parts.bin", "frame", MAGIC, 7,
                                           CorruptArtifactError)
    assert got == header and got_digest == digest
    assert isinstance(payload, memoryview)
    assert bytes(payload) == b"ab" + np.arange(3.0).tobytes() + b"xyz"
    blob = (tmp_path / "parts.bin").read_bytes()
    assert blob[:len(MAGIC)] == MAGIC
    assert blob[-32:].hex() == digest == sha256(blob[len(MAGIC) + 8:-32]).hexdigest()
    assert write_framed(tmp_path / "whole.bin", MAGIC, 7, header, bytes(payload)) == digest
    assert (tmp_path / "whole.bin").read_bytes() == blob


@pytest.mark.parametrize("magic, version, message", [
    (b"OTHERMG1", 7, "frame {path} has a foreign magic header"),
    (MAGIC, 8, "frame version 7 unsupported; expected 8"),
], ids=["magic", "version"])
def test_framed_read_names_the_kind_it_was_given(tmp_path, magic, version, message):
    path = tmp_path / "f.bin"
    write_framed(path, MAGIC, 7, {}, b"payload")
    with pytest.raises(KeyError) as err:
        read_framed(path, "frame", magic, version, KeyError)
    assert err.value.args == (message.format(path=path),)
