"""Unit + property tests for sled byte encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PatchingError
from repro.xray.sled import (
    SLED_BYTES,
    UNPATCHED,
    decode_patch,
    encode_patch,
    is_patched,
)


class TestEncoding:
    def test_unpatched_decodes_to_none(self):
        assert decode_patch(UNPATCHED) is None
        assert not is_patched(UNPATCHED)

    def test_encode_size(self):
        assert len(encode_patch(1, 2)) == SLED_BYTES

    def test_wrong_size_rejected(self):
        with pytest.raises(PatchingError, match="must be 12 bytes"):
            decode_patch(b"\x90" * (SLED_BYTES - 1))

    def test_corrupt_magic_rejected(self):
        blob = b"\x00" + encode_patch(1, 2)[1:]
        with pytest.raises(PatchingError, match="corrupt sled content"):
            decode_patch(blob)


@given(function_id=st.integers(0, 2**32 - 1), trampoline_id=st.integers(0, 2**32 - 1))
def test_encode_decode_roundtrip(function_id, trampoline_id):
    blob = encode_patch(function_id, trampoline_id)
    assert len(blob) == SLED_BYTES
    assert decode_patch(blob) == (function_id, trampoline_id)
    assert is_patched(blob)
