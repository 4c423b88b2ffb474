"""Batched (NumPy) AES must agree with the scalar core exactly."""

import os

import pytest

from repro.crypto import aes_batch
from repro.crypto.aes import AES
from repro.errors import BlockSizeError


@pytest.fixture
def cipher():
    return AES(bytes(range(16)))


class TestAgreement:
    @pytest.mark.parametrize("nblocks", [1, 2, 3, 15, 16, 17, 100])
    def test_encrypt_matches_scalar(self, cipher, nblocks):
        data = os.urandom(16 * nblocks)
        want = b"".join(
            cipher.encrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert aes_batch.encrypt_blocks(cipher, data) == want

    @pytest.mark.parametrize("nblocks", [1, 2, 17, 64])
    def test_decrypt_matches_scalar(self, cipher, nblocks):
        data = os.urandom(16 * nblocks)
        want = b"".join(
            cipher.decrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert aes_batch.decrypt_blocks(cipher, data) == want

    def test_round_trip(self, cipher):
        data = os.urandom(16 * 33)
        assert aes_batch.decrypt_blocks(
            cipher, aes_batch.encrypt_blocks(cipher, data)
        ) == data

    @pytest.mark.parametrize("key_len", [16, 24, 32])
    def test_all_key_sizes(self, key_len):
        cipher = AES(bytes(key_len))
        data = os.urandom(16 * 8)
        want = b"".join(
            cipher.encrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert aes_batch.encrypt_blocks(cipher, data) == want


#: every small batch shape up to 40 blocks, a 4k-char document's 503
#: blocks and a whole-document pass's 10,000
_KERNEL_SIZES = list(range(1, 41)) + [503, 10_000]


@pytest.mark.parametrize("key_len", [16, 24, 32])
class TestKernelAgreesWithScalar:
    def test_encrypt(self, key_len):
        cipher = AES(os.urandom(key_len))
        for nblocks in _KERNEL_SIZES:
            data = os.urandom(16 * nblocks)
            want = b"".join(
                cipher.encrypt_block(data[i : i + 16])
                for i in range(0, len(data), 16)
            )
            assert aes_batch.encrypt_blocks(cipher, data) == want, nblocks

    def test_decrypt(self, key_len):
        cipher = AES(os.urandom(key_len))
        for nblocks in _KERNEL_SIZES:
            data = os.urandom(16 * nblocks)
            want = b"".join(
                cipher.decrypt_block(data[i : i + 16])
                for i in range(0, len(data), 16)
            )
            assert aes_batch.decrypt_blocks(cipher, data) == want, nblocks


class TestEdges:
    def test_empty_input(self, cipher):
        assert aes_batch.encrypt_blocks(cipher, b"") == b""
        assert aes_batch.decrypt_blocks(cipher, b"") == b""

    @pytest.mark.parametrize("bad_len", [1, 15, 17, 31])
    def test_ragged_input_rejected(self, cipher, bad_len):
        with pytest.raises(BlockSizeError):
            aes_batch.encrypt_blocks(cipher, bytes(bad_len))
        with pytest.raises(BlockSizeError):
            aes_batch.decrypt_blocks(cipher, bytes(bad_len))
