"""AesCipher facade: scalar/batch path selection must be invisible."""

import os

import pytest

from repro.crypto.blockcipher import BLOCK_SIZE, AesCipher, BlockCipher
from repro.obs import value_of

_THRESHOLD = AesCipher._BATCH_THRESHOLD_BLOCKS

#: both sides of the historical thresholds (16, then 28) and the
#: current one — the crossover must be invisible in bytes AND in
#: counter accounting
_CROSSOVER_SIZES = (_THRESHOLD - 1, _THRESHOLD, _THRESHOLD + 1,
                    15, 16, 17, 27, 28, 29)


class TestAesCipher:
    def test_satisfies_protocol(self):
        assert isinstance(AesCipher(bytes(16)), BlockCipher)

    def test_block_round_trip(self):
        cipher = AesCipher(os.urandom(16))
        block = os.urandom(BLOCK_SIZE)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_many_below_threshold_matches_blockwise(self):
        cipher = AesCipher(bytes(16))
        data = os.urandom(16 * 3)  # below the batch threshold
        want = b"".join(
            cipher.encrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert cipher.encrypt_many(data) == want

    def test_many_above_threshold_matches_blockwise(self):
        cipher = AesCipher(bytes(16))
        data = os.urandom(16 * 64)  # above the batch threshold
        want = b"".join(
            cipher.encrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert cipher.encrypt_many(data) == want

    def test_many_round_trip_both_paths(self):
        cipher = AesCipher(os.urandom(16))
        for nblocks in (2, 64):
            data = os.urandom(16 * nblocks)
            assert cipher.decrypt_many(cipher.encrypt_many(data)) == data

    def test_empty_many(self):
        cipher = AesCipher(bytes(16))
        assert cipher.encrypt_many(b"") == b""
        assert cipher.decrypt_many(b"") == b""


class TestThresholdCrossover:
    """The scalar/batch switch point must be invisible: identical bytes
    and path-independent counter accounting on both sides of it."""

    @pytest.mark.parametrize("nblocks", _CROSSOVER_SIZES)
    def test_encrypt_bytes_identical_across_crossover(self, nblocks):
        cipher = AesCipher(bytes(range(16)))
        data = os.urandom(16 * nblocks)
        want = b"".join(
            cipher.encrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert cipher.encrypt_many(data) == want

    @pytest.mark.parametrize("nblocks", _CROSSOVER_SIZES)
    def test_decrypt_bytes_identical_across_crossover(self, nblocks):
        cipher = AesCipher(bytes(range(16)))
        data = os.urandom(16 * nblocks)
        want = b"".join(
            cipher.decrypt_block(data[i : i + 16])
            for i in range(0, len(data), 16)
        )
        assert cipher.decrypt_many(data) == want

    @pytest.mark.parametrize("nblocks", _CROSSOVER_SIZES)
    def test_counter_accounting_path_independent(self, nblocks):
        """crypto.aes.calls advances by exactly ``nblocks`` per
        encrypt_many whether the scalar loop or the NumPy batch ran,
        and the direction split always sums to the total."""
        cipher = AesCipher(bytes(range(16)))
        data = os.urandom(16 * nblocks)

        def snap():
            return {name: value_of(f"crypto.aes.{name}")
                    for name in ("calls", "encrypt_calls", "decrypt_calls",
                                 "batch_calls")}

        before = snap()
        cipher.encrypt_many(data)
        after_enc = snap()
        cipher.decrypt_many(cipher.encrypt_many(data))
        after_dec = snap()

        assert after_enc["calls"] - before["calls"] == nblocks
        assert after_enc["encrypt_calls"] - before["encrypt_calls"] == nblocks
        assert after_enc["decrypt_calls"] == before["decrypt_calls"]
        assert after_dec["decrypt_calls"] - after_enc["decrypt_calls"] == nblocks
        # parity: every call is exactly one encrypt or one decrypt
        for state in (before, after_enc, after_dec):
            assert state["calls"] == (state["encrypt_calls"]
                                      + state["decrypt_calls"])
        # the batch counter moves only above the threshold
        batch_delta = after_enc["batch_calls"] - before["batch_calls"]
        assert batch_delta == (1 if nblocks >= _THRESHOLD else 0)
