"""AES known-answer and structural tests (FIPS-197, NIST SP 800-38A)."""

import binascii

import pytest

import random

from repro.crypto.aes import (
    AES,
    INV_SBOX,
    SBOX,
    _inv_mix_word,
    expand_key,
    gf_mul,
)
from repro.crypto.selftest import FIPS_197_VECTORS, run_selftest
from repro.errors import BlockSizeError, KeySizeError

h = binascii.unhexlify

FIPS_PLAINTEXT = h("00112233445566778899aabbccddeeff")

# NIST SP 800-38A F.1.1 (AES-128-ECB) block vectors
NIST_ECB_128 = [
    ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
    ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
    ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
    ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
]
NIST_KEY_128 = h("2b7e151628aed2a6abf7158809cf4f3c")


class TestKnownAnswers:
    @pytest.mark.parametrize("key_hex,ct_hex", FIPS_197_VECTORS)
    def test_fips_197_appendix_c(self, key_hex, ct_hex):
        cipher = AES(h(key_hex))
        assert cipher.encrypt_block(FIPS_PLAINTEXT) == h(ct_hex)
        assert cipher.decrypt_block(h(ct_hex)) == FIPS_PLAINTEXT

    @pytest.mark.parametrize("pt_hex,ct_hex", NIST_ECB_128)
    def test_nist_sp800_38a_ecb(self, pt_hex, ct_hex):
        cipher = AES(NIST_KEY_128)
        assert cipher.encrypt_block(h(pt_hex)) == h(ct_hex)
        assert cipher.decrypt_block(h(ct_hex)) == h(pt_hex)

    def test_fips_197_appendix_b(self):
        cipher = AES(h("2b7e151628aed2a6abf7158809cf4f3c"))
        ct = cipher.encrypt_block(h("3243f6a8885a308d313198a2e0370734"))
        assert ct == h("3925841d02dc09fbdc118597196a0b32")

    def test_selftest_passes(self):
        run_selftest()


class TestSbox:
    def test_known_entries(self):
        # FIPS-197 Figure 7 spot checks
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse(self):
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))


class TestGaloisField:
    def test_identity(self):
        for a in (0, 1, 0x53, 0xFF):
            assert gf_mul(a, 1) == a

    def test_known_product(self):
        # 0x57 * 0x83 = 0xC1 (FIPS-197 section 4.2 example)
        assert gf_mul(0x57, 0x83) == 0xC1

    def test_commutative(self):
        for a, b in [(3, 7), (0x1B, 0x80), (0xAA, 0x55)]:
            assert gf_mul(a, b) == gf_mul(b, a)


class TestKeySchedule:
    def test_aes128_first_round_key_is_key(self):
        key = bytes(range(16))
        words = expand_key(key)
        assert words[0] == int.from_bytes(key[0:4], "big")
        assert len(words) == 44

    def test_aes192_length(self):
        assert len(expand_key(bytes(24))) == 52

    def test_aes256_length(self):
        assert len(expand_key(bytes(32))) == 60

    def test_inv_mix_word_matches_the_gf_reference(self):
        """The table-built InvMixColumns equals the textbook matrix
        product over GF(2^8) (the decryption schedule's spec)."""
        def reference(word):
            col = word.to_bytes(4, "big")
            rows = ((0x0E, 0x0B, 0x0D, 0x09), (0x09, 0x0E, 0x0B, 0x0D),
                    (0x0D, 0x09, 0x0E, 0x0B), (0x0B, 0x0D, 0x09, 0x0E))
            out = 0
            for row in rows:
                byte = 0
                for coeff, b in zip(row, col):
                    byte ^= gf_mul(b, coeff)
                out = (out << 8) | byte
            return out

        rng = random.Random(197)
        words = [b << shift for b in range(256) for shift in (0, 8, 16, 24)]
        words += [rng.getrandbits(32) for _ in range(2000)]
        for word in words:
            assert _inv_mix_word(word) == reference(word)

    @pytest.mark.parametrize("bad", [0, 1, 15, 17, 31, 33, 64])
    def test_bad_key_size(self, bad):
        with pytest.raises(KeySizeError):
            AES(bytes(bad))


class TestRoundTrip:
    def test_random_blocks(self):
        import os
        cipher = AES(os.urandom(16))
        for _ in range(50):
            block = os.urandom(16)
            assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_encrypt_is_permutation_like(self):
        cipher = AES(bytes(16))
        seen = {cipher.encrypt_block(i.to_bytes(16, "big")) for i in range(64)}
        assert len(seen) == 64

    @pytest.mark.parametrize("bad_len", [0, 1, 15, 17, 32])
    def test_bad_block_size(self, bad_len):
        cipher = AES(bytes(16))
        with pytest.raises(BlockSizeError):
            cipher.encrypt_block(bytes(bad_len))
        with pytest.raises(BlockSizeError):
            cipher.decrypt_block(bytes(bad_len))

    def test_key_sensitivity(self):
        a = AES(bytes(16))
        b = AES(bytes(15) + b"\x01")
        block = bytes(16)
        assert a.encrypt_block(block) != b.encrypt_block(block)
