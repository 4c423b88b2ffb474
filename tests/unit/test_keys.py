"""Password-based key derivation."""

import hashlib

import pytest

from repro.core import create_document, keys as keys_module, load_document
from repro.core.keys import (
    DEFAULT_ITERATIONS,
    KDF_MEMO_ENTRIES,
    KEY_BYTES,
    SALT_BYTES,
    KeyMaterial,
)
from repro.crypto.random import DeterministicRandomSource
from repro.errors import PasswordError
from repro.obs import capture


class TestKeyMaterial:
    def test_deterministic_given_salt(self):
        a = KeyMaterial.from_password("pw", salt=b"0123456789")
        b = KeyMaterial.from_password("pw", salt=b"0123456789")
        assert a.key == b.key

    def test_salt_changes_key(self):
        a = KeyMaterial.from_password("pw", salt=b"0123456789")
        b = KeyMaterial.from_password("pw", salt=b"9876543210")
        assert a.key != b.key

    def test_password_changes_key(self):
        salt = b"0123456789"
        assert (
            KeyMaterial.from_password("pw1", salt=salt).key
            != KeyMaterial.from_password("pw2", salt=salt).key
        )

    def test_fresh_salt_from_rng(self):
        rng = DeterministicRandomSource(1)
        km = KeyMaterial.from_password("pw", rng=rng)
        assert len(km.salt) == SALT_BYTES
        assert len(km.key) == KEY_BYTES

    def test_two_fresh_salts_differ(self):
        rng = DeterministicRandomSource(1)
        a = KeyMaterial.from_password("pw", rng=rng)
        b = KeyMaterial.from_password("pw", rng=rng)
        assert a.salt != b.salt and a.key != b.key

    def test_empty_password_rejected(self):
        with pytest.raises(PasswordError):
            KeyMaterial.from_password("", salt=b"0123456789")

    def test_iterations_matter(self):
        salt = b"0123456789"
        a = KeyMaterial.from_password("pw", salt=salt, iterations=1000)
        b = KeyMaterial.from_password("pw", salt=salt, iterations=2000)
        assert a.key != b.key

    def test_check(self):
        km = KeyMaterial.from_password("pw", salt=b"0123456789")
        assert km.check(km.key)
        assert not km.check(bytes(KEY_BYTES))

    def test_unicode_password(self):
        km = KeyMaterial.from_password("contraseña-中文", salt=b"0123456789")
        assert len(km.key) == KEY_BYTES


class TestDerivationMemo:
    """``from_password`` memoises on ``(password, salt, iterations)``:
    a repeat derives nothing, anything else derives exactly as before."""

    def test_repeat_derivation_is_memoised(self):
        with capture() as cap:
            a = KeyMaterial.from_password("memo-repeat", salt=b"0123456789")
            b = KeyMaterial.from_password("memo-repeat", salt=b"0123456789")
        assert a == b
        assert cap["crypto.kdf.derivations"] == 1

    def test_fresh_salt_fills_the_memo(self):
        created = KeyMaterial.from_password(
            "memo-fresh", rng=DeterministicRandomSource(11))
        with capture() as cap:
            again = KeyMaterial.from_password("memo-fresh", salt=created.salt)
        assert again == created
        assert cap["crypto.kdf.derivations"] == 0

    def test_new_salt_with_the_same_password_derives_once(self):
        KeyMaterial.from_password("memo-salt", salt=b"0123456789")
        with capture() as cap:
            other = KeyMaterial.from_password("memo-salt", salt=b"9876543210")
        assert cap["crypto.kdf.derivations"] == 1
        assert other.key == _pbkdf2("memo-salt", b"9876543210")

    def test_rekey_under_the_same_password_derives_once(self):
        doc = create_document("rotate under one password", password="memo-rk",
                              rng=DeterministicRandomSource(12))
        with capture() as cap:
            doc.rekey(password="memo-rk")
            reopened = load_document(doc.wire(), password="memo-rk")
        assert reopened.text == "rotate under one password"
        assert cap["crypto.kdf.derivations"] == 1
        assert doc.key_material.key == _pbkdf2("memo-rk",
                                               doc.key_material.salt)

    def test_wrong_password_misses(self):
        right = KeyMaterial.from_password("memo-right", salt=b"0123456789")
        with capture() as cap:
            wrong = KeyMaterial.from_password("memo-wrong", salt=b"0123456789")
        assert cap["crypto.kdf.derivations"] == 1
        assert wrong.key != right.key

    def test_iterations_are_part_of_the_memo_key(self):
        KeyMaterial.from_password("memo-iter", salt=b"0123456789",
                                  iterations=10)
        with capture() as cap:
            km = KeyMaterial.from_password("memo-iter", salt=b"0123456789",
                                           iterations=11)
        assert cap["crypto.kdf.derivations"] == 1
        assert km.key == _pbkdf2("memo-iter", b"0123456789", 11)

    def test_memo_is_bounded(self):
        salts = [i.to_bytes(SALT_BYTES, "big")
                 for i in range(KDF_MEMO_ENTRIES + 1)]
        for salt in salts:
            KeyMaterial.from_password("memo-bound", salt=salt, iterations=1)
        assert len(keys_module._memo) <= KDF_MEMO_ENTRIES
        with capture() as cap:
            KeyMaterial.from_password("memo-bound", salt=salts[-1],
                                      iterations=1)
            KeyMaterial.from_password("memo-bound", salt=salts[0],
                                      iterations=1)
        assert cap["crypto.kdf.derivations"] == 1  # the oldest was evicted


def _pbkdf2(password: str, salt: bytes, iterations: int = DEFAULT_ITERATIONS):
    """The derivation with no memo in the way."""
    return hashlib.pbkdf2_hmac("sha256", password.encode("utf-8"), salt,
                               iterations, KEY_BYTES)
