"""Vectorized AES-ECB over arrays of blocks (NumPy).

Whole-document operations (the initial ``docContents`` save, a full
decrypt on document load, the CoClo re-encryption baseline) encrypt
thousands of independent 16-byte blocks with one key.  Evaluating the
scalar T-table cipher block-by-block costs ~15 us per block in CPython;
this module evaluates the *same* T-tables over all blocks at once, with
a fixed number of NumPy calls per round whatever the block count.

Kernel layout
-------------
The state is kept byte-sliced: a ``(4, 4, n)`` view whose entry
``[c, k, i]`` is byte ``k`` of column ``c`` of block ``i``.  A round is

* one ShiftRows gather — an advanced index picking, for output column
  ``c`` and row ``k``, the source column ``c + k`` (``c - k`` when
  decrypting) — which yields sixteen contiguous byte rows;
* two 16-bit table indices per column, rows ``0|1`` and ``2|3`` packed
  as ``lo | hi << 8`` (one shift, one OR over all columns);
* one ``take`` into each of two *pair tables*, ``A[lo | hi << 8] =
  T0[lo] ^ T1[hi]`` and ``B[...] = T2[lo] ^ T3[hi]`` (65,536 words
  each), so the sixteen T-table lookups of a column become two;
* two XORs: ``A ^ B`` and the round key.

The table words are stored byte-swapped (little-endian words holding
the big-endian T-table bytes), so a column word viewed as bytes is
already the next round's byte rows — no shifts or masks to split it.
The final round is the ShiftRows gather, one S-box ``take`` and the
round-key XOR.

The scalar and batched paths are cross-checked against each other and
against FIPS-197 vectors in ``repro.crypto.selftest`` and the unit
tests.
"""

from __future__ import annotations

import numpy as np

from repro.crypto import aes as _aes
from repro.errors import BlockSizeError
from repro.obs import counter, histogram

#: batched invocations also count into crypto.aes.calls (one per block),
#: so the sub-linearity bound holds whichever path a span takes
_BATCH_CALLS = counter("crypto.aes.batch_calls")
_BATCH_BLOCKS = histogram("crypto.aes.batch_blocks")

#: little-endian words, whatever the host's byte order: viewing a word
#: as bytes must give its big-endian table bytes in order
_WORD = np.dtype("<u4")


def _swapped(words: list[int]) -> np.ndarray:
    """Big-endian 32-bit words as little-endian words with the same bytes."""
    return np.array(words, dtype=">u4").view(_WORD)


def _pair_table(t_lo: list[int], t_hi: list[int]) -> np.ndarray:
    """``t_lo[v & 0xFF] ^ t_hi[v >> 8]`` for every 16-bit ``v``."""
    return (_swapped(t_hi)[:, None] ^ _swapped(t_lo)[None, :]).ravel()


_ENC_PAIRS = (_pair_table(_aes.TE[0], _aes.TE[1]),
              _pair_table(_aes.TE[2], _aes.TE[3]))
_DEC_PAIRS = (_pair_table(_aes.TD[0], _aes.TD[1]),
              _pair_table(_aes.TD[2], _aes.TD[3]))
_SBOX = np.array(_aes.SBOX, dtype=np.uint8)
_INV_SBOX = np.array(_aes.INV_SBOX, dtype=np.uint8)

#: ShiftRows as (source column, row) per output byte ``4c + k``:
#: encryption reads column ``c + k``, decryption column ``c - k``
_ROWS = np.tile(np.arange(4), 4)
_ENC_COLS = (np.repeat(np.arange(4), 4) + _ROWS) % 4
_DEC_COLS = (np.repeat(np.arange(4), 4) - _ROWS) % 4


def _to_state(data: bytes) -> np.ndarray:
    """View ``data`` (N*16 bytes) as an (N, 4, 4) block/column/row array."""
    if len(data) % _aes.BLOCK_SIZE:
        raise BlockSizeError(
            f"batched input must be a multiple of 16 bytes, got {len(data)}"
        )
    return np.frombuffer(data, dtype=np.uint8).reshape(-1, 4, 4)


def _run(blocks: np.ndarray, round_keys: list[int], pairs: tuple,
         sbox: np.ndarray, cols: np.ndarray) -> bytes:
    """Every round of the T-table cipher over all ``blocks`` at once."""
    n = blocks.shape[0]
    keys = _swapped(round_keys).reshape(-1, 4, 1)
    first, last = keys[0].view(np.uint8), keys[-1].view(np.uint8)
    table_a, table_b = pairs
    state = (blocks ^ first.reshape(4, 4)).transpose(1, 2, 0)
    for key in keys[1:-1]:
        rows = state[cols, _ROWS].reshape(8, 2, n)
        index = np.left_shift(rows[:, 1], 8, dtype=np.uint16)
        index |= rows[:, 0]
        words = table_a.take(index[0::2])
        words ^= table_b.take(index[1::2])
        words ^= key
        state = words.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)
    out = sbox.take(state[cols, _ROWS])
    out ^= last.reshape(16, 1)
    return out.T.tobytes()


def _count(blocks: np.ndarray, direction) -> None:
    _aes._AES_CALLS.inc(blocks.shape[0])
    direction.inc(blocks.shape[0])
    _BATCH_CALLS.inc()
    _BATCH_BLOCKS.observe(blocks.shape[0])


def encrypt_blocks(cipher: _aes.AES, data: bytes) -> bytes:
    """ECB-encrypt every 16-byte block of ``data`` with ``cipher``'s key."""
    blocks = _to_state(data)
    if blocks.shape[0] == 0:
        return b""
    _count(blocks, _aes._AES_ENCRYPTS)
    return _run(blocks, cipher._ek, _ENC_PAIRS, _SBOX, _ENC_COLS)


def decrypt_blocks(cipher: _aes.AES, data: bytes) -> bytes:
    """ECB-decrypt every 16-byte block of ``data`` with ``cipher``'s key."""
    blocks = _to_state(data)
    if blocks.shape[0] == 0:
        return b""
    _count(blocks, _aes._AES_DECRYPTS)
    return _run(blocks, cipher._dk, _DEC_PAIRS, _INV_SBOX, _DEC_COLS)
