"""Core library: the paper's incremental-encryption contribution.

Public surface: the delta language (:class:`Delta`), key derivation
(:class:`KeyMaterial`), and encrypted documents
(:func:`create_document`, :func:`load_document`,
:class:`RecbDocument`, :class:`RpcDocument`).
"""

from repro.core.blocks import MAX_BLOCK_CHARS, PAYLOAD_BYTES, chunk_text
from repro.core.delta import (
    Delete,
    Delta,
    DeltaOp,
    Insert,
    Retain,
    SourceDelete,
    SourceEdit,
    SourceInsert,
)
from repro.core.document import (
    LEAF_BLOCKS,
    EncryptedDocument,
    RecbDocument,
    RpcDocument,
    create_document,
    load_document,
    per_block,
)
from repro.core.incmac import (
    MerkleIncrementalMac,
    XorIncrementalMac,
    substitution_forgery,
)
from repro.core.keys import KeyMaterial
from repro.core.ot import compose, transform
from repro.core.recb import RecbCodec, RecbState
from repro.core.rpc import RpcCodec, RpcState
from repro.core.scheme import known_schemes, register_scheme, scheme_factory

__all__ = [
    "Delta",
    "DeltaOp",
    "Retain",
    "Insert",
    "Delete",
    "SourceEdit",
    "SourceInsert",
    "SourceDelete",
    "KeyMaterial",
    "LEAF_BLOCKS",
    "EncryptedDocument",
    "RecbDocument",
    "RpcDocument",
    "create_document",
    "load_document",
    "per_block",
    "RecbCodec",
    "RecbState",
    "RpcCodec",
    "RpcState",
    "chunk_text",
    "MAX_BLOCK_CHARS",
    "PAYLOAD_BYTES",
    "known_schemes",
    "register_scheme",
    "scheme_factory",
    "XorIncrementalMac",
    "MerkleIncrementalMac",
    "substitution_forgery",
    "transform",
    "compose",
]
