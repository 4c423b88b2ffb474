#!/usr/bin/env python3
"""The malicious server, and what each scheme does about it (SVI-A).

Walks through the paper's active-attack story:

* rECB (confidentiality-only) decrypts replicated records without
  complaint — the user silently reads altered content;
* RPC (confidentiality + integrity) rejects replication, reordering,
  truncation, and splicing, each with a diagnosis;
* the Wang-Kao-Yeh length amendment [35] catches a forgery the original
  RPC checksum would accept (built here with rigged nonce collisions);
* rollback to an old version verifies fine — the freshness limitation
  every per-document scheme shares.

Run:  python examples/tamper_detection.py
"""

from repro.core import KeyMaterial, create_document, load_document
from repro.core.rpc import RpcCodec
from repro.crypto.random import DeterministicRandomSource
from repro.encoding.wire import decode_area, split_header
from repro.errors import DecryptionError, IntegrityError
from repro.security.attacks import (
    build_colliding_document,
    excise_cancelling_segment,
    remove_record,
    replicate_record,
    swap_records,
    verify_without_length_amendment,
)

SECRET = "pay bonus to employee 4471; pay bonus to employee 9902"
KEYS = KeyMaterial.from_password("pw", salt=b"example-sa")


def main() -> None:
    rng = DeterministicRandomSource(1)

    print("=== rECB: malleable by design ===")
    doc = create_document(SECRET, key_material=KEYS, scheme="recb",
                          block_chars=8, rng=rng)
    forged = replicate_record(doc.wire(), 3)
    victim = load_document(forged, key_material=KEYS)
    print(f" original: {SECRET!r}")
    print(f" after server replicates one record: {victim.text!r}")
    print(" -> decryption SUCCEEDED; the alteration is silent\n")

    print("=== RPC: every structural attack detected ===")
    doc = create_document(SECRET, key_material=KEYS, scheme="rpc",
                          block_chars=8, rng=rng)
    wire = doc.wire()
    for name, attack in [
        ("replication", lambda w: replicate_record(w, 3)),
        ("reordering", lambda w: swap_records(w, 2, 4)),
        ("truncation", lambda w: remove_record(w, 3)),
    ]:
        try:
            load_document(attack(wire), key_material=KEYS)
            print(f" {name}: NOT DETECTED (bug!)")
        except (IntegrityError, DecryptionError) as exc:
            print(f" {name}: detected -> {exc}")
    print()

    print("=== why the length amendment matters [35] ===")
    key = KEYS.key
    unamended, _ = build_colliding_document(
        key, DeterministicRandomSource(2), amended=False
    )
    honest = verify_without_length_amendment(unamended, key)
    print(f" honest document decrypts to: {honest!r}")
    forged = excise_cancelling_segment(unamended)
    accepted = verify_without_length_amendment(forged, key)
    print(f" forged (segment excised) ACCEPTED by unamended verifier:"
          f" {accepted!r}")

    amended, _ = build_colliding_document(
        key, DeterministicRandomSource(2), amended=True
    )
    codec = RpcCodec(key, DeterministicRandomSource(3))
    try:
        _, area = split_header(excise_cancelling_segment(amended))
        codec.load(*decode_area(area))
        print(" amended verifier: NOT DETECTED (bug!)")
    except IntegrityError as exc:
        print(f" same forgery vs amended verifier: detected -> {exc}")
    print()

    print("=== the limitation: rollback ===")
    doc = create_document("version one", key_material=KEYS, scheme="rpc",
                          rng=rng)
    old_wire = doc.wire()
    doc.insert(0, "version two: ")
    stale = load_document(old_wire, key_material=KEYS)
    print(f" server replays yesterday's ciphertext: verifies and reads"
          f" {stale.text!r}")
    print(" -> freshness needs state outside the document (out of scope,"
          " as in the paper)")

    print("\ntamper-detection demo OK")


if __name__ == "__main__":
    main()
