//! Property-based tests for the wire codec: arbitrary messages roundtrip,
//! arbitrary bytes never panic the decoder, and sealing/tampering behave.

use p4auth_primitives::mac::{Crc32Mac, HalfSipHashMac, Mac};
use p4auth_primitives::Key64;
use p4auth_wire::body::{
    AdhkdRole, Alert, AlertKind, Body, EakStep, InNetwork, KexContext, KeyExchange, NackReason,
    RegisterOp,
};
use p4auth_wire::header::HEADER_LEN;
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;
use proptest::prelude::*;
use std::ops::Range;

fn arb_register_op() -> impl Strategy<Value = RegisterOp> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(r, i)| RegisterOp::read_req(RegId::new(r), i)),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(r, i, v)| RegisterOp::write_req(
            RegId::new(r),
            i,
            v
        )),
        (any::<u32>(), any::<u32>(), any::<u64>()).prop_map(|(r, i, v)| RegisterOp::Ack {
            reg: RegId::new(r),
            index: i,
            value: v
        }),
        (any::<u32>(), any::<u32>(), 0usize..4).prop_map(|(r, i, k)| RegisterOp::Nack {
            reg: RegId::new(r),
            index: i,
            reason: [
                NackReason::DigestMismatch,
                NackReason::UnknownRegister,
                NackReason::SeqMismatch,
                NackReason::IndexOutOfRange
            ][k],
        }),
    ]
}

fn arb_alert() -> impl Strategy<Value = Alert> {
    (0usize..4, any::<u32>(), any::<u32>()).prop_map(|(k, s, d)| Alert {
        kind: [
            AlertKind::DigestMismatch,
            AlertKind::SeqMismatch,
            AlertKind::RateLimited,
            AlertKind::KeyExchangeFailure,
        ][k],
        offending_seq: SeqNum::new(s),
        detail: d,
    })
}

fn arb_kex() -> impl Strategy<Value = KeyExchange> {
    let contexts = [
        KexContext::LocalInit,
        KexContext::LocalUpdate,
        KexContext::PortInitRedirect,
        KexContext::PortUpdateDirect,
    ];
    prop_oneof![
        (any::<bool>(), any::<u32>()).prop_map(|(s, salt)| KeyExchange::EakSalt {
            step: if s { EakStep::Salt1 } else { EakStep::Salt2 },
            salt,
        }),
        (any::<bool>(), 0usize..4, any::<u64>(), any::<u32>()).prop_map(
            move |(role, c, pk, salt)| KeyExchange::Adhkd {
                role: if role {
                    AdhkdRole::Offer
                } else {
                    AdhkdRole::Answer
                },
                context: contexts[c],
                public_key: pk,
                salt,
            }
        ),
        (any::<u16>(), any::<u8>()).prop_map(|(p, q)| KeyExchange::PortKeyInit {
            peer: SwitchId::new(p),
            peer_port: PortId::new(q),
        }),
        (any::<u16>(), any::<u8>()).prop_map(|(p, q)| KeyExchange::PortKeyUpdate {
            peer: SwitchId::new(p),
            peer_port: PortId::new(q),
        }),
    ]
}

fn arb_body() -> impl Strategy<Value = Body> {
    prop_oneof![
        arb_register_op().prop_map(Body::Register),
        arb_alert().prop_map(Body::Alert),
        arb_kex().prop_map(Body::KeyExchange),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(sys, p)| Body::InNetwork(InNetwork::new(sys, p))),
    ]
}

fn arb_message() -> impl Strategy<Value = Message> {
    (
        any::<u16>(),
        any::<u8>(),
        any::<u32>(),
        any::<u8>(),
        arb_body(),
    )
        .prop_map(|(sender, port, seq, kv, body)| {
            Message::new(
                SwitchId::new(sender),
                PortId::new(port),
                SeqNum::new(seq),
                body,
            )
            .with_key_version(KeyVersion::new(kv))
        })
}

/// The bytes of a frame of `msg`'s kind that [`Message::decode`] skips:
/// the unused value field of a read request, all but the reason byte of a
/// nack's value field, and the reserved/pad bytes of key exchange. Every
/// other byte is a protocol field. Frames with none are canonical.
fn skipped_bytes(msg: &Message) -> Range<usize> {
    let body = HEADER_LEN;
    match msg.body() {
        Body::Register(RegisterOp::ReadReq { .. }) => body + 8..body + 16,
        Body::Register(RegisterOp::Nack { .. }) => body + 8..body + 15,
        Body::KeyExchange(KeyExchange::EakSalt { .. }) => body + 4..body + 8,
        Body::KeyExchange(KeyExchange::Adhkd { .. }) => body + 13..body + 16,
        Body::KeyExchange(_) => body + 3..body + 4,
        _ => 0..0,
    }
}

proptest! {
    /// Every well-formed message roundtrips byte-exactly.
    #[test]
    fn roundtrip(msg in arb_message()) {
        let bytes = msg.encode();
        prop_assert_eq!(bytes.len(), msg.wire_len());
        let decoded = Message::decode(&bytes).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Sealed messages verify under the sealing key and MAC, with both
    /// MAC profiles, and survive an encode/decode cycle.
    #[test]
    fn seal_survives_wire(msg in arb_message(), key: u64) {
        let k = Key64::new(key);
        for mac in [&HalfSipHashMac::default() as &dyn Mac, &Crc32Mac] {
            let sealed = msg.clone().sealed(mac, k);
            let decoded = Message::decode(&sealed.encode()).unwrap();
            prop_assert!(decoded.verify(mac, k));
        }
    }

    /// Any single flipped bit anywhere in the encoded message either makes
    /// decoding fail, makes verification fail, or decodes to a message
    /// semantically identical to the original (flips confined to reserved
    /// padding bytes, which are not protocol fields and are discarded on
    /// parse — exactly like non-PHV bytes on real hardware). Tampering with
    /// *meaningful* content never goes unnoticed. This checks the decoded
    /// message; receivers verify the frame as received, which has no such
    /// exception (`any_bitflip_fails_frame_verification`).
    #[test]
    fn any_bitflip_detected(msg in arb_message(), key: u64, bit in 0usize..4096) {
        let k = Key64::new(key);
        let mac = HalfSipHashMac::default();
        let sealed = msg.sealed(&mac, k);
        let mut bytes = sealed.encode();
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        // Malformed frames are rejected even earlier (decode fails).
        if let Ok(decoded) = Message::decode(&bytes) {
            prop_assert!(!decoded.verify(&mac, k) || decoded == sealed);
        }
    }

    /// The decoder never panics on arbitrary bytes.
    #[test]
    fn decoder_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&bytes);
    }

    /// Every strict prefix of a valid frame fails to decode (the length of
    /// every body is fixed or carried in the frame): nothing truncated is
    /// ever taken for a message, and nothing panics.
    #[test]
    fn truncated_frames_fail_closed(msg in arb_message()) {
        let bytes = msg.encode();
        for len in 0..bytes.len() {
            prop_assert!(Message::decode(&bytes[..len]).is_err());
        }
    }

    /// Decoding never panics on a valid frame with random bytes
    /// overwritten, and whatever decodes re-encodes to the same bytes
    /// except for the bytes the decoder skips, which come back zeroed.
    /// In-network, alert and register write/ack frames skip none: for
    /// them `encode(decode(b)) == b`, so the bytes verified are exactly
    /// the bytes parsed.
    #[test]
    fn decode_is_canonical_outside_skipped_bytes(
        msg in arb_message(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4),
    ) {
        let mut bytes = msg.encode();
        for (at, value) in edits {
            let len = bytes.len();
            bytes[at % len] = value;
        }
        if let Ok(decoded) = Message::decode(&bytes) {
            let skipped = skipped_bytes(&decoded);
            let mut expected = bytes.clone();
            expected[skipped.clone()].fill(0);
            prop_assert_eq!(decoded.encode(), expected);
            let canonical = matches!(
                decoded.body(),
                Body::InNetwork(_)
                    | Body::Alert(_)
                    | Body::Register(RegisterOp::WriteReq { .. } | RegisterOp::Ack { .. })
            );
            prop_assert_eq!(canonical, skipped.is_empty());
        }
    }

    /// Any single flipped bit anywhere in a sealed frame makes decoding or
    /// frame verification fail, with no exception for skipped bytes:
    /// `verify_frame` MACs the frame as received.
    #[test]
    fn any_bitflip_fails_frame_verification(msg in arb_message(), key: u64, bit in 0usize..4096) {
        let k = Key64::new(key);
        let mac = HalfSipHashMac::default();
        let mut bytes = msg.sealed(&mac, k).encode();
        prop_assert!(Message::verify_frame(&bytes, &mac, k));
        let bit = bit % (bytes.len() * 8);
        bytes[bit / 8] ^= 1 << (bit % 8);
        if Message::decode(&bytes).is_ok() {
            prop_assert!(!Message::verify_frame(&bytes, &mac, k));
        }
    }

    /// Sealing the encoded frame in place equals sealing the message and
    /// encoding it.
    #[test]
    fn encode_sealed_with_matches_sealed_encode(msg in arb_message(), key: u64) {
        let k = Key64::new(key);
        for mac in [&HalfSipHashMac::default() as &dyn Mac, &Crc32Mac] {
            let frame = msg.encode_sealed_with(|parts| mac.compute(k, parts));
            prop_assert_eq!(frame, msg.clone().sealed(mac, k).encode());
        }
    }

    /// Messages sealed under one key never verify under a different key.
    #[test]
    fn cross_key_rejection(msg in arb_message(), k1: u64, k2: u64) {
        prop_assume!(k1 != k2);
        let mac = HalfSipHashMac::default();
        let sealed = msg.sealed(&mac, Key64::new(k1));
        prop_assert!(!sealed.verify(&mac, Key64::new(k2)));
    }

    /// digest_input is exactly the encoded bytes minus the digest field.
    #[test]
    fn digest_input_matches_encoding(msg in arb_message()) {
        let bytes = msg.encode();
        let input = msg.digest_input();
        // Header layout: bytes 0..10 then 4-byte digest then payload.
        prop_assert_eq!(&input[..10], &bytes[..10]);
        prop_assert_eq!(&input[10..], &bytes[14..]);
    }
}

/// Frames shorter than a header never verify.
#[test]
fn short_frames_never_verify() {
    let mac = HalfSipHashMac::default();
    for len in 0..HEADER_LEN {
        assert!(!Message::verify_frame(&vec![0; len], &mac, Key64::new(0)));
    }
}

/// The shrunk counterexample once found by `any_bitflip_detected`, pinned
/// as a plain test: bit 136 of a `PortKeyInit` from the controller sealed
/// under key 0.
#[test]
fn any_bitflip_detected_port_key_init_bit_136() {
    let msg = Message::new(
        SwitchId::CONTROLLER,
        PortId::CPU,
        SeqNum::new(0),
        Body::KeyExchange(KeyExchange::PortKeyInit {
            peer: SwitchId::CONTROLLER,
            peer_port: PortId::CPU,
        }),
    );
    let k = Key64::new(0);
    let mac = HalfSipHashMac::default();
    let sealed = msg.sealed(&mac, k);
    let mut bytes = sealed.encode();
    bytes[136 / 8] ^= 1 << (136 % 8);
    if let Ok(decoded) = Message::decode(&bytes) {
        assert!(!decoded.verify(&mac, k) || decoded == sealed);
    }
}
