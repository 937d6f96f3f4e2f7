//! Property tests on the data-plane agent: totality on adversarial input,
//! state-integrity invariants, and consistent key-update semantics.

use p4auth_core::agent::{seal_frame, AgentConfig, AgentEvent, P4AuthSwitch};
use p4auth_dataplane::register::RegisterArray;
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::Key64;
use p4auth_wire::body::{InNetwork, RegisterOp};
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;
use proptest::prelude::*;

const REG: RegId = RegId::new(7);
const K_LOCAL: Key64 = Key64::new(0x0001_0ca1_c0de);

fn agent() -> P4AuthSwitch {
    let config = AgentConfig::new(SwitchId::new(1), 4, Key64::new(0x5eed)).map_register(REG, "r");
    let mut sw = P4AuthSwitch::new(config, None);
    sw.chassis_mut()
        .declare_register(RegisterArray::new("r", 4, 64));
    sw.install_key(PortId::CPU, K_LOCAL);
    for p in 1..=4 {
        sw.install_key(PortId::new(p), Key64::new(0x9000 + p as u64));
    }
    sw
}

proptest! {
    /// The in-network sealer writes exactly the frame the message API
    /// builds, sealed (auth on) or unsealed (auth off), for any header and
    /// any payload a probe frame can carry inline.
    #[test]
    fn sealer_is_byte_identical_to_the_message_api(
        sender: u16,
        port: u8,
        seq: u32,
        version: u8,
        key: u64,
        system: u8,
        payload in proptest::collection::vec(any::<u8>(), 0..63),
    ) {
        let mac = HalfSipHashMac::default();
        let (key, version) = (Key64::new(key), KeyVersion::new(version));
        let (sender, port, seq) = (SwitchId::new(sender), PortId::new(port), SeqNum::new(seq));
        let msg = Message::in_network(sender, port, seq, InNetwork::new(system, payload));
        let seal = |on: bool| {
            let seal = on.then_some((key, version));
            seal_frame(msg.clone(), seal, |k, parts| mac.compute(k, parts))
        };
        prop_assert_eq!(seal(true), msg.clone().with_key_version(version).sealed(&mac, key).encode());
        prop_assert_eq!(seal(false), msg.encode());
    }

    /// The agent never panics on arbitrary bytes arriving on any port —
    /// the data plane must be total over attacker-controlled input.
    #[test]
    fn agent_total_on_garbage(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        port in 0u8..6,
    ) {
        let mut sw = agent();
        let _ = sw.on_packet(0, PortId::new(port), &bytes);
    }

    /// Arbitrary *unsealed* register writes never change register state:
    /// every state change requires a verifying digest.
    #[test]
    fn unsealed_writes_never_mutate_state(
        index: u32,
        value: u64,
        seq: u32,
        digest: u32,
    ) {
        let mut sw = agent();
        let mut msg = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(seq),
            RegisterOp::write_req(REG, index, value),
        );
        msg.header_mut().digest = p4auth_primitives::Digest32::new(digest);
        let out = sw.on_packet(0, PortId::CPU, &msg.encode());
        // The register is untouched regardless of the guess.
        let reg = sw.chassis().register("r").unwrap();
        prop_assert!(reg.iter().all(|v| v == 0));
        // And the attempt was observed.
        prop_assert!(out.events.iter().any(|e| matches!(e, AgentEvent::Rejected(_))));
    }

    /// Sealed writes with any index/value either land exactly as sent or
    /// are cleanly nacked (out-of-range) — never corrupted.
    #[test]
    fn sealed_writes_land_exactly_or_nack(index in 0u32..8, value: u64, seq in 1u32..1000) {
        let mut sw = agent();
        let mac = HalfSipHashMac::default();
        let msg = Message::register_request(
            SwitchId::CONTROLLER,
            SeqNum::new(seq),
            RegisterOp::write_req(REG, index, value),
        )
        .sealed(&mac, K_LOCAL);
        let out = sw.on_packet(0, PortId::CPU, &msg.encode());
        let reg = sw.chassis().register("r").unwrap();
        if index < 4 {
            prop_assert_eq!(reg.read(index).unwrap(), value);
            let written =
                AgentEvent::RegisterWritten { name: "r".into(), index, value };
            prop_assert!(out.events.contains(&written));
        } else {
            prop_assert!(reg.iter().all(|v| v == 0));
        }
    }

    /// Monotonically increasing sequences always verify; any non-increase
    /// is rejected — over arbitrary seq patterns.
    #[test]
    fn replay_window_semantics(seqs in proptest::collection::vec(1u32..50, 1..20)) {
        let mut sw = agent();
        let mac = HalfSipHashMac::default();
        let mut high_water = 0u32;
        for seq in seqs {
            let msg = Message::register_request(
                SwitchId::CONTROLLER,
                SeqNum::new(seq),
                RegisterOp::read_req(REG, 0),
            )
            .sealed(&mac, K_LOCAL);
            let out = sw.on_packet(0, PortId::CPU, &msg.encode());
            if seq > high_water {
                prop_assert!(out.events.contains(&AgentEvent::VerifiedOk), "seq {} after {}", seq, high_water);
                high_water = seq;
            } else {
                prop_assert!(
                    out.events.iter().any(|e| matches!(e, AgentEvent::Rejected(_))),
                    "replayed seq {} after {}", seq, high_water
                );
            }
        }
    }
}

#[test]
fn in_flight_old_version_messages_verify_during_rollover() {
    // §VI-C consistent updates: a message sealed under the old key/version
    // just before rollover must still verify just after.
    let mut sw = agent();
    let mac = HalfSipHashMac::default();

    let in_flight = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(1),
        RegisterOp::write_req(REG, 0, 11),
    )
    .with_key_version(KeyVersion::INITIAL)
    .sealed(&mac, K_LOCAL);

    // Rollover happens while the message is in flight.
    let new_key = Key64::new(0x00e3_e3e3);
    sw_rollover(&mut sw, new_key);

    let out = sw.on_packet(0, PortId::CPU, &in_flight.encode());
    assert!(
        out.events.contains(&AgentEvent::VerifiedOk),
        "{:?}",
        out.events
    );

    // New-version traffic verifies too.
    let fresh = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(2),
        RegisterOp::write_req(REG, 1, 22),
    )
    .with_key_version(KeyVersion::INITIAL.next())
    .sealed(&mac, new_key);
    let out = sw.on_packet(0, PortId::CPU, &fresh.encode());
    assert!(out.events.contains(&AgentEvent::VerifiedOk));
}

#[test]
fn two_generations_old_messages_are_rejected() {
    let mut sw = agent();
    let mac = HalfSipHashMac::default();
    let stale = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(1),
        RegisterOp::write_req(REG, 0, 11),
    )
    .with_key_version(KeyVersion::INITIAL)
    .sealed(&mac, K_LOCAL);

    sw_rollover(&mut sw, Key64::new(2));
    sw_rollover(&mut sw, Key64::new(3));

    let out = sw.on_packet(0, PortId::CPU, &stale.encode());
    assert!(out
        .events
        .iter()
        .any(|e| matches!(e, AgentEvent::Rejected(_))));
}

/// Helper: roll the local key directly (the KMP path is exercised by the
/// integration tests; here we isolate the version logic).
fn sw_rollover(sw: &mut P4AuthSwitch, new_key: Key64) {
    sw.rollover_key(PortId::CPU, new_key);
}

#[test]
fn ablation_unversioned_updates_break_in_flight_messages() {
    // DESIGN §4 ablation: without §VI-C's version tagging, a rollover
    // immediately invalidates everything sealed under the previous key.
    let mac = HalfSipHashMac::default();

    let build = |versioned: bool| {
        let config =
            AgentConfig::new(SwitchId::new(1), 2, Key64::new(0x5eed)).map_register(REG, "r");
        let config = if versioned {
            config
        } else {
            config.unversioned_updates()
        };
        let mut sw = P4AuthSwitch::new(config, None);
        sw.chassis_mut()
            .declare_register(RegisterArray::new("r", 4, 64));
        sw.install_key(PortId::CPU, K_LOCAL);
        sw
    };

    let in_flight = Message::register_request(
        SwitchId::CONTROLLER,
        SeqNum::new(1),
        RegisterOp::write_req(REG, 0, 11),
    )
    .with_key_version(KeyVersion::INITIAL)
    .sealed(&mac, K_LOCAL);

    // Versioned (the paper's design): the in-flight message survives.
    let mut versioned = build(true);
    versioned.rollover_key(PortId::CPU, Key64::new(0x00e3_e3e3));
    let out = versioned.on_packet(0, PortId::CPU, &in_flight.encode());
    assert!(out.events.contains(&AgentEvent::VerifiedOk));

    // Unversioned baseline: the same message is lost to the rollover.
    let mut unversioned = build(false);
    unversioned.rollover_key(PortId::CPU, Key64::new(0x00e3_e3e3));
    let out = unversioned.on_packet(0, PortId::CPU, &in_flight.encode());
    assert!(
        out.events
            .iter()
            .any(|e| matches!(e, AgentEvent::Rejected(_))),
        "unversioned rollover must reject the in-flight message: {:?}",
        out.events
    );
}
