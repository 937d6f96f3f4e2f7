//! HULA: scalable in-network load balancing (Katta et al., SOSR 2016).
//!
//! HULA switches flood periodic probes that carry the maximum link
//! utilization seen along their path from a destination ToR. Every switch
//! remembers, per destination, the best (least-utilized) next hop and the
//! utilization it advertised; data packets follow the best hop entirely in
//! the data plane. This is the paper's canonical DP-DP target system: an
//! on-link MitM that rewrites `probeUtil` (Fig. 3) drags all traffic onto a
//! congested path (Fig. 17) — unless P4Auth authenticates every probe
//! hop by hop.
//!
//! The implementation runs as an [`InNetworkApp`] mounted on the P4Auth
//! agent: probes arrive *already authenticated* (or not at all), and
//! forwarded probes are re-sealed by the agent with each egress port key.

use p4auth_core::agent::InNetworkApp;
use p4auth_dataplane::chassis::{Chassis, ChassisError, PacketContext};
use p4auth_dataplane::register::RegisterArray;
use p4auth_wire::ids::PortId;

/// The `msgType`/system id of HULA probes inside P4Auth in-network frames.
pub const HULA_SYSTEM_ID: u8 = 1;

/// First byte of HULA data frames.
pub const DATA_MAGIC: u8 = 0xDA;

/// Utilization value meaning "no path known".
pub const UTIL_UNKNOWN: u64 = 255;

/// A HULA probe: destination ToR, monotonically increasing round, and the
/// maximum path utilization (percent) accumulated so far.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Probe {
    /// Destination the probe advertises a path *to* (its originator).
    pub dst: u16,
    /// Probe round (originator-monotonic; doubles as freshness stamp).
    pub round: u32,
    /// Max link utilization along the path so far (0–100).
    pub util: u8,
}

impl Probe {
    /// Wire length of an encoded probe.
    pub const WIRE_LEN: usize = 7;

    /// Encodes the probe payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::WIRE_LEN);
        out.extend_from_slice(&self.dst.to_be_bytes());
        out.extend_from_slice(&self.round.to_be_bytes());
        out.push(self.util);
        out
    }

    /// Decodes a probe payload.
    pub fn decode(bytes: &[u8]) -> Option<Probe> {
        if bytes.len() != Self::WIRE_LEN {
            return None;
        }
        Some(Probe {
            dst: u16::from_be_bytes([bytes[0], bytes[1]]),
            round: u32::from_be_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
            util: bytes[6],
        })
    }
}

/// A HULA data frame: `[0xDA, dst_hi, dst_lo, flow_id…]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataFrame {
    /// Destination switch id.
    pub dst: u16,
    /// Flow identifier (for flowlet bookkeeping and statistics).
    pub flow: u32,
}

impl DataFrame {
    /// Encodes a data frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![DATA_MAGIC];
        out.extend_from_slice(&self.dst.to_be_bytes());
        out.extend_from_slice(&self.flow.to_be_bytes());
        out
    }

    /// Decodes a data frame.
    pub fn decode(bytes: &[u8]) -> Option<DataFrame> {
        if bytes.len() != 7 || bytes[0] != DATA_MAGIC {
            return None;
        }
        Some(DataFrame {
            dst: u16::from_be_bytes([bytes[1], bytes[2]]),
            flow: u32::from_be_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]),
        })
    }
}

/// Per-switch HULA configuration.
#[derive(Clone, Debug)]
pub struct HulaConfig {
    /// Largest destination id the tables are sized for.
    pub max_dst: u16,
    /// This switch's data ports (probes flood these; the C-DP port is
    /// excluded).
    pub data_ports: Vec<PortId>,
    /// A best-hop entry older than this many rounds is considered stale
    /// and replaceable by any fresh probe (HULA's aging).
    pub age_rounds: u32,
}

impl HulaConfig {
    /// Config for a switch with data ports `1..=n`.
    pub fn new(max_dst: u16, num_data_ports: u8) -> Self {
        HulaConfig {
            max_dst,
            data_ports: (1..=num_data_ports).map(PortId::new).collect(),
            age_rounds: 3,
        }
    }
}

/// Register names (public so experiments and attacks can reach the state —
/// the whole point of the paper is that this state is reachable).
pub mod regs {
    /// Best advertised utilization per destination.
    pub const BEST_UTIL: &str = "hula_best_util";
    /// Best next-hop port per destination.
    pub const BEST_HOP: &str = "hula_best_hop";
    /// Round of the last accepted probe per destination.
    pub const BEST_ROUND: &str = "hula_best_round";
    /// Highest probe round forwarded per destination (flood dedup).
    pub const SEEN_ROUND: &str = "hula_seen_round";
    /// Local link utilization percent per port.
    pub const LOCAL_UTIL: &str = "hula_local_util";
    /// Data packets transmitted per egress port (Fig. 17's measurement).
    pub const TX_COUNT: &str = "hula_tx_count";
    /// Data packets delivered locally (this switch was the destination).
    pub const DELIVERED: &str = "hula_delivered";
}

/// The HULA data-plane program.
#[derive(Debug)]
pub struct HulaApp {
    config: HulaConfig,
}

impl HulaApp {
    /// Creates the app.
    pub fn new(config: HulaConfig) -> Self {
        HulaApp { config }
    }

    /// Convenience: boxed for mounting on the agent.
    pub fn boxed(config: HulaConfig) -> Box<dyn InNetworkApp> {
        Box::new(HulaApp::new(config))
    }
}

impl InNetworkApp for HulaApp {
    fn system_id(&self) -> u8 {
        HULA_SYSTEM_ID
    }

    fn setup(&mut self, chassis: &mut Chassis) {
        let dsts = self.config.max_dst as u32 + 1;
        let ports = 64;
        let mut best_util = RegisterArray::new(regs::BEST_UTIL, dsts, 64);
        for i in 0..dsts {
            best_util.write(i, UTIL_UNKNOWN).expect("in range");
        }
        chassis.declare_register(best_util);
        chassis.declare_register(RegisterArray::new(regs::BEST_HOP, dsts, 64));
        chassis.declare_register(RegisterArray::new(regs::BEST_ROUND, dsts, 64));
        chassis.declare_register(RegisterArray::new(regs::SEEN_ROUND, dsts, 64));
        chassis.declare_register(RegisterArray::new(regs::LOCAL_UTIL, ports, 64));
        chassis.declare_register(RegisterArray::new(regs::TX_COUNT, ports, 64));
        chassis.declare_register(RegisterArray::new(regs::DELIVERED, dsts, 64));
    }

    fn on_control(
        &mut self,
        ctx: &mut PacketContext<'_>,
        ingress: PortId,
        payload: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let Some(probe) = Probe::decode(payload) else {
            return Ok(vec![]);
        };
        if probe.dst > self.config.max_dst {
            return Ok(vec![]);
        }
        let dst = probe.dst as u32;

        // Path utilization via this ingress = max(probe util, local link
        // utilization of the ingress port).
        let local = ctx.read_register(regs::LOCAL_UTIL, ingress.value() as u32)?;
        let candidate = (probe.util as u64).max(local);

        let best_util = ctx.read_register(regs::BEST_UTIL, dst)?;
        let best_hop = ctx.read_register(regs::BEST_HOP, dst)?;
        let best_round = ctx.read_register(regs::BEST_ROUND, dst)?;
        let stale = probe.round as u64 > best_round + self.config.age_rounds as u64;

        let is_current_best = best_hop == ingress.value() as u64 && best_util != UTIL_UNKNOWN;
        if is_current_best || candidate < best_util || stale {
            ctx.write_register(regs::BEST_UTIL, dst, candidate)?;
            ctx.write_register(regs::BEST_HOP, dst, ingress.value() as u64)?;
            ctx.write_register(regs::BEST_ROUND, dst, probe.round as u64)?;
        }

        // Flood dedup: forward each (dst, round) at most once.
        let seen = ctx.read_register(regs::SEEN_ROUND, dst)?;
        if probe.round as u64 <= seen {
            return Ok(vec![]);
        }
        ctx.write_register(regs::SEEN_ROUND, dst, probe.round as u64)?;

        let mut out = Vec::new();
        for &port in &self.config.data_ports {
            if port == ingress {
                continue;
            }
            let fwd = Probe {
                util: candidate.min(255) as u8,
                ..probe
            };
            out.push((port, fwd.encode()));
        }
        Ok(out)
    }

    fn on_data(
        &mut self,
        ctx: &mut PacketContext<'_>,
        _ingress: PortId,
        bytes: &[u8],
    ) -> Result<Vec<(PortId, Vec<u8>)>, ChassisError> {
        let Some(frame) = DataFrame::decode(bytes) else {
            return Ok(vec![]);
        };
        if frame.dst > self.config.max_dst {
            return Ok(vec![]);
        }
        let dst = frame.dst as u32;
        if ctx.switch_id().value() == frame.dst {
            ctx.update_register(regs::DELIVERED, dst, |v| v + 1)?;
            return Ok(vec![]);
        }
        let best_util = ctx.read_register(regs::BEST_UTIL, dst)?;
        if best_util == UTIL_UNKNOWN {
            return Ok(vec![]); // no known path; drop
        }
        let port = ctx.read_register(regs::BEST_HOP, dst)? as u8;
        ctx.update_register(regs::TX_COUNT, port as u32, |v| v + 1)?;
        Ok(vec![(PortId::new(port), bytes.to_vec())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p4auth_dataplane::chassis::ChassisConfig;
    use p4auth_dataplane::packet::Packet;
    use p4auth_wire::ids::SwitchId;

    fn chassis_with_app() -> (Chassis, HulaApp) {
        let mut app = HulaApp::new(HulaConfig::new(8, 3));
        let mut chassis = Chassis::new(ChassisConfig::tofino(SwitchId::new(1), 4));
        app.setup(&mut chassis);
        (chassis, app)
    }

    fn run_probe(
        chassis: &mut Chassis,
        app: &mut HulaApp,
        ingress: PortId,
        probe: Probe,
    ) -> Vec<(PortId, Vec<u8>)> {
        let pkt = Packet::from_bytes(ingress, probe.encode());
        let mut outs = Vec::new();
        chassis
            .process(0, &pkt, |ctx, _| {
                outs = app.on_control(ctx, ingress, &probe.encode())?;
                Ok(vec![])
            })
            .unwrap();
        outs
    }

    fn run_data(
        chassis: &mut Chassis,
        app: &mut HulaApp,
        frame: DataFrame,
    ) -> Vec<(PortId, Vec<u8>)> {
        let bytes = frame.encode();
        let pkt = Packet::from_bytes(PortId::new(1), bytes.clone());
        let mut outs = Vec::new();
        chassis
            .process(0, &pkt, |ctx, _| {
                outs = app.on_data(ctx, PortId::new(1), &bytes)?;
                Ok(vec![])
            })
            .unwrap();
        outs
    }

    /// Pins the pipeline footprint of authenticated HULA hops on the agent:
    /// stages, hash passes and modelled cost per probe, with the digest
    /// verify, the app's register stages and one seal per forwarded copy
    /// all in one pass.
    #[test]
    fn authenticated_probe_hop_footprint_is_pinned() {
        use p4auth_core::agent::{AgentConfig, P4AuthSwitch};
        use p4auth_primitives::mac::HalfSipHashMac;
        use p4auth_primitives::Key64;
        use p4auth_telemetry::Registry;
        use p4auth_wire::body::InNetwork;
        use p4auth_wire::ids::SeqNum;
        use p4auth_wire::Message;
        use std::sync::Arc;

        let app = HulaApp::boxed(HulaConfig::new(8, 3));
        let mut sw = P4AuthSwitch::new(
            AgentConfig::new(SwitchId::new(1), 4, Key64::new(1)),
            Some(app),
        );
        let registry = Arc::new(Registry::new());
        sw.set_telemetry(registry.clone());
        for p in 1..=3 {
            sw.install_key(PortId::new(p), Key64::new(100 + u64::from(p)));
        }
        let mut stages = 0;
        // (stages, hash passes, cost ns, recirculations, copies forwarded)
        let mut hop = |seq, round, util| {
            let payload = Probe {
                dst: 5,
                round,
                util,
            }
            .encode();
            let inner = InNetwork::new(HULA_SYSTEM_ID, payload);
            let frame =
                Message::in_network(SwitchId::new(2), PortId::new(1), SeqNum::new(seq), inner)
                    .sealed(&HalfSipHashMac::default(), Key64::new(101))
                    .encode();
            let out = sw.on_packet(0, PortId::new(1), &frame);
            let total = registry.snapshot().counter("dp_stages", "S1").unwrap();
            let used = total - std::mem::replace(&mut stages, total);
            (
                used,
                out.hash_passes,
                out.cost_ns,
                out.recirculations,
                out.outputs.len(),
            )
        };
        // A new best path, first of its round: verify 1 + local util 1 +
        // best-path reads 3 and writes 3 + seen read and write 2 + a seal
        // per other data port 2 = 12 stages, exactly the Tofino budget;
        // 400 ns pipeline + 3 hash passes at 25 ns.
        assert_eq!(hop(1, 1, 10), (12, 3, 475, 0, 2));
        // The same round again via the best hop: the path refreshes, the
        // flood dedup drops the copy after its seen-round read.
        assert_eq!(hop(2, 1, 10), (9, 1, 425, 0, 0));
        // A worse probe of a new round via the best hop still refreshes it
        // and floods.
        assert_eq!(hop(3, 2, 60), (12, 3, 475, 0, 2));
    }

    #[test]
    fn probe_roundtrip() {
        let p = Probe {
            dst: 5,
            round: 9,
            util: 42,
        };
        assert_eq!(Probe::decode(&p.encode()), Some(p));
        assert_eq!(Probe::decode(&[1, 2]), None);
    }

    #[test]
    fn data_frame_roundtrip() {
        let f = DataFrame { dst: 3, flow: 77 };
        assert_eq!(DataFrame::decode(&f.encode()), Some(f));
        assert_eq!(DataFrame::decode(&[0x00; 7]), None);
    }

    #[test]
    fn first_probe_installs_best_hop_and_floods() {
        let (mut chassis, mut app) = chassis_with_app();
        let outs = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 20,
            },
        );
        // Flooded to data ports 2 and 3 (not back to 1).
        assert_eq!(outs.len(), 2);
        assert!(outs.iter().all(|(p, _)| *p != PortId::new(1)));
        assert_eq!(
            chassis.register(regs::BEST_HOP).unwrap().read(5).unwrap(),
            1
        );
        assert_eq!(
            chassis.register(regs::BEST_UTIL).unwrap().read(5).unwrap(),
            20
        );
        // Forwarded probes carry the (possibly raised) util.
        let fwd = Probe::decode(&outs[0].1).unwrap();
        assert_eq!(fwd.util, 20);
        assert_eq!(fwd.round, 1);
    }

    #[test]
    fn better_probe_wins_worse_loses() {
        let (mut chassis, mut app) = chassis_with_app();
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 30,
            },
        );
        // Worse util via port 2: best unchanged.
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(2),
            Probe {
                dst: 5,
                round: 1,
                util: 50,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_HOP).unwrap().read(5).unwrap(),
            1
        );
        // Better util via port 3: takes over.
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(3),
            Probe {
                dst: 5,
                round: 1,
                util: 10,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_HOP).unwrap().read(5).unwrap(),
            3
        );
        assert_eq!(
            chassis.register(regs::BEST_UTIL).unwrap().read(5).unwrap(),
            10
        );
    }

    #[test]
    fn current_best_hop_refreshes_even_if_util_rises() {
        let (mut chassis, mut app) = chassis_with_app();
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 10,
            },
        );
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 2,
                util: 60,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_UTIL).unwrap().read(5).unwrap(),
            60
        );
        // Now port 2 with util 30 beats the refreshed 60.
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(2),
            Probe {
                dst: 5,
                round: 2,
                util: 30,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_HOP).unwrap().read(5).unwrap(),
            2
        );
    }

    #[test]
    fn local_utilization_raises_advertised_util() {
        let (mut chassis, mut app) = chassis_with_app();
        chassis
            .register_mut(regs::LOCAL_UTIL)
            .unwrap()
            .write(1, 70)
            .unwrap();
        let outs = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 20,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_UTIL).unwrap().read(5).unwrap(),
            70
        );
        assert_eq!(Probe::decode(&outs[0].1).unwrap().util, 70);
    }

    #[test]
    fn flood_dedup_by_round() {
        let (mut chassis, mut app) = chassis_with_app();
        let outs1 = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 20,
            },
        );
        assert_eq!(outs1.len(), 2);
        // Same round via another port: state may update, but no re-flood.
        let outs2 = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(2),
            Probe {
                dst: 5,
                round: 1,
                util: 10,
            },
        );
        assert!(outs2.is_empty());
        // Next round floods again.
        let outs3 = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 2,
                util: 20,
            },
        );
        assert_eq!(outs3.len(), 2);
    }

    #[test]
    fn stale_entries_are_replaceable() {
        let (mut chassis, mut app) = chassis_with_app();
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 5,
                round: 1,
                util: 10,
            },
        );
        // Rounds pass without refresh (e.g. P4Auth dropping tampered
        // probes on port 1); a worse-util probe on port 2 takes over
        // because the entry aged out.
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(2),
            Probe {
                dst: 5,
                round: 6,
                util: 40,
            },
        );
        assert_eq!(
            chassis.register(regs::BEST_HOP).unwrap().read(5).unwrap(),
            2
        );
    }

    #[test]
    fn data_follows_best_hop_and_counts() {
        let (mut chassis, mut app) = chassis_with_app();
        run_probe(
            &mut chassis,
            &mut app,
            PortId::new(3),
            Probe {
                dst: 5,
                round: 1,
                util: 5,
            },
        );
        let outs = run_data(&mut chassis, &mut app, DataFrame { dst: 5, flow: 1 });
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].0, PortId::new(3));
        assert_eq!(
            chassis.register(regs::TX_COUNT).unwrap().read(3).unwrap(),
            1
        );
    }

    #[test]
    fn data_with_no_known_path_dropped() {
        let (mut chassis, mut app) = chassis_with_app();
        let outs = run_data(&mut chassis, &mut app, DataFrame { dst: 7, flow: 1 });
        assert!(outs.is_empty());
    }

    #[test]
    fn data_delivered_at_destination() {
        let (mut chassis, mut app) = chassis_with_app();
        // This chassis is switch 1.
        let outs = run_data(&mut chassis, &mut app, DataFrame { dst: 1, flow: 9 });
        assert!(outs.is_empty());
        assert_eq!(
            chassis.register(regs::DELIVERED).unwrap().read(1).unwrap(),
            1
        );
    }

    #[test]
    fn out_of_range_dst_ignored() {
        let (mut chassis, mut app) = chassis_with_app();
        let outs = run_probe(
            &mut chassis,
            &mut app,
            PortId::new(1),
            Probe {
                dst: 999,
                round: 1,
                util: 1,
            },
        );
        assert!(outs.is_empty());
    }
}
