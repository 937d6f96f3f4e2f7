//! The three workloads. Each draws its schedule from the seed once per
//! run; episodes then replay that schedule.

pub mod cdp;
pub mod probe;
pub mod rollover;

use crate::fabric::Episode;
use crate::trace::Tracer;

/// A workload name from the command line.
#[derive(Clone, Copy, Debug)]
pub enum Workload {
    CdpRegisterRw,
    DpdpProbeFlood,
    RolloverUnderFlood,
}

impl Workload {
    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        match name {
            "cdp_register_rw" => Some(Workload::CdpRegisterRw),
            "dpdp_probe_flood" => Some(Workload::DpdpProbeFlood),
            "rollover_under_flood" => Some(Workload::RolloverUnderFlood),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CdpRegisterRw => "cdp_register_rw",
            Workload::DpdpProbeFlood => "dpdp_probe_flood",
            Workload::RolloverUnderFlood => "rollover_under_flood",
        }
    }

    /// Whether the traced run also measures the auth-off ablation.
    pub fn has_ablation(self) -> bool {
        matches!(self, Workload::DpdpProbeFlood)
    }

    /// Draws the workload's schedule from `seed`.
    pub fn schedule(self, seed: u64) -> Inputs {
        match self {
            Workload::CdpRegisterRw => Inputs::Cdp(cdp::schedule(seed)),
            Workload::DpdpProbeFlood => Inputs::Probe(probe::schedule(seed)),
            Workload::RolloverUnderFlood => Inputs::Rollover(rollover::schedule(seed)),
        }
    }
}

/// A drawn schedule, ready to replay.
pub enum Inputs {
    Cdp(cdp::Schedule),
    Probe(probe::Schedule),
    Rollover(rollover::Schedule),
}

impl Inputs {
    /// Runs one episode; `auth = false` only applies to the probe
    /// flood's ablation.
    pub fn episode(&self, tracer: &Tracer, auth: bool) -> Result<Episode, String> {
        match self {
            Inputs::Cdp(s) => cdp::episode(s, tracer),
            Inputs::Probe(s) => probe::episode(s, tracer, auth),
            Inputs::Rollover(s) => rollover::episode(s, tracer),
        }
    }
}
