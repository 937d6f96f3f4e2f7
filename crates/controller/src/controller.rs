//! Controller implementation.

use crate::defence::{DefenceConfig, DefenceState, MitigationAction, MitigationKind};
use p4auth_core::adhkd::{AdhkdInitiator, AdhkdPayload};
use p4auth_core::auth::{AuthMetrics, RejectReason, ReplayWindow};
use p4auth_core::eak::EakInitiator;
use p4auth_core::keys::KeySlot;
use p4auth_primitives::dh::{DhParams, DhPublic};
use p4auth_primitives::kdf::{Kdf, KdfConfig};
use p4auth_primitives::mac::{HalfSipHashMac, Mac};
use p4auth_primitives::rng::SplitMix64;
use p4auth_primitives::Key64;
use p4auth_telemetry::{Counter, Event as TelemetryEvent, Gauge, Histogram, Registry, SpanKind};
use p4auth_wire::body::{
    AdhkdRole, AlertKind, Body, EakStep, KexContext, KeyExchange, NackReason, RegisterOp,
};
use p4auth_wire::ids::{KeyVersion, PortId, RegId, SeqNum, SwitchId};
use p4auth_wire::Message;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Controller configuration.
#[derive(Clone, Copy, Debug)]
pub struct ControllerConfig {
    /// `false` issues unsigned requests (the DP-Reg-RW / P4Runtime
    /// baselines).
    pub auth_enabled: bool,
    /// KDF configuration — must match the switches'.
    pub kdf_config: KdfConfig,
    /// Modified-DH public parameters — must match the switches'.
    pub dh_params: DhParams,
    /// §VIII DoS defence: alert when `requests_sent - responses_received`
    /// exceeds this.
    pub outstanding_threshold: u32,
    /// RNG seed.
    pub rng_seed: u64,
    /// Capacity of the received-alert ring. When full, the oldest alert
    /// is evicted and counted in
    /// [`ControllerStats::alerts_dropped`] — mirroring the agent-side
    /// alert limiter, so an alert storm cannot grow controller memory
    /// without bound.
    pub alert_capacity: usize,
    /// Base delay for [`Controller::retry_stalled`]'s exponential backoff,
    /// in nanoseconds of simulated time. The first retry of a stalled
    /// exchange is immediate; the n-th subsequent retry waits
    /// `backoff * 2^(n-1)` since the previous attempt.
    pub kex_retry_backoff_ns: u64,
    /// Retry attempts after which a stalled exchange is abandoned: the
    /// pending state is dropped, a terminal
    /// [`AlertKind::KeyExchangeFailure`] alert is recorded and
    /// [`ControllerStats::kex_abandoned`] incremented — a dead switch must
    /// not generate unbounded KMP traffic forever.
    pub kex_retry_max_attempts: u32,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig {
            auth_enabled: true,
            kdf_config: KdfConfig::PAPER,
            dh_params: DhParams::recommended(),
            outstanding_threshold: 1024,
            rng_seed: 0xc011_7201_1e4a_11ed,
            alert_capacity: 1024,
            kex_retry_backoff_ns: 200_000,
            kex_retry_max_attempts: 8,
        }
    }
}

/// A message the controller wants transmitted to a switch.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Outgoing {
    /// Destination switch.
    pub to: SwitchId,
    /// Encoded message bytes.
    pub bytes: Vec<u8>,
}

/// Things the controller observed while processing a message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControllerEvent {
    /// A register read completed.
    ValueRead {
        /// Switch that answered.
        switch: SwitchId,
        /// Register read.
        reg: RegId,
        /// Index read.
        index: u32,
        /// Value returned.
        value: u64,
    },
    /// A register write was acknowledged.
    WriteAcked {
        /// Switch that answered.
        switch: SwitchId,
        /// Register written.
        reg: RegId,
        /// Index written.
        index: u32,
    },
    /// A request was refused by the data plane.
    Nacked {
        /// Switch that answered.
        switch: SwitchId,
        /// Why.
        reason: NackReason,
    },
    /// An alert arrived from a switch (possible MitM!).
    AlertReceived {
        /// Reporting switch.
        switch: SwitchId,
        /// Alert kind.
        kind: AlertKind,
    },
    /// An incoming message failed verification at the controller.
    Rejected {
        /// Claimed sender.
        switch: SwitchId,
        /// Why.
        reason: RejectReason,
    },
    /// `K_auth` established with a switch (EAK complete).
    AuthKeyEstablished(SwitchId),
    /// `K_local` installed for a switch (local init complete).
    LocalKeyInstalled(SwitchId),
    /// `K_local` rolled over for a switch (local update complete).
    LocalKeyRolled(SwitchId),
    /// A port-key ADHKD leg was redirected between two data planes.
    PortExchangeRedirected {
        /// The leg's origin.
        from: SwitchId,
        /// The leg's destination.
        to: SwitchId,
    },
    /// A response arrived for an unknown/duplicate sequence number.
    UnmatchedResponse(SwitchId),
    /// Outstanding-request threshold exceeded (§VIII DoS indicator).
    DosSuspected {
        /// The switch whose channel is backlogged.
        switch: SwitchId,
        /// Requests still outstanding.
        outstanding: u32,
    },
    /// The adaptive defence loop decided on a mitigation for a channel.
    DefenceMitigated {
        /// The peer whose channel crossed the reject threshold.
        switch: SwitchId,
        /// The offending channel (`PortId::CPU` for the C-DP channel).
        channel: PortId,
        /// What the defence loop did about it.
        kind: MitigationKind,
    },
}

/// Lifetime counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ControllerStats {
    /// Requests sent.
    pub requests_sent: u64,
    /// Ack/Nack responses accepted.
    pub responses_ok: u64,
    /// Messages rejected (digest/replay).
    pub rejected: u64,
    /// Alerts received.
    pub alerts: u64,
    /// Alerts evicted from the bounded alert ring.
    pub alerts_dropped: u64,
    /// Mitigations the adaptive defence loop issued.
    pub defence_mitigations: u64,
    /// Port-channel mitigation actions evicted from the bounded
    /// [`Controller::take_port_actions`] queue.
    pub defence_actions_dropped: u64,
    /// Stalled key exchanges abandoned after exhausting the retry budget.
    pub kex_abandoned: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PendingRequest {
    reg: RegId,
    index: u32,
    is_write: bool,
    /// Sim time (ns) the request left the controller, per the clock last
    /// pushed via [`Controller::set_now`]. Used for the register-op latency
    /// histogram.
    sent_at_ns: u64,
}

/// Pre-registered telemetry handles for the controller, labeled
/// `"controller"` by default (replicas use `"replica<i>"`).
struct ControllerTelemetry {
    registry: Arc<Registry>,
    /// Trace-span source id for this controller instance. Controllers are
    /// not simulation nodes, so they use a reserved range above any
    /// plausible switch id: `0xFE00` for `"controller"`, `0xFE01 + i` for
    /// `"replica<i>"` — keeping per-source span sequence streams disjoint
    /// from the data plane's.
    trace_source: u16,
    auth: AuthMetrics,
    register_op_ns: Arc<Histogram>,
    outstanding: Arc<Gauge>,
    requests_sent: Arc<Counter>,
    responses_ok: Arc<Counter>,
    alerts_received: Arc<Counter>,
    alerts_dropped: Arc<Counter>,
    key_installs: Arc<Counter>,
    key_rollovers: Arc<Counter>,
    defence_mitigations: Arc<Counter>,
    defence_latency_ns: Arc<Histogram>,
    defence_actions_dropped: Arc<Counter>,
    kex_abandoned: Arc<Counter>,
    rollover_fanout_ns: Arc<Histogram>,
}

impl ControllerTelemetry {
    const LABEL: &'static str = "controller";

    /// Maps a telemetry label to the reserved controller trace-source
    /// range (see the `trace_source` field).
    fn trace_source_for(label: &str) -> u16 {
        let replica = label
            .strip_prefix("replica")
            .and_then(|d| d.parse::<u16>().ok())
            .map_or(0, |i| i + 1);
        0xFE00 + replica.min(0xFF)
    }

    /// Records a zero-width trace span at this controller's source, if
    /// tracing is enabled on the registry.
    fn trace_instant(&self, kind: SpanKind, now_ns: u64, arg_a: u64, arg_b: u64) {
        self.registry
            .trace()
            .instant(kind, now_ns, self.trace_source, arg_a, arg_b);
    }

    fn new(registry: Arc<Registry>, label: &str) -> Self {
        ControllerTelemetry {
            trace_source: Self::trace_source_for(label),
            auth: AuthMetrics::register(&registry, label),
            register_op_ns: registry.histogram_with("ctrl_register_op_ns", label),
            outstanding: registry.gauge_with("ctrl_outstanding", label),
            requests_sent: registry.counter_with("ctrl_requests_sent", label),
            responses_ok: registry.counter_with("ctrl_responses_ok", label),
            alerts_received: registry.counter_with("ctrl_alerts_received", label),
            alerts_dropped: registry.counter_with("ctrl_alerts_dropped", label),
            key_installs: registry.counter_with("ctrl_key_installs", label),
            key_rollovers: registry.counter_with("ctrl_key_rollovers", label),
            defence_mitigations: registry.counter_with("ctrl_defence_mitigations", label),
            defence_latency_ns: registry.histogram_with("defence_mitigation_latency_ns", label),
            defence_actions_dropped: registry.counter_with("ctrl_defence_actions_dropped", label),
            kex_abandoned: registry.counter_with("ctrl_kex_abandoned", label),
            rollover_fanout_ns: registry.histogram_with("ctrl_rollover_fanout_ns", label),
            registry,
        }
    }
}

/// Per-exchange retry bookkeeping for [`Controller::retry_stalled`]'s
/// capped exponential backoff.
#[derive(Clone, Copy, Debug, Default)]
struct RetryState {
    /// Retries already issued for the exchange in flight.
    attempts: u32,
    /// Sim time the exchange was last (re-)issued.
    last_attempt_ns: u64,
}

impl RetryState {
    /// Backoff delay before the next retry: the first retry is free,
    /// after which the delay doubles per attempt (saturating).
    fn delay_ns(self, base_ns: u64) -> u64 {
        match self.attempts {
            0 => 0,
            n => base_ns.saturating_mul(1u64 << (n - 1).min(20)),
        }
    }

    /// Whether a retry is due at `now_ns` given backoff base `base_ns`.
    fn due(self, now_ns: u64, base_ns: u64) -> bool {
        now_ns.saturating_sub(self.last_attempt_ns) >= self.delay_ns(base_ns)
    }
}

struct SwitchChannel {
    k_seed: Key64,
    k_auth: Option<Key64>,
    local: KeySlot,
    seq_out: SeqNum,
    eak: Option<EakInitiator>,
    /// Pending ADHKD exchange: context, initiator state, and the offer
    /// as sent. Retries re-send this *same* offer (fresh seq) rather
    /// than regenerating the exchange — a regenerated offer racing the
    /// original through the network would derive on the responder twice
    /// for one counted rollover (the responder dedupes retransmissions
    /// by offer content).
    adhkd: Option<(KexContext, AdhkdInitiator, AdhkdPayload)>,
    outstanding: HashMap<SeqNum, PendingRequest>,
    retry: RetryState,
}

impl SwitchChannel {
    fn new(k_seed: Key64) -> Self {
        SwitchChannel {
            k_seed,
            k_auth: None,
            local: KeySlot::default(),
            seq_out: SeqNum::new(0),
            eak: None,
            adhkd: None,
            outstanding: HashMap::new(),
            retry: RetryState::default(),
        }
    }

    fn next_seq(&mut self) -> SeqNum {
        self.seq_out = self.seq_out.next();
        self.seq_out
    }
}

/// Tracks one in-flight port-key initialization redirect (Fig. 14 c).
#[derive(Clone, Copy, Debug)]
struct PortRedirect {
    initiator: SwitchId,
    initiator_port: PortId,
    responder: SwitchId,
    responder_port: PortId,
    retry: RetryState,
}

/// The P4Auth controller.
pub struct Controller {
    config: ControllerConfig,
    mac: Box<dyn Mac>,
    kdf: Kdf,
    rng: SplitMix64,
    switches: HashMap<SwitchId, SwitchChannel>,
    replay: ReplayWindow,
    redirects: Vec<PortRedirect>,
    alerts: VecDeque<(SwitchId, AlertKind)>,
    stats: ControllerStats,
    now_ns: u64,
    telemetry: Option<ControllerTelemetry>,
    defence: Option<DefenceState>,
    /// Mitigations for DP-DP port channels, awaiting the harness (which
    /// knows which peer switch sits behind a port). Bounded like the
    /// defence loop's own pending queue.
    port_actions: VecDeque<MitigationAction>,
    /// Trace bookkeeping for in-flight mitigations:
    /// `(detected_at_ns, published_at_ns)` per channel, so
    /// [`Controller::complete_mitigation`] can decompose the recorded
    /// latency into detect / publish / KMP / install stage spans. Bounded
    /// by the defence loop's in-flight set (one entry per channel;
    /// completion and abort both remove).
    mitigation_marks: HashMap<(SwitchId, PortId), (u64, u64)>,
}

impl std::fmt::Debug for Controller {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Controller")
            .field("switches", &self.switches.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Controller {
    /// Creates a controller with the default (HalfSipHash) MAC.
    pub fn new(config: ControllerConfig) -> Self {
        Controller::with_mac(config, Box::new(HalfSipHashMac::default()))
    }

    /// Creates a controller with an explicit MAC (must match the switches').
    pub fn with_mac(config: ControllerConfig, mac: Box<dyn Mac>) -> Self {
        Controller {
            mac,
            kdf: Kdf::new(config.kdf_config),
            rng: SplitMix64::new(config.rng_seed),
            switches: HashMap::new(),
            replay: ReplayWindow::new(),
            redirects: Vec::new(),
            alerts: VecDeque::new(),
            stats: ControllerStats::default(),
            config,
            now_ns: 0,
            telemetry: None,
            defence: None,
            port_actions: VecDeque::new(),
            mitigation_marks: HashMap::new(),
        }
    }

    /// Pushes the simulation clock. The controller has no clock of its own;
    /// the harness calls this before every `on_message` / request issue so
    /// register-op latencies can be measured in sim-ns.
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = now_ns;
    }

    /// Attaches a telemetry registry; controller metrics are labeled
    /// `"controller"`.
    pub fn set_telemetry(&mut self, registry: Arc<Registry>) {
        self.telemetry = Some(ControllerTelemetry::new(
            registry,
            ControllerTelemetry::LABEL,
        ));
    }

    /// Attaches a telemetry registry with an explicit metric label
    /// (replicas use `"replica<i>"` so per-replica series stay apart in
    /// one shared registry).
    pub fn set_telemetry_labeled(&mut self, registry: Arc<Registry>, label: &str) {
        self.telemetry = Some(ControllerTelemetry::new(registry, label));
    }

    /// Registers a switch and its pre-shared boot secret.
    ///
    /// # Panics
    ///
    /// Panics on duplicate registration.
    pub fn register_switch(&mut self, id: SwitchId, k_seed: Key64) {
        let prev = self.switches.insert(id, SwitchChannel::new(k_seed));
        assert!(prev.is_none(), "switch {id} registered twice");
    }

    /// Whether `K_local` is established with `switch`.
    pub fn has_local_key(&self, switch: SwitchId) -> bool {
        self.switches
            .get(&switch)
            .is_some_and(|c| c.local.is_installed())
    }

    /// Whether `K_auth` is established with `switch`.
    pub fn has_auth_key(&self, switch: SwitchId) -> bool {
        self.switches
            .get(&switch)
            .is_some_and(|c| c.k_auth.is_some())
    }

    /// Alerts retained in the bounded ring (newest at the back); older
    /// alerts beyond [`ControllerConfig::alert_capacity`] are evicted
    /// and counted in [`ControllerStats::alerts_dropped`].
    pub fn alerts(&self) -> &VecDeque<(SwitchId, AlertKind)> {
        &self.alerts
    }

    /// Enables the telemetry-driven adaptive defence loop (sliding-window
    /// reject tracking with automatic key rollover / quarantine).
    pub fn enable_defence(&mut self, config: DefenceConfig) {
        self.defence = Some(DefenceState::new(config));
    }

    /// Whether a defence mitigation is currently in flight on
    /// `(peer, channel)`.
    pub fn defence_in_flight(&self, peer: SwitchId, channel: PortId) -> bool {
        self.defence
            .as_ref()
            .is_some_and(|d| d.mitigation_in_flight(peer, channel))
    }

    /// Whether a CPU-channel key exchange (EAK or ADHKD) is currently in
    /// flight toward `switch`.
    pub fn kex_in_flight(&self, switch: SwitchId) -> bool {
        self.switches
            .get(&switch)
            .is_some_and(|c| c.eak.is_some() || c.adhkd.is_some())
    }

    /// The established local key and its version for `switch`, if any.
    /// A replica hosting a cross-partition port-key redirect mirrors it
    /// from the owner's core to verify and seal the redirected legs.
    pub fn local_key_material(&self, switch: SwitchId) -> Option<(Key64, KeyVersion)> {
        let chan = self.switches.get(&switch)?;
        chan.local.current().map(|k| (k, chan.local.version()))
    }

    /// Installs (or refreshes) a *mirrored* local key for a switch owned
    /// by a different controller replica, so this replica can verify and
    /// re-seal redirected port-key legs touching that switch. Creates the
    /// channel if the switch was never registered here; a mirrored
    /// channel never runs its own exchanges (its `K_seed` is void).
    pub fn mirror_peer_key(&mut self, switch: SwitchId, key: Key64, version: KeyVersion) {
        let chan = self
            .switches
            .entry(switch)
            .or_insert_with(|| SwitchChannel::new(Key64::default()));
        chan.local.force(key, version);
    }

    /// The outbound sequence counter toward `switch` (the last value
    /// used). Replicas hand this off when a port-key redirect migrates a
    /// channel between them: the agents' replay windows demand strictly
    /// increasing sequence numbers from `SwitchId::CONTROLLER` no matter
    /// which replica sealed the message.
    pub fn channel_seq(&self, switch: SwitchId) -> Option<u32> {
        self.switches.get(&switch).map(|c| c.seq_out.value())
    }

    /// Overwrites the outbound sequence counter toward `switch` (the
    /// counterpart of [`Controller::channel_seq`] on the receiving
    /// replica). No-op if the switch has no channel here.
    pub fn set_channel_seq(&mut self, switch: SwitchId, seq: u32) {
        if let Some(chan) = self.switches.get_mut(&switch) {
            chan.seq_out = SeqNum::new(seq);
        }
    }

    /// Records one bulk-rollover fan-out latency (epoch start → every
    /// switch in the partition on the new epoch) in the
    /// `ctrl_rollover_fanout_ns` histogram.
    pub fn record_rollover_fanout(&self, latency_ns: u64) {
        if let Some(t) = &self.telemetry {
            t.rollover_fanout_ns.record(latency_ns);
        }
    }

    /// Records a zero-width trace span at this controller's trace source
    /// (no-op without telemetry or with tracing disabled). A replica's
    /// rollover step uses it to stamp its table writes and wakeups into
    /// the same span stream.
    pub(crate) fn trace_instant(&self, kind: SpanKind, now_ns: u64, arg_a: u64, arg_b: u64) {
        if let Some(t) = &self.telemetry {
            t.trace_instant(kind, now_ns, arg_a, arg_b);
        }
    }

    /// Records a completed trace span `[start_ns, end_ns]` at this
    /// controller's trace source (no-op without telemetry or tracing).
    pub(crate) fn trace_span(
        &self,
        kind: SpanKind,
        start_ns: u64,
        end_ns: u64,
        arg_a: u64,
        arg_b: u64,
    ) {
        if let Some(t) = &self.telemetry {
            let trace = t.registry.trace();
            if let Some(span) = trace.start(kind, start_ns, t.trace_source) {
                trace.end(span, end_ns, arg_a, arg_b);
            }
        }
    }

    /// Whether the defence loop currently quarantines `(switch, channel)`.
    pub fn defence_quarantined(&self, switch: SwitchId, channel: PortId) -> bool {
        self.defence
            .as_ref()
            .is_some_and(|d| d.is_quarantined(switch, channel))
    }

    /// Drains mitigations the defence loop decided for DP-DP *port*
    /// channels. The controller handles CPU-channel mitigations itself
    /// (it owns the local-key exchange); port channels need the topology
    /// knowledge the harness has (which peer sits behind the port).
    pub fn take_port_actions(&mut self) -> Vec<MitigationAction> {
        std::mem::take(&mut self.port_actions).into()
    }

    /// Notifies the defence loop that a fresh key landed on a DP-DP port
    /// channel. The controller observes local-key completions itself but
    /// never sees port-key ADHKD finish (it only redirects the legs), so
    /// the harness reports those. Records the detection-to-mitigation
    /// latency if a mitigation was in flight.
    pub fn notify_port_key_installed(&mut self, peer: SwitchId, channel: PortId) {
        self.complete_mitigation(peer, channel);
    }

    /// Bumps the per-channel auth-failure counter
    /// `ctrl_channel_rejects{<peer>:<channel>}`: one increment per signal
    /// the defence loop is fed (a forged digest or replay on the C-DP
    /// channel, or an authenticated agent alert naming the channel), so
    /// the snapshot shows which channels were under attack. Observability
    /// only; detection runs on the loop's own sliding windows.
    fn count_channel_reject(&self, peer: SwitchId, channel: PortId) {
        if let Some(t) = &self.telemetry {
            t.registry
                .counter_with("ctrl_channel_rejects", &format!("{peer}:{channel}"))
                .inc();
        }
    }

    fn complete_mitigation(&mut self, peer: SwitchId, channel: PortId) {
        let now_ns = self.now_ns;
        let marks = self.mitigation_marks.remove(&(peer, channel));
        let Some(done) = self
            .defence
            .as_mut()
            .and_then(|d| d.on_key_installed(now_ns, peer, channel))
        else {
            return;
        };
        if let Some(t) = &self.telemetry {
            t.defence_latency_ns.record(done.latency_ns);
            t.registry.record(
                now_ns,
                TelemetryEvent::DefenceAction {
                    peer: peer.value(),
                    channel: channel.value(),
                    action: "mitigation_complete",
                },
            );
            // The mitigation critical path as one trace: a root span over
            // the full detection-to-mitigation latency with stage children
            // that partition it exactly — detect [t0, t1] (crossing
            // detected until the defence loop published the action),
            // publish (instant at t1), kmp [t1, now] (the key-exchange
            // round trip), install (instant at now). Stage widths sum to
            // `done.latency_ns` by construction.
            let trace = t.registry.trace();
            if trace.enabled() {
                let t0 = now_ns.saturating_sub(done.latency_ns);
                let t1 = marks.map_or(t0, |(_, published)| published.clamp(t0, now_ns));
                let (arg_a, arg_b) = (u64::from(peer.value()), u64::from(channel.value()));
                if let Some(root) = trace.start(SpanKind::Mitigation, t0, t.trace_source) {
                    if let Some(s) =
                        trace.child(&root, SpanKind::MitigationDetect, t0, t.trace_source)
                    {
                        trace.end(s, t1, arg_a, arg_b);
                    }
                    trace.instant_in(
                        &root,
                        SpanKind::MitigationPublish,
                        t1,
                        t.trace_source,
                        arg_a,
                        arg_b,
                    );
                    if let Some(s) = trace.child(&root, SpanKind::MitigationKmp, t1, t.trace_source)
                    {
                        trace.end(s, now_ns, arg_a, arg_b);
                    }
                    trace.instant_in(
                        &root,
                        SpanKind::MitigationInstall,
                        now_ns,
                        t.trace_source,
                        arg_a,
                        arg_b,
                    );
                    if done.kind == MitigationKind::Quarantine {
                        trace.instant_in(
                            &root,
                            SpanKind::QuarantineLift,
                            now_ns,
                            t.trace_source,
                            arg_a,
                            arg_b,
                        );
                    }
                    trace.end(
                        root,
                        now_ns,
                        arg_a,
                        u64::from(done.kind == MitigationKind::Quarantine),
                    );
                }
            }
        }
    }

    /// Translates pending defence decisions into wire actions: rolls the
    /// local key for CPU-channel mitigations and queues port-channel
    /// mitigations for the harness.
    fn drive_defence(&mut self, out: &mut Vec<Outgoing>, events: &mut Vec<ControllerEvent>) {
        let actions = match &mut self.defence {
            Some(d) => d.take_actions(),
            None => return,
        };
        for action in actions {
            self.stats.defence_mitigations += 1;
            self.mitigation_marks.insert(
                (action.peer, action.channel),
                (action.detected_at_ns, self.now_ns),
            );
            if let Some(t) = &self.telemetry {
                t.defence_mitigations.inc();
                t.registry.record(
                    self.now_ns,
                    TelemetryEvent::DefenceAction {
                        peer: action.peer.value(),
                        channel: action.channel.value(),
                        action: action.kind.as_str(),
                    },
                );
            }
            events.push(ControllerEvent::DefenceMitigated {
                switch: action.peer,
                channel: action.channel,
                kind: action.kind,
            });
            if action.channel.is_cpu() {
                if self.has_local_key(action.peer) {
                    // Both rungs roll the key: for a quarantine the fresh
                    // key is also the exit path. A rollover already in
                    // flight *is* that roll (its completion runs
                    // `complete_mitigation`); starting another would
                    // replace the pending exchange, and the answer to the
                    // first offer would be finished against the second
                    // offer's secret — a key the switch does not hold.
                    if !self.kex_in_flight(action.peer) {
                        out.extend(self.local_key_update(action.peer));
                    }
                } else {
                    // Nothing to roll yet (bootstrap still running);
                    // abandon rather than wedge the channel.
                    self.mitigation_marks.remove(&(action.peer, action.channel));
                    self.defence
                        .as_mut()
                        .expect("drained above")
                        .abort(action.peer, action.channel);
                }
            } else {
                // Bounded like the defence loop's own queue: a harness
                // that never drains must not grow this without limit.
                // Evicted actions un-wedge their channel via abort.
                let cap = self
                    .defence
                    .as_ref()
                    .map_or(usize::MAX, |d| d.config().pending_capacity.max(1));
                while self.port_actions.len() >= cap {
                    let evicted = self.port_actions.pop_front().expect("len checked");
                    self.stats.defence_actions_dropped += 1;
                    if let Some(t) = &self.telemetry {
                        t.defence_actions_dropped.inc();
                    }
                    self.mitigation_marks
                        .remove(&(evicted.peer, evicted.channel));
                    if let Some(d) = &mut self.defence {
                        d.abort(evicted.peer, evicted.channel);
                    }
                }
                self.port_actions.push_back(action);
            }
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ControllerStats {
        self.stats
    }

    /// Outstanding (unanswered) requests toward `switch`.
    pub fn outstanding(&self, switch: SwitchId) -> u32 {
        self.switches
            .get(&switch)
            .map_or(0, |c| c.outstanding.len() as u32)
    }

    fn channel_mut(&mut self, switch: SwitchId) -> &mut SwitchChannel {
        self.switches
            .get_mut(&switch)
            .unwrap_or_else(|| panic!("unknown switch {switch}"))
    }

    /// Seals (if auth is enabled) and encodes a message for `switch` using
    /// its current local key.
    fn seal_local(&mut self, switch: SwitchId, mut msg: Message) -> Outgoing {
        if self.config.auth_enabled {
            let chan = self.channel_mut(switch);
            if let Some(key) = chan.local.current() {
                msg = msg.with_key_version(chan.local.version());
                msg.seal(self.mac.as_ref(), key);
            }
        }
        Outgoing {
            to: switch,
            bytes: msg.encode(),
        }
    }

    // ----- register access (§V) -------------------------------------------

    /// Issues a register read request.
    pub fn read_register(&mut self, switch: SwitchId, reg: RegId, index: u32) -> Outgoing {
        self.request(switch, reg, index, None)
    }

    /// Issues a register write request.
    pub fn write_register(
        &mut self,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: u64,
    ) -> Outgoing {
        self.request(switch, reg, index, Some(value))
    }

    fn request(
        &mut self,
        switch: SwitchId,
        reg: RegId,
        index: u32,
        value: Option<u64>,
    ) -> Outgoing {
        let now_ns = self.now_ns;
        let chan = self.channel_mut(switch);
        let seq = chan.next_seq();
        let is_write = value.is_some();
        chan.outstanding.insert(
            seq,
            PendingRequest {
                reg,
                index,
                is_write,
                sent_at_ns: now_ns,
            },
        );
        self.stats.requests_sent += 1;
        if let Some(t) = &self.telemetry {
            t.requests_sent.inc();
            t.outstanding.add(1);
        }
        let op = match value {
            Some(v) => RegisterOp::write_req(reg, index, v),
            None => RegisterOp::read_req(reg, index),
        };
        let msg = Message::register_request(SwitchId::CONTROLLER, seq, op);
        self.seal_local(switch, msg)
    }

    // ----- key management (§VI) -------------------------------------------

    /// Starts local-key initialization for `switch` (Fig. 14 a): sends EAK
    /// salt #1, sealed with `K_seed`.
    pub fn local_key_init(&mut self, switch: SwitchId) -> Vec<Outgoing> {
        let (chan_seed, seq) = {
            let chan = self.channel_mut(switch);
            (chan.k_seed, chan.next_seq())
        };
        let (eak, s1) = EakInitiator::start(chan_seed, &mut self.rng);
        let now_ns = self.now_ns;
        {
            let chan = self.channel_mut(switch);
            chan.eak = Some(eak);
            chan.retry = RetryState {
                attempts: 0,
                last_attempt_ns: now_ns,
            };
        }
        let mut msg = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            seq,
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                salt: s1,
            },
        );
        msg.seal(self.mac.as_ref(), chan_seed);
        vec![Outgoing {
            to: switch,
            bytes: msg.encode(),
        }]
    }

    /// Starts a local-key rollover (Fig. 14 b): ADHKD offer under the
    /// current `K_local`.
    ///
    /// # Panics
    ///
    /// Panics if no local key is installed yet.
    pub fn local_key_update(&mut self, switch: SwitchId) -> Vec<Outgoing> {
        assert!(
            self.has_local_key(switch),
            "local key update before init for {switch}"
        );
        let (init, offer) = AdhkdInitiator::start(self.config.dh_params, &mut self.rng);
        let now_ns = self.now_ns;
        if let Some(t) = &self.telemetry {
            t.trace_instant(SpanKind::KmpOffer, now_ns, u64::from(switch.value()), 1);
        }
        let chan = self.channel_mut(switch);
        chan.adhkd = Some((KexContext::LocalUpdate, init, offer));
        chan.retry = RetryState {
            attempts: 0,
            last_attempt_ns: now_ns,
        };
        let seq = chan.next_seq();
        let msg = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            seq,
            KeyExchange::Adhkd {
                role: AdhkdRole::Offer,
                context: KexContext::LocalUpdate,
                public_key: offer.public_key.to_raw(),
                salt: offer.salt,
            },
        );
        vec![self.seal_local(switch, msg)]
    }

    /// Whether a redirected port-key exchange for exactly this link is
    /// still pending (started but not yet completed by its answer leg).
    /// Link-recovery handlers use this to avoid starting a second,
    /// overlapping exchange generation for a flapping link.
    pub fn has_pending_port_exchange(
        &self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> bool {
        self.redirects.iter().any(|r| {
            r.initiator == sw1
                && r.initiator_port == port1
                && r.responder == sw2
                && r.responder_port == port2
        })
    }

    /// Starts port-key initialization between `(sw1, port1)` and
    /// `(sw2, port2)` (Fig. 14 c): `portKeyInit` to the initiator switch;
    /// subsequent ADHKD legs are redirected through
    /// [`Controller::on_message`].
    pub fn port_key_init(
        &mut self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
        port2: PortId,
    ) -> Vec<Outgoing> {
        self.redirects.push(PortRedirect {
            initiator: sw1,
            initiator_port: port1,
            responder: sw2,
            responder_port: port2,
            retry: RetryState {
                attempts: 0,
                last_attempt_ns: self.now_ns,
            },
        });
        if let Some(t) = &self.telemetry {
            t.trace_instant(
                SpanKind::PortKeyExchange,
                self.now_ns,
                u64::from(sw1.value()),
                u64::from(sw2.value()),
            );
        }
        let seq = self.channel_mut(sw1).next_seq();
        let msg = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            seq,
            KeyExchange::PortKeyInit {
                peer: sw2,
                peer_port: port1,
            },
        );
        vec![self.seal_local(sw1, msg)]
    }

    /// Starts a direct DP-DP port-key rollover (Fig. 14 d): one
    /// `portKeyUpdate` control message to the initiating switch.
    pub fn port_key_update(
        &mut self,
        sw1: SwitchId,
        port1: PortId,
        sw2: SwitchId,
    ) -> Vec<Outgoing> {
        if let Some(t) = &self.telemetry {
            t.trace_instant(
                SpanKind::PortKeyExchange,
                self.now_ns,
                u64::from(sw1.value()),
                u64::from(sw2.value()),
            );
        }
        let seq = self.channel_mut(sw1).next_seq();
        let msg = Message::key_exchange(
            SwitchId::CONTROLLER,
            PortId::CPU,
            seq,
            KeyExchange::PortKeyUpdate {
                peer: sw2,
                peer_port: port1,
            },
        );
        vec![self.seal_local(sw1, msg)]
    }

    /// Re-drives stalled key exchanges (lost messages leave `eak` /
    /// `adhkd` / redirect state pending): EAK restarts with a fresh salt,
    /// ADHKD restarts with a fresh private key, and pending port-key
    /// redirects are re-initiated. Safe to call periodically — completed
    /// exchanges have no pending state and produce nothing.
    ///
    /// Retries back off exponentially in sim-ns: the first retry of an
    /// exchange is immediate, after which each further retry waits
    /// [`ControllerConfig::kex_retry_backoff_ns`] doubled per attempt.
    /// After [`ControllerConfig::kex_retry_max_attempts`] retries the
    /// exchange is abandoned — its pending state is dropped, a terminal
    /// [`AlertKind::KeyExchangeFailure`] alert lands in the alert ring
    /// and [`ControllerStats::kex_abandoned`] is incremented — so a dead
    /// switch cannot generate unbounded KMP traffic.
    pub fn retry_stalled(&mut self) -> Vec<Outgoing> {
        let now_ns = self.now_ns;
        let base_ns = self.config.kex_retry_backoff_ns.max(1);
        let max_attempts = self.config.kex_retry_max_attempts.max(1);
        let mut out = Vec::new();
        // Sorted: HashMap iteration order varies per process, and retry
        // order is observable (seq numbers, RNG draws, telemetry events).
        let mut ids: Vec<SwitchId> = self.switches.keys().copied().collect();
        ids.sort();
        for id in ids {
            let (eak_stalled, adhkd_pending, retry) = {
                let chan = self.switches.get(&id).expect("listed");
                (
                    chan.eak.is_some(),
                    chan.adhkd.as_ref().map(|(c, _, offer)| (*c, *offer)),
                    chan.retry,
                )
            };
            if !eak_stalled && adhkd_pending.is_none() {
                continue; // nothing pending
            }
            if !retry.due(now_ns, base_ns) {
                continue; // backing off
            }
            if retry.attempts >= max_attempts {
                self.abandon_kex(id);
                continue;
            }
            if eak_stalled {
                // Restart the whole local-key init from EAK step 1.
                self.switches.get_mut(&id).expect("listed").eak = None;
                out.extend(self.local_key_init(id));
            } else {
                // Retransmit the pending offer *as sent* (fresh seq only):
                // the exchange state stays put, so an answer to either
                // copy completes it, and the responder's dedupe cache
                // keeps the duplicate from deriving a second key.
                match adhkd_pending {
                    Some((KexContext::LocalInit, offer)) => {
                        // K_auth exists; re-offer under it.
                        let k_auth = self
                            .switches
                            .get(&id)
                            .and_then(|c| c.k_auth)
                            .expect("LocalInit pending implies K_auth");
                        let chan = self.channel_mut(id);
                        let seq = chan.next_seq();
                        let mut m = Message::key_exchange(
                            SwitchId::CONTROLLER,
                            PortId::CPU,
                            seq,
                            KeyExchange::Adhkd {
                                role: AdhkdRole::Offer,
                                context: KexContext::LocalInit,
                                public_key: offer.public_key.to_raw(),
                                salt: offer.salt,
                            },
                        );
                        m.seal(self.mac.as_ref(), k_auth);
                        out.push(Outgoing {
                            to: id,
                            bytes: m.encode(),
                        });
                    }
                    Some((KexContext::LocalUpdate, offer)) => {
                        let chan = self.channel_mut(id);
                        let seq = chan.next_seq();
                        let msg = Message::key_exchange(
                            SwitchId::CONTROLLER,
                            PortId::CPU,
                            seq,
                            KeyExchange::Adhkd {
                                role: AdhkdRole::Offer,
                                context: KexContext::LocalUpdate,
                                public_key: offer.public_key.to_raw(),
                                salt: offer.salt,
                            },
                        );
                        out.push(self.seal_local(id, msg));
                    }
                    _ => continue,
                }
            }
            // The re-drive reset the channel's retry state; restore the
            // attempt count so the backoff keeps growing.
            self.channel_mut(id).retry = RetryState {
                attempts: retry.attempts + 1,
                last_attempt_ns: now_ns,
            };
        }
        // Re-kick pending port-key redirects from the top, under the same
        // backoff/cap discipline.
        let redirects: Vec<PortRedirect> = std::mem::take(&mut self.redirects);
        for mut r in redirects {
            if !r.retry.due(now_ns, base_ns) {
                self.redirects.push(r);
                continue;
            }
            if r.retry.attempts >= max_attempts {
                self.stats.kex_abandoned += 1;
                self.push_alert(r.initiator, AlertKind::KeyExchangeFailure);
                if let Some(t) = &self.telemetry {
                    t.kex_abandoned.inc();
                    t.registry.record(
                        now_ns,
                        TelemetryEvent::KexStep {
                            node: SwitchId::CONTROLLER.value(),
                            step: "port_kex_abandoned",
                        },
                    );
                }
                continue; // dropped
            }
            r.retry = RetryState {
                attempts: r.retry.attempts + 1,
                last_attempt_ns: now_ns,
            };
            let seq = self.channel_mut(r.initiator).next_seq();
            let msg = Message::key_exchange(
                SwitchId::CONTROLLER,
                PortId::CPU,
                seq,
                KeyExchange::PortKeyInit {
                    peer: r.responder,
                    peer_port: r.initiator_port,
                },
            );
            out.push(self.seal_local(r.initiator, msg));
            self.redirects.push(r);
        }
        out
    }

    /// Abandons every pending exchange toward `switch` after the retry
    /// budget is spent: terminal alert, counter, defence un-wedge.
    fn abandon_kex(&mut self, switch: SwitchId) {
        {
            let chan = self.channel_mut(switch);
            chan.eak = None;
            chan.adhkd = None;
            chan.retry = RetryState::default();
        }
        self.stats.kex_abandoned += 1;
        self.push_alert(switch, AlertKind::KeyExchangeFailure);
        if let Some(t) = &self.telemetry {
            t.kex_abandoned.inc();
            t.registry.record(
                self.now_ns,
                TelemetryEvent::KexStep {
                    node: SwitchId::CONTROLLER.value(),
                    step: "kex_abandoned",
                },
            );
        }
        // A defence mitigation waiting on this exchange would never
        // complete; abort it so the channel is not wedged (quarantine
        // included — its exit path just died).
        if let Some(d) = &mut self.defence {
            d.abort(switch, PortId::CPU);
        }
    }

    /// Appends to the bounded alert ring, evicting (and counting) the
    /// oldest when full.
    fn push_alert(&mut self, switch: SwitchId, kind: AlertKind) {
        while self.alerts.len() >= self.config.alert_capacity.max(1) {
            self.alerts.pop_front();
            self.stats.alerts_dropped += 1;
            if let Some(t) = &self.telemetry {
                t.alerts_dropped.inc();
            }
        }
        self.alerts.push_back((switch, kind));
    }

    // ----- inbound processing ---------------------------------------------

    /// Selects the verification key for an inbound message.
    fn verify_key_for(&self, from: SwitchId, msg: &Message) -> Option<Key64> {
        let chan = self.switches.get(&from)?;
        match msg.body() {
            Body::KeyExchange(KeyExchange::EakSalt { .. }) => Some(chan.k_seed),
            Body::KeyExchange(KeyExchange::Adhkd {
                context: KexContext::LocalInit,
                ..
            }) => chan.k_auth,
            _ => chan.local.select(msg.header().key_version),
        }
    }

    /// Processes a message received from `from`; returns follow-up
    /// messages to transmit and the events observed.
    pub fn on_message(
        &mut self,
        from: SwitchId,
        bytes: &[u8],
    ) -> (Vec<Outgoing>, Vec<ControllerEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let Ok(msg) = Message::decode(bytes) else {
            // Framing garbage carries no verifiable sender claim:
            // classify as transport-malformed, not BadDigest, so it can
            // neither inflate `auth_reject_bad_digest` nor drive the
            // defence loop toward a needless key rollover.
            self.stats.rejected += 1;
            if let Some(t) = &self.telemetry {
                t.auth.record_verify(&Err(RejectReason::Malformed));
                t.registry.record(
                    self.now_ns,
                    TelemetryEvent::DigestRejected {
                        peer: from.value(),
                        channel: PortId::CPU.value(),
                        reason: RejectReason::Malformed.kind(),
                    },
                );
            }
            events.push(ControllerEvent::Rejected {
                switch: from,
                reason: RejectReason::Malformed,
            });
            return (out, events);
        };

        // Quarantined channels drop everything except key exchange — the
        // key-management protocol is the quarantine's exit path.
        if self.defence_quarantined(from, PortId::CPU)
            && !matches!(msg.body(), Body::KeyExchange(_))
        {
            self.stats.rejected += 1;
            if let Some(t) = &self.telemetry {
                t.auth.record_verify(&Err(RejectReason::Quarantined));
                t.registry.record(
                    self.now_ns,
                    TelemetryEvent::DigestRejected {
                        peer: from.value(),
                        channel: PortId::CPU.value(),
                        reason: RejectReason::Quarantined.kind(),
                    },
                );
            }
            events.push(ControllerEvent::Rejected {
                switch: from,
                reason: RejectReason::Quarantined,
            });
            return (out, events);
        }

        if self.config.auth_enabled {
            let key = self.verify_key_for(from, &msg);
            let result = match key {
                None => Err(RejectReason::NoKey),
                Some(k) if !Message::verify_frame(bytes, self.mac.as_ref(), k) => {
                    Err(RejectReason::BadDigest)
                }
                Some(_) => {
                    // Responses echo the request's seq, so the replay window
                    // only applies to switch-initiated messages (alerts,
                    // key-exchange legs) — responses are deduplicated via
                    // the outstanding map instead.
                    match msg.body() {
                        Body::Register(_) => Ok(()),
                        _ => self
                            .replay
                            .check_and_advance(from, PortId::CPU, msg.header().seq_num),
                    }
                }
            };
            match result {
                Err(reason) => {
                    self.stats.rejected += 1;
                    if let Some(t) = &self.telemetry {
                        t.auth.record_verify(&Err(reason));
                        t.registry.record(
                            self.now_ns,
                            TelemetryEvent::DigestRejected {
                                peer: from.value(),
                                channel: PortId::CPU.value(),
                                reason: reason.kind(),
                            },
                        );
                        t.trace_instant(
                            SpanKind::DigestReject,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(PortId::CPU.value()),
                        );
                        if let RejectReason::Replayed { last_accepted } = reason {
                            t.registry.record(
                                self.now_ns,
                                TelemetryEvent::ReplayDetected {
                                    peer: from.value(),
                                    channel: PortId::CPU.value(),
                                    last_accepted: last_accepted.value() as u64,
                                    got: msg.header().seq_num.value() as u64,
                                },
                            );
                        }
                    }
                    events.push(ControllerEvent::Rejected {
                        switch: from,
                        reason,
                    });
                    // Forged digests and replays on this channel feed the
                    // defence loop. NoKey does not: it reflects bootstrap
                    // state, not an attack with a key to roll away from.
                    if matches!(
                        reason,
                        RejectReason::BadDigest | RejectReason::Replayed { .. }
                    ) {
                        self.count_channel_reject(from, PortId::CPU);
                        if let Some(d) = &mut self.defence {
                            d.record_signal(self.now_ns, from, PortId::CPU);
                        }
                        self.drive_defence(&mut out, &mut events);
                    }
                    return (out, events);
                }
                Ok(()) => {
                    if let Some(t) = &self.telemetry {
                        t.auth.record_verify(&Ok(()));
                    }
                }
            }
        }

        match msg.body().clone() {
            Body::Register(op) => self.on_register_response(from, &msg, op, &mut events),
            Body::Alert(alert) => {
                self.stats.alerts += 1;
                self.push_alert(from, alert.kind);
                if let Some(t) = &self.telemetry {
                    t.alerts_received.inc();
                }
                events.push(ControllerEvent::AlertReceived {
                    switch: from,
                    kind: alert.kind,
                });
                // An authenticated alert is a defence signal for the
                // channel the agent flagged: `detail` carries the ingress
                // port for in-network rejects and 0 (the CPU channel) for
                // C-DP register traffic.
                let channel = PortId::new(alert.detail.min(u32::from(u8::MAX)) as u8);
                self.count_channel_reject(from, channel);
                if let Some(d) = &mut self.defence {
                    d.record_signal(self.now_ns, from, channel);
                }
            }
            Body::KeyExchange(kex) => self.on_key_exchange(from, &msg, kex, &mut out, &mut events),
            Body::InNetwork(_) => { /* DP-DP traffic never reaches C */ }
        }
        self.drive_defence(&mut out, &mut events);
        (out, events)
    }

    fn on_register_response(
        &mut self,
        from: SwitchId,
        msg: &Message,
        op: RegisterOp,
        events: &mut Vec<ControllerEvent>,
    ) {
        if op.is_request() {
            return; // the controller does not serve requests
        }
        let threshold = self.config.outstanding_threshold;
        let chan = self.channel_mut(from);
        let Some(pending) = chan.outstanding.remove(&msg.header().seq_num) else {
            events.push(ControllerEvent::UnmatchedResponse(from));
            return;
        };
        self.stats.responses_ok += 1;
        if let Some(t) = &self.telemetry {
            t.responses_ok.inc();
            t.outstanding.sub(1);
            t.register_op_ns
                .record(self.now_ns.saturating_sub(pending.sent_at_ns));
        }
        match op {
            RegisterOp::Ack { value, .. } => {
                if pending.is_write {
                    events.push(ControllerEvent::WriteAcked {
                        switch: from,
                        reg: pending.reg,
                        index: pending.index,
                    });
                } else {
                    events.push(ControllerEvent::ValueRead {
                        switch: from,
                        reg: pending.reg,
                        index: pending.index,
                        value,
                    });
                }
            }
            RegisterOp::Nack { reason, .. } => {
                events.push(ControllerEvent::Nacked {
                    switch: from,
                    reason,
                });
            }
            _ => unreachable!("requests filtered above"),
        }
        let outstanding = self.outstanding(from);
        if outstanding > threshold {
            events.push(ControllerEvent::DosSuspected {
                switch: from,
                outstanding,
            });
        }
    }

    fn on_key_exchange(
        &mut self,
        from: SwitchId,
        msg: &Message,
        kex: KeyExchange,
        out: &mut Vec<Outgoing>,
        events: &mut Vec<ControllerEvent>,
    ) {
        match kex {
            KeyExchange::EakSalt {
                step: EakStep::Salt2,
                salt,
            } => {
                let kdf_handle = &self.kdf;
                let chan = self
                    .switches
                    .get_mut(&from)
                    .expect("verified channel exists");
                if let Some(mut eak) = chan.eak.take() {
                    let k_auth = eak.on_salt2(salt, kdf_handle);
                    chan.k_auth = Some(k_auth);
                    events.push(ControllerEvent::AuthKeyEstablished(from));
                    if let Some(t) = &self.telemetry {
                        t.registry.record(
                            self.now_ns,
                            TelemetryEvent::KexStep {
                                node: SwitchId::CONTROLLER.value(),
                                step: "eak_salt2",
                            },
                        );
                    }
                    // Continue Fig. 14(a): ADHKD offer under K_auth. The
                    // exchange made progress, so its retry budget resets.
                    let (init, offer) = AdhkdInitiator::start(self.config.dh_params, &mut self.rng);
                    let now_ns = self.now_ns;
                    if let Some(t) = &self.telemetry {
                        t.trace_instant(SpanKind::KmpOffer, now_ns, u64::from(from.value()), 0);
                    }
                    let chan = self.channel_mut(from);
                    chan.adhkd = Some((KexContext::LocalInit, init, offer));
                    chan.retry = RetryState {
                        attempts: 0,
                        last_attempt_ns: now_ns,
                    };
                    let seq = chan.next_seq();
                    let mut m = Message::key_exchange(
                        SwitchId::CONTROLLER,
                        PortId::CPU,
                        seq,
                        KeyExchange::Adhkd {
                            role: AdhkdRole::Offer,
                            context: KexContext::LocalInit,
                            public_key: offer.public_key.to_raw(),
                            salt: offer.salt,
                        },
                    );
                    m.seal(self.mac.as_ref(), k_auth);
                    out.push(Outgoing {
                        to: from,
                        bytes: m.encode(),
                    });
                }
            }
            KeyExchange::EakSalt {
                step: EakStep::Salt1,
                ..
            } => {
                // Switches never initiate EAK toward the controller.
            }
            KeyExchange::Adhkd {
                role: AdhkdRole::Answer,
                context,
                public_key,
                salt,
            } if context == KexContext::LocalInit || context == KexContext::LocalUpdate => {
                let chan = self
                    .switches
                    .get_mut(&from)
                    .expect("verified channel exists");
                if let Some((pending_ctx, init, offer)) = chan.adhkd.take() {
                    if pending_ctx != context {
                        chan.adhkd = Some((pending_ctx, init, offer));
                        return;
                    }
                    let master = init.finish(
                        AdhkdPayload {
                            public_key: DhPublic::from_raw(public_key),
                            salt,
                        },
                        &self.kdf,
                    );
                    let rolled = context != KexContext::LocalInit;
                    chan.retry = RetryState::default();
                    if rolled {
                        chan.local.rollover(master);
                        events.push(ControllerEvent::LocalKeyRolled(from));
                    } else {
                        chan.local.install(master);
                        events.push(ControllerEvent::LocalKeyInstalled(from));
                    }
                    let version = chan.local.version().value();
                    if let Some(t) = &self.telemetry {
                        if rolled {
                            t.key_rollovers.inc();
                        } else {
                            t.key_installs.inc();
                        }
                        t.registry.record(
                            self.now_ns,
                            TelemetryEvent::KeyDerived {
                                switch: from.value(),
                                port: PortId::CPU.value(),
                                version,
                            },
                        );
                        t.registry.record(
                            self.now_ns,
                            TelemetryEvent::KexStep {
                                node: SwitchId::CONTROLLER.value(),
                                step: "adhkd_answer",
                            },
                        );
                        t.trace_instant(
                            SpanKind::KmpAnswer,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(rolled),
                        );
                        t.trace_instant(
                            SpanKind::KeyInstall,
                            self.now_ns,
                            u64::from(from.value()),
                            u64::from(version),
                        );
                    }
                    // A fresh local key completes (and lifts) any defence
                    // mitigation in flight on this channel.
                    self.complete_mitigation(from, PortId::CPU);
                }
            }
            KeyExchange::Adhkd {
                role,
                context: KexContext::PortInitRedirect,
                public_key,
                salt,
            } => {
                // Fig. 14(c): redirect the leg to the other data plane,
                // re-sealing with that plane's K_local and rewriting the
                // port field to the *receiver's* local port. The controller
                // never learns the port key: `public_key`/`salt` are public
                // values. Both legs carry the sender's local exchange port
                // in the header, and matching must use it: a correlated
                // link recovery starts several exchanges that share a
                // switch, and switch-only matching would cross their legs.
                let leg_port = msg.header().port;
                let redirect = self.redirects.iter().find(|r| match role {
                    AdhkdRole::Offer => r.initiator == from && r.initiator_port == leg_port,
                    AdhkdRole::Answer => r.responder == from && r.responder_port == leg_port,
                });
                let Some(&r) = redirect else {
                    return;
                };
                let (dest, dest_port) = match role {
                    AdhkdRole::Offer => (r.responder, r.responder_port),
                    AdhkdRole::Answer => (r.initiator, r.initiator_port),
                };
                let seq = msg.header().seq_num;
                let mut fwd = Message::new(
                    from,
                    dest_port,
                    seq,
                    Body::KeyExchange(KeyExchange::Adhkd {
                        role,
                        context: KexContext::PortInitRedirect,
                        public_key,
                        salt,
                    }),
                );
                if self.config.auth_enabled {
                    let chan = self.switches.get(&dest).expect("redirect peer registered");
                    if let Some(key) = chan.local.current() {
                        fwd = fwd.with_key_version(chan.local.version());
                        fwd.seal(self.mac.as_ref(), key);
                    }
                }
                out.push(Outgoing {
                    to: dest,
                    bytes: fwd.encode(),
                });
                events.push(ControllerEvent::PortExchangeRedirected { from, to: dest });
                if let Some(t) = &self.telemetry {
                    t.registry.record(
                        self.now_ns,
                        TelemetryEvent::KexStep {
                            node: SwitchId::CONTROLLER.value(),
                            step: "adhkd_redirect",
                        },
                    );
                }
                if role == AdhkdRole::Answer {
                    // Exchange complete; drop the redirect record (this
                    // link's only — concurrent exchanges between the same
                    // switch pair on other ports stay pending).
                    self.redirects.retain(|x| {
                        !(x.initiator == r.initiator
                            && x.initiator_port == r.initiator_port
                            && x.responder == r.responder
                            && x.responder_port == r.responder_port)
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller_with_switch() -> (Controller, SwitchId) {
        let mut c = Controller::new(ControllerConfig::default());
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0x5eed));
        (c, sw)
    }

    #[test]
    fn read_request_is_sealed_once_key_exists() {
        let (mut c, sw) = controller_with_switch();
        // Before any key: request goes out unsigned (nothing to seal with).
        let out = c.read_register(sw, RegId::new(1), 0);
        let msg = Message::decode(&out.bytes).unwrap();
        assert_eq!(msg.digest().value(), 0);
        assert_eq!(c.outstanding(sw), 1);
        assert_eq!(c.stats().requests_sent, 1);
    }

    #[test]
    fn eak_start_produces_sealed_salt1() {
        let (mut c, sw) = controller_with_switch();
        let out = c.local_key_init(sw);
        assert_eq!(out.len(), 1);
        let msg = Message::decode(&out[0].bytes).unwrap();
        assert!(msg.verify(&HalfSipHashMac::default(), Key64::new(0x5eed)));
        assert!(matches!(
            msg.body(),
            Body::KeyExchange(KeyExchange::EakSalt {
                step: EakStep::Salt1,
                ..
            })
        ));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_switch_rejected() {
        let (mut c, sw) = controller_with_switch();
        c.register_switch(sw, Key64::new(1));
    }

    #[test]
    #[should_panic(expected = "before init")]
    fn update_before_init_panics() {
        let (mut c, sw) = controller_with_switch();
        let _ = c.local_key_update(sw);
    }

    #[test]
    fn garbage_bytes_rejected_as_malformed() {
        let (mut c, sw) = controller_with_switch();
        let (_, events) = c.on_message(sw, &[1, 2, 3]);
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::Malformed,
                ..
            }
        ));
        assert_eq!(c.stats().rejected, 1);
    }

    /// Regression: framing garbage used to be classified as `BadDigest`,
    /// inflating `auth_reject_bad_digest`; with the defence loop attached
    /// it would now also trigger a needless key rollover. Malformed
    /// frames must do neither.
    #[test]
    fn malformed_frames_neither_count_bad_digest_nor_trigger_defence() {
        let registry = Arc::new(Registry::with_event_capacity(64));
        let (mut c, sw) = controller_with_switch();
        c.set_telemetry(registry.clone());
        c.enable_defence(crate::defence::DefenceConfig {
            window_ns: 1_000_000_000,
            reject_threshold: 2,
            escalation_window_ns: 1_000_000_000,
            ..crate::defence::DefenceConfig::default()
        });
        // A truncated (but genuine) frame and pure garbage, repeatedly —
        // far past the reject threshold.
        let genuine = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::read_req(RegId::new(1), 0)),
        )
        .encode();
        for i in 0..10u64 {
            c.set_now(1_000 + i);
            let frame: &[u8] = if i % 2 == 0 {
                &genuine[..10]
            } else {
                &[0xff; 7]
            };
            let (out, events) = c.on_message(sw, frame);
            assert!(out.is_empty(), "malformed frames must not provoke traffic");
            assert_eq!(events.len(), 1);
            assert!(matches!(
                events[0],
                ControllerEvent::Rejected {
                    reason: RejectReason::Malformed,
                    ..
                }
            ));
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_reject_malformed", "controller"),
            Some(10)
        );
        assert_eq!(
            snap.counter("auth_reject_bad_digest", "controller"),
            Some(0)
        );
        assert_eq!(
            snap.counter("ctrl_defence_mitigations", "controller"),
            Some(0)
        );
        assert_eq!(c.stats().defence_mitigations, 0);
    }

    use p4auth_core::agent::{AgentConfig, P4AuthSwitch};

    /// Ping-pongs key-exchange traffic between controller and agent until
    /// neither side has anything left to say.
    fn pump(
        c: &mut Controller,
        sw: SwitchId,
        agent: &mut P4AuthSwitch,
        mut pending: Vec<Outgoing>,
    ) {
        let mut rounds = 0;
        while !pending.is_empty() {
            rounds += 1;
            assert!(rounds < 64, "key exchange did not converge");
            let mut next = Vec::new();
            for o in pending {
                let output = agent.on_packet(0, PortId::CPU, &o.bytes);
                for (_, bytes) in output.outputs {
                    let (more, _) = c.on_message(sw, &bytes);
                    next.extend(more);
                }
            }
            pending = next;
        }
    }

    /// Controller + agent with an established local key and the defence
    /// loop armed (threshold 3 inside a 1 ms window).
    fn defended_pair(registry: &Arc<Registry>) -> (Controller, SwitchId, P4AuthSwitch) {
        let mut c = Controller::new(ControllerConfig::default());
        c.set_telemetry(registry.clone());
        let sw = SwitchId::new(1);
        let k_seed = Key64::new(0x5eed);
        c.register_switch(sw, k_seed);
        c.enable_defence(crate::defence::DefenceConfig {
            window_ns: 1_000_000,
            reject_threshold: 3,
            escalation_window_ns: 100_000_000,
            ..crate::defence::DefenceConfig::default()
        });
        let mut agent = P4AuthSwitch::new(AgentConfig::new(sw, 4, k_seed), None);
        let init = c.local_key_init(sw);
        pump(&mut c, sw, &mut agent, init);
        assert!(c.has_local_key(sw), "bootstrap failed");
        (c, sw, agent)
    }

    fn forged(sw: SwitchId, seq: u32) -> Vec<u8> {
        // Well-formed but unsigned: decodes fine, fails digest verification.
        Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(seq),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 0,
            }),
        )
        .encode()
    }

    /// Regression: a `Nack` keeps its reason in the value field's last
    /// byte and the decoder skips the other seven. The controller verifies
    /// the frame as received, so flipping one of them is a digest reject.
    #[test]
    fn flip_in_skipped_nack_bytes_is_a_digest_reject() {
        let registry = Arc::new(Registry::with_event_capacity(64));
        let (mut c, sw, mut agent) = defended_pair(&registry);
        // No register is mapped on the agent, so it nacks the read.
        let req = c.read_register(sw, RegId::new(77), 0);
        let mut nack = agent.on_packet(0, PortId::CPU, &req.bytes).outputs[0]
            .1
            .clone();
        let sealed = Message::decode(&nack).unwrap();
        assert!(matches!(
            sealed.body(),
            Body::Register(RegisterOp::Nack { .. })
        ));
        nack[p4auth_wire::header::HEADER_LEN + 8] ^= 0x80;
        assert_eq!(Message::decode(&nack).unwrap(), sealed);
        let (_, events) = c.on_message(sw, &nack);
        assert_eq!(
            events,
            vec![ControllerEvent::Rejected {
                switch: sw,
                reason: RejectReason::BadDigest
            }]
        );
    }

    #[test]
    fn forged_digest_flood_triggers_exactly_one_rollover() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        let mut mitigations = Vec::new();
        let mut rollover_msgs = Vec::new();
        for i in 0..6u64 {
            c.set_now(10_000 + i * 100);
            let (out, events) = c.on_message(sw, &forged(sw, 100 + i as u32));
            rollover_msgs.extend(out);
            mitigations.extend(
                events
                    .into_iter()
                    .filter(|e| matches!(e, ControllerEvent::DefenceMitigated { .. })),
            );
        }
        // Hysteresis: six rejects, one threshold crossing, one action.
        assert_eq!(mitigations.len(), 1);
        assert!(matches!(
            mitigations[0],
            ControllerEvent::DefenceMitigated {
                kind: MitigationKind::KeyRollover,
                ..
            }
        ));
        assert_eq!(rollover_msgs.len(), 1, "exactly one ADHKD offer issued");
        assert_eq!(c.stats().defence_mitigations, 1);

        // Complete the rollover; detection-to-mitigation latency lands in
        // the histogram.
        c.set_now(60_000);
        pump(&mut c, sw, &mut agent, rollover_msgs);
        let snap = registry.snapshot();
        let hist = snap
            .histogram("defence_mitigation_latency_ns", "controller")
            .expect("latency histogram registered");
        assert_eq!(hist.count, 1);
        // Detected at 10_200 (third reject), completed at 60_000.
        assert_eq!(hist.min, 49_800);
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(1));
    }

    #[test]
    fn persistent_flood_escalates_to_quarantine_and_fresh_key_lifts_it() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        // Round 1: flood to the threshold, complete the rollover.
        let mut out1 = Vec::new();
        for i in 0..3u64 {
            c.set_now(10_000 + i * 100);
            let (out, _) = c.on_message(sw, &forged(sw, 100 + i as u32));
            out1.extend(out);
        }
        c.set_now(60_000);
        pump(&mut c, sw, &mut agent, out1);
        assert!(!c.defence_quarantined(sw, PortId::CPU));

        // Round 2: the attack continues — escalate to quarantine.
        let mut out2 = Vec::new();
        let mut events2 = Vec::new();
        for i in 0..3u64 {
            c.set_now(70_000 + i * 100);
            let (out, events) = c.on_message(sw, &forged(sw, 200 + i as u32));
            out2.extend(out);
            events2.extend(events);
        }
        assert!(events2.iter().any(|e| matches!(
            e,
            ControllerEvent::DefenceMitigated {
                kind: MitigationKind::Quarantine,
                ..
            }
        )));
        assert!(c.defence_quarantined(sw, PortId::CPU));

        // While quarantined, traffic on the channel is dropped and counted
        // as Quarantined — not as a digest failure.
        c.set_now(80_000);
        let (out, events) = c.on_message(sw, &forged(sw, 300));
        assert!(out.is_empty());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::Quarantined,
                ..
            }
        ));
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("auth_reject_quarantined", "controller"),
            Some(1)
        );

        // Key exchange is exempt (it is the exit path): completing the
        // rollover issued alongside the quarantine lifts it.
        c.set_now(90_000);
        pump(&mut c, sw, &mut agent, out2);
        assert!(!c.defence_quarantined(sw, PortId::CPU));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(2));
        assert_eq!(
            snap.histogram("defence_mitigation_latency_ns", "controller")
                .unwrap()
                .count,
            2
        );
    }

    /// A defence-initiated rollover whose offer is lost on the wire is
    /// re-driven by `retry_stalled` and still completes exactly once.
    #[test]
    fn retry_stalled_redrives_lost_defence_rollover() {
        let registry = Arc::new(Registry::with_event_capacity(256));
        let (mut c, sw, mut agent) = defended_pair(&registry);

        let mut lost = Vec::new();
        for i in 0..3u64 {
            c.set_now(10_000 + i * 100);
            let (out, _) = c.on_message(sw, &forged(sw, 100 + i as u32));
            lost.extend(out);
        }
        assert_eq!(lost.len(), 1);
        drop(lost); // the ADHKD offer never arrives

        c.set_now(500_000);
        let retried = c.retry_stalled();
        assert_eq!(retried.len(), 1, "stalled defence rollover re-driven");
        c.set_now(550_000);
        pump(&mut c, sw, &mut agent, retried);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_key_rollovers", "controller"), Some(1));
        assert_eq!(
            snap.counter("ctrl_defence_mitigations", "controller"),
            Some(1)
        );
        assert_eq!(
            snap.histogram("defence_mitigation_latency_ns", "controller")
                .unwrap()
                .count,
            1
        );
        assert!(!c.defence_quarantined(sw, PortId::CPU));
    }

    #[test]
    fn alert_ring_is_bounded_and_counts_drops() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            alert_capacity: 2,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        for i in 1..=3u32 {
            let msg = Message::new(
                sw,
                PortId::CPU,
                SeqNum::new(i),
                Body::Alert(p4auth_wire::body::Alert {
                    kind: AlertKind::DigestMismatch,
                    offending_seq: SeqNum::new(i),
                    detail: 0,
                }),
            );
            c.on_message(sw, &msg.encode());
        }
        assert_eq!(c.alerts().len(), 2);
        assert_eq!(c.stats().alerts, 3);
        assert_eq!(c.stats().alerts_dropped, 1);
    }

    #[test]
    fn unsigned_response_rejected_when_auth_enabled() {
        let (mut c, sw) = controller_with_switch();
        // Give the controller a local key by faking the slot directly via
        // the full handshake path in integration tests; here we check the
        // NoKey path: a response arrives before any key exists.
        let fake = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 9,
            }),
        );
        let (_, events) = c.on_message(sw, &fake.encode());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::NoKey,
                ..
            }
        ));
    }

    #[test]
    fn unknown_switch_message_rejected() {
        let mut c = Controller::new(ControllerConfig::default());
        let msg = Message::new(
            SwitchId::new(9),
            PortId::CPU,
            SeqNum::new(1),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(1),
                index: 0,
                value: 0,
            }),
        );
        let (_, events) = c.on_message(SwitchId::new(9), &msg.encode());
        assert!(matches!(
            events[0],
            ControllerEvent::Rejected {
                reason: RejectReason::NoKey,
                ..
            }
        ));
    }

    #[test]
    fn baseline_mode_accepts_unsigned_responses() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        let out = c.read_register(sw, RegId::new(5), 2);
        let req = Message::decode(&out.bytes).unwrap();
        let resp = Message::new(
            sw,
            PortId::CPU,
            req.header().seq_num,
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 2,
                value: 77,
            }),
        );
        let (_, events) = c.on_message(sw, &resp.encode());
        assert_eq!(
            events[0],
            ControllerEvent::ValueRead {
                switch: sw,
                reg: RegId::new(5),
                index: 2,
                value: 77
            }
        );
        assert_eq!(c.outstanding(sw), 0);
    }

    #[test]
    fn telemetry_measures_register_op_latency_in_sim_ns() {
        let registry = Arc::new(Registry::with_event_capacity(16));
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        c.set_telemetry(registry.clone());
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));

        c.set_now(1_000);
        let out = c.read_register(sw, RegId::new(5), 2);
        let req = Message::decode(&out.bytes).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_requests_sent", "controller"), Some(1));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|g| g.name == "ctrl_outstanding")
                .map(|g| g.value),
            Some(1)
        );

        c.set_now(51_000);
        let resp = Message::new(
            sw,
            PortId::CPU,
            req.header().seq_num,
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 2,
                value: 7,
            }),
        );
        c.on_message(sw, &resp.encode());

        let snap = registry.snapshot();
        assert_eq!(snap.counter("ctrl_responses_ok", "controller"), Some(1));
        assert_eq!(
            snap.gauges
                .iter()
                .find(|g| g.name == "ctrl_outstanding")
                .map(|g| g.value),
            Some(0)
        );
        let hist = snap.histogram("ctrl_register_op_ns", "controller").unwrap();
        assert_eq!(hist.count, 1);
        assert_eq!(hist.min, 50_000);
        assert_eq!(hist.max, 50_000);
    }

    #[test]
    fn unmatched_response_flagged() {
        let mut c = Controller::new(ControllerConfig {
            auth_enabled: false,
            ..ControllerConfig::default()
        });
        let sw = SwitchId::new(1);
        c.register_switch(sw, Key64::new(0));
        let resp = Message::new(
            sw,
            PortId::CPU,
            SeqNum::new(42),
            Body::Register(RegisterOp::Ack {
                reg: RegId::new(5),
                index: 0,
                value: 0,
            }),
        );
        let (_, events) = c.on_message(sw, &resp.encode());
        assert_eq!(events[0], ControllerEvent::UnmatchedResponse(sw));
    }
}
