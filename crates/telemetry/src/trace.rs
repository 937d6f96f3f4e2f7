//! Deterministic causal tracing: spans with simulation-clock timestamps
//! and IDs derived from `(kind, sim-time, source, per-source seq)` —
//! never a wall clock, never an allocation address — so two runs of the
//! same workload produce byte-identical traces on either scheduler.
//!
//! ## Model
//!
//! A *span* is a `[start_ns, end_ns]` interval attributed to a `source`
//! (a node id, a controller replica, or a harness pseudo-source) with a
//! [`SpanKind`]. Spans form trees: a root span has `parent_id == 0` and
//! `trace_id == span_id`; children inherit the root's `trace_id`. An
//! *instant* is a zero-width span.
//!
//! ## Determinism discipline
//!
//! * **IDs** are a splitmix-style hash of `(kind, start_ns, source,
//!   seq)`. `seq` is a per-source counter, so a source that emits two
//!   spans at the same instant still gets distinct ids.
//! * **Canonical order** for export is `(start_ns, source, seq)`.
//!   `(source, seq)` is unique per record, so the order is total and
//!   does not depend on the order in which sources emitted their spans.
//! * **Bounded buffers**: the ring drops oldest on overflow and counts
//!   drops; the campaign configs assert `trace_spans_dropped == 0` so
//!   an exported trace is always complete.
//!
//! Export formats: Chrome trace-format JSON ([`chrome_trace_json`],
//! loadable in Perfetto) and the compact `P4TR` binary
//! ([`encode_trace`] / [`decode_trace`]), a sibling of the `P4TS`
//! snapshot codec with the same exact-roundtrip contract.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// What a span measures. Discriminants are stable wire values (`P4TR`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum SpanKind {
    /// A campaign / scenario phase (harness root span).
    CampaignPhase = 0,
    /// A frame delivered to a node.
    FrameDeliver = 1,
    /// A tap acted on a frame (dropped or modified it).
    FrameTap = 2,
    /// A packet consumed pipeline recirculations.
    FrameRecirculate = 3,
    /// A digest verified successfully.
    DigestVerify = 4,
    /// A digest (or replay/quarantine) rejection.
    DigestReject = 5,
    /// A replica's rollover step wrote to the shared rollover table
    /// (`arg_a` = value-changing writes).
    StateDbWrite = 6,
    /// A replica stepped after the rollover table moved since its last
    /// step (`arg_a` = writes since then).
    DaemonWake = 7,
    /// A KMP/ADHKD offer left the controller.
    KmpOffer = 8,
    /// A KMP/ADHKD answer arrived at the controller.
    KmpAnswer = 9,
    /// A key was installed / rolled.
    KeyInstall = 10,
    /// A quarantine was lifted by a fresh key.
    QuarantineLift = 11,
    /// One defence mitigation, detection to installed key (root).
    Mitigation = 12,
    /// Mitigation stage: crossing detected → action issued.
    MitigationDetect = 13,
    /// Mitigation stage: decision published / consumed by orchestration.
    MitigationPublish = 14,
    /// Mitigation stage: key-exchange round trips on the wire.
    MitigationKmp = 15,
    /// Mitigation stage: answer arrival → key active.
    MitigationInstall = 16,
    /// One bulk-rollover epoch across a partition (root).
    RolloverEpoch = 17,
    /// A port-key exchange leg.
    PortKeyExchange = 18,
}

impl SpanKind {
    /// Stable snake_case name used in Chrome-trace JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::CampaignPhase => "campaign_phase",
            SpanKind::FrameDeliver => "frame_deliver",
            SpanKind::FrameTap => "frame_tap",
            SpanKind::FrameRecirculate => "frame_recirculate",
            SpanKind::DigestVerify => "digest_verify",
            SpanKind::DigestReject => "digest_reject",
            SpanKind::StateDbWrite => "statedb_write",
            SpanKind::DaemonWake => "daemon_wake",
            SpanKind::KmpOffer => "kmp_offer",
            SpanKind::KmpAnswer => "kmp_answer",
            SpanKind::KeyInstall => "key_install",
            SpanKind::QuarantineLift => "quarantine_lift",
            SpanKind::Mitigation => "mitigation",
            SpanKind::MitigationDetect => "mitigation_detect",
            SpanKind::MitigationPublish => "mitigation_publish",
            SpanKind::MitigationKmp => "mitigation_kmp",
            SpanKind::MitigationInstall => "mitigation_install",
            SpanKind::RolloverEpoch => "rollover_epoch",
            SpanKind::PortKeyExchange => "port_key_exchange",
        }
    }

    /// Decodes a `P4TR` kind byte.
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        Some(match v {
            0 => SpanKind::CampaignPhase,
            1 => SpanKind::FrameDeliver,
            2 => SpanKind::FrameTap,
            3 => SpanKind::FrameRecirculate,
            4 => SpanKind::DigestVerify,
            5 => SpanKind::DigestReject,
            6 => SpanKind::StateDbWrite,
            7 => SpanKind::DaemonWake,
            8 => SpanKind::KmpOffer,
            9 => SpanKind::KmpAnswer,
            10 => SpanKind::KeyInstall,
            11 => SpanKind::QuarantineLift,
            12 => SpanKind::Mitigation,
            13 => SpanKind::MitigationDetect,
            14 => SpanKind::MitigationPublish,
            15 => SpanKind::MitigationKmp,
            16 => SpanKind::MitigationInstall,
            17 => SpanKind::RolloverEpoch,
            18 => SpanKind::PortKeyExchange,
            _ => return None,
        })
    }
}

/// One finished span. Fixed-width fields only, so the `P4TR` record
/// layout is trivial and the canonical sort never allocates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The trace this span belongs to (root's `span_id`).
    pub trace_id: u64,
    /// This span's id (never 0).
    pub span_id: u64,
    /// Parent span id; 0 marks a root.
    pub parent_id: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Emitting source (node id / replica / harness pseudo-source).
    pub source: u16,
    /// Span start, simulation clock (ns).
    pub start_ns: u64,
    /// Span end, simulation clock (ns); `== start_ns` for instants.
    pub end_ns: u64,
    /// Per-source emission sequence (assigned at span start).
    pub seq: u64,
    /// Kind-specific argument (e.g. peer id, epoch, reject reason).
    pub arg_a: u64,
    /// Second kind-specific argument (e.g. channel, latency).
    pub arg_b: u64,
}

impl SpanRecord {
    /// The canonical export key: scheduler-invariant total order.
    pub fn sort_key(&self) -> (u64, u16, u64) {
        (self.start_ns, self.source, self.seq)
    }
}

/// A started-but-not-finished span: a `Copy` handle carrying everything
/// [`TraceLog::end`] needs to build the record. Nothing is buffered
/// until the span ends, so an abandoned handle costs nothing.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    trace_id: u64,
    span_id: u64,
    parent_id: u64,
    kind: SpanKind,
    source: u16,
    start_ns: u64,
    seq: u64,
}

impl OpenSpan {
    /// The trace id children should inherit.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// This span's id (for use as a child's `parent_id`).
    pub fn span_id(&self) -> u64 {
        self.span_id
    }

    /// The span's start time (ns, simulation clock).
    pub fn start_ns(&self) -> u64 {
        self.start_ns
    }
}

/// SplitMix64 finalizer over the deterministic id ingredients.
fn mix_id(kind: SpanKind, start_ns: u64, source: u16, seq: u64) -> u64 {
    let mut z = start_ns
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((kind as u64) << 48)
        .wrapping_add((source as u64) << 24)
        .wrapping_add(seq);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // 0 is the "no parent" sentinel; keep real ids out of it.
    z | 1
}

#[derive(Debug, Default)]
struct TraceLogInner {
    buf: std::collections::VecDeque<SpanRecord>,
    dropped: u64,
    /// Next per-source sequence number.
    next_seq: BTreeMap<u16, u64>,
}

/// A bounded drop-oldest ring of finished spans with per-source
/// sequence counters. Capacity 0 (the default) disables recording —
/// every call is a branch-and-return, mirroring [`crate::EventLog`].
#[derive(Debug, Default)]
pub struct TraceLog {
    capacity: usize,
    inner: Mutex<TraceLogInner>,
}

impl TraceLog {
    /// A log that records nothing (capacity 0).
    pub fn disabled() -> Self {
        TraceLog::default()
    }

    /// A log keeping the most recent `capacity` spans.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            capacity,
            inner: Mutex::default(),
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// The configured capacity (0 when disabled).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TraceLogInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn next_seq(inner: &mut TraceLogInner, source: u16) -> u64 {
        let slot = inner.next_seq.entry(source).or_insert(0);
        let seq = *slot;
        *slot += 1;
        seq
    }

    /// Opens a root span. Returns `None` when disabled.
    pub fn start(&self, kind: SpanKind, start_ns: u64, source: u16) -> Option<OpenSpan> {
        if self.capacity == 0 {
            return None;
        }
        let seq = Self::next_seq(&mut self.lock(), source);
        let id = mix_id(kind, start_ns, source, seq);
        Some(OpenSpan {
            trace_id: id,
            span_id: id,
            parent_id: 0,
            kind,
            source,
            start_ns,
            seq,
        })
    }

    /// Opens a child span under `parent`. Returns `None` when disabled.
    pub fn child(
        &self,
        parent: &OpenSpan,
        kind: SpanKind,
        start_ns: u64,
        source: u16,
    ) -> Option<OpenSpan> {
        if self.capacity == 0 {
            return None;
        }
        let seq = Self::next_seq(&mut self.lock(), source);
        Some(OpenSpan {
            trace_id: parent.trace_id,
            span_id: mix_id(kind, start_ns, source, seq),
            parent_id: parent.span_id,
            kind,
            source,
            start_ns,
            seq,
        })
    }

    /// Finishes `span` at `end_ns`, buffering the record. Clamps a
    /// backwards end to the start (spans never have negative width).
    pub fn end(&self, span: OpenSpan, end_ns: u64, arg_a: u64, arg_b: u64) {
        if self.capacity == 0 {
            return;
        }
        self.push(SpanRecord {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_id: span.parent_id,
            kind: span.kind,
            source: span.source,
            start_ns: span.start_ns,
            end_ns: end_ns.max(span.start_ns),
            seq: span.seq,
            arg_a,
            arg_b,
        });
    }

    /// Records a zero-width root span.
    pub fn instant(&self, kind: SpanKind, t_ns: u64, source: u16, arg_a: u64, arg_b: u64) {
        if let Some(span) = self.start(kind, t_ns, source) {
            self.end(span, t_ns, arg_a, arg_b);
        }
    }

    /// Records a zero-width child span under `parent`.
    pub fn instant_in(
        &self,
        parent: &OpenSpan,
        kind: SpanKind,
        t_ns: u64,
        source: u16,
        arg_a: u64,
        arg_b: u64,
    ) {
        if let Some(span) = self.child(parent, kind, t_ns, source) {
            self.end(span, t_ns, arg_a, arg_b);
        }
    }

    fn push(&self, record: SpanRecord) {
        let mut inner = self.lock();
        if inner.buf.len() == self.capacity {
            inner.buf.pop_front();
            inner.dropped += 1;
        }
        inner.buf.push_back(record);
    }

    /// Spans dropped to the ring bound so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        self.lock().buf.len()
    }

    /// Whether the log holds no spans.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the buffered spans in emission order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.lock().buf.iter().copied().collect()
    }

    /// The buffered spans in canonical `(start_ns, source, seq)` order —
    /// the scheduler-invariant export order.
    pub fn sorted_records(&self) -> Vec<SpanRecord> {
        let mut records = self.records();
        records.sort_unstable_by_key(SpanRecord::sort_key);
        records
    }
}

/// Formats nanoseconds as Chrome-trace microseconds (`ts` field) with
/// integer math only: `ns/1000` whole µs plus exactly three fractional
/// digits. No floats anywhere near the byte-diffed output.
fn write_us(out: &mut String, ns: u64) {
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders spans (already in canonical order) as Chrome trace-format
/// JSON: one complete (`"ph":"X"`) event per span, `pid` 0, `tid` =
/// source, ids in hex. Loadable by Perfetto / `chrome://tracing`.
pub fn chrome_trace_json(records: &[SpanRecord]) -> String {
    let mut out = String::with_capacity(64 + records.len() * 160);
    out.push_str("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n  {\"name\": \"");
        out.push_str(r.kind.as_str());
        let _ = write!(
            out,
            "\", \"ph\": \"X\", \"pid\": 0, \"tid\": {}, ",
            r.source
        );
        out.push_str("\"ts\": ");
        write_us(&mut out, r.start_ns);
        out.push_str(", \"dur\": ");
        write_us(&mut out, r.end_ns - r.start_ns);
        let _ = write!(
            out,
            ", \"args\": {{\"trace\": \"{:016x}\", \"span\": \"{:016x}\", \
             \"parent\": \"{:016x}\", \"seq\": {}, \"a\": {}, \"b\": {}}}}}",
            r.trace_id, r.span_id, r.parent_id, r.seq, r.arg_a, r.arg_b
        );
    }
    out.push_str("\n]}\n");
    out
}

/// `P4TR` magic bytes.
pub const TRACE_MAGIC: [u8; 4] = *b"P4TR";
/// `P4TR` format version.
pub const TRACE_VERSION: u16 = 1;

/// Why a `P4TR` payload failed to decode.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceDecodeError {
    /// The payload ended before a fixed-width field.
    Truncated,
    /// The magic bytes were not `P4TR`.
    BadMagic,
    /// A version this decoder does not understand.
    UnsupportedVersion(u16),
    /// An unknown [`SpanKind`] discriminant.
    BadKind(u8),
    /// Bytes remained after the last record.
    TrailingBytes(usize),
}

impl std::fmt::Display for TraceDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceDecodeError::Truncated => write!(f, "truncated P4TR payload"),
            TraceDecodeError::BadMagic => write!(f, "bad magic (expected P4TR)"),
            TraceDecodeError::UnsupportedVersion(v) => write!(f, "unsupported P4TR version {v}"),
            TraceDecodeError::BadKind(k) => write!(f, "unknown span kind {k}"),
            TraceDecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after trace"),
        }
    }
}

impl std::error::Error for TraceDecodeError {}

/// Encoded size of one span record: three ids, kind, source, start,
/// end, seq and two arguments.
const TRACE_RECORD_LEN: usize = 8 + 8 + 8 + 1 + 2 + 8 + 8 + 8 + 8 + 8;

/// Encodes spans (callers pass them in canonical order) as a `P4TR`
/// payload: magic, version, drop count, record count, then fixed-width
/// little-endian records.
pub fn encode_trace(records: &[SpanRecord], dropped: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + 8 + 4 + records.len() * TRACE_RECORD_LEN);
    out.extend_from_slice(&TRACE_MAGIC);
    out.extend_from_slice(&TRACE_VERSION.to_le_bytes());
    out.extend_from_slice(&dropped.to_le_bytes());
    out.extend_from_slice(&(records.len() as u32).to_le_bytes());
    for r in records {
        out.extend_from_slice(&r.trace_id.to_le_bytes());
        out.extend_from_slice(&r.span_id.to_le_bytes());
        out.extend_from_slice(&r.parent_id.to_le_bytes());
        out.push(r.kind as u8);
        out.extend_from_slice(&r.source.to_le_bytes());
        out.extend_from_slice(&r.start_ns.to_le_bytes());
        out.extend_from_slice(&r.end_ns.to_le_bytes());
        out.extend_from_slice(&r.seq.to_le_bytes());
        out.extend_from_slice(&r.arg_a.to_le_bytes());
        out.extend_from_slice(&r.arg_b.to_le_bytes());
    }
    out
}

struct TraceReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> TraceReader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceDecodeError> {
        let end = self.pos.checked_add(n).ok_or(TraceDecodeError::Truncated)?;
        if end > self.bytes.len() {
            return Err(TraceDecodeError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, TraceDecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, TraceDecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, TraceDecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, TraceDecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Decodes a `P4TR` payload back into `(records, dropped)`. Exact
/// inverse of [`encode_trace`]: re-encoding the result reproduces the
/// input byte for byte, and trailing bytes are an error.
pub fn decode_trace(bytes: &[u8]) -> Result<(Vec<SpanRecord>, u64), TraceDecodeError> {
    let mut r = TraceReader { bytes, pos: 0 };
    if r.take(4)? != TRACE_MAGIC {
        return Err(TraceDecodeError::BadMagic);
    }
    let version = r.u16()?;
    if version != TRACE_VERSION {
        return Err(TraceDecodeError::UnsupportedVersion(version));
    }
    let dropped = r.u64()?;
    let count = r.u32()? as usize;
    // The count is untrusted: reserve only what the payload can hold.
    let mut records = Vec::with_capacity(count.min((bytes.len() - r.pos) / TRACE_RECORD_LEN));
    for _ in 0..count {
        let trace_id = r.u64()?;
        let span_id = r.u64()?;
        let parent_id = r.u64()?;
        let kind_raw = r.u8()?;
        let kind = SpanKind::from_u8(kind_raw).ok_or(TraceDecodeError::BadKind(kind_raw))?;
        let source = r.u16()?;
        let start_ns = r.u64()?;
        let end_ns = r.u64()?;
        let seq = r.u64()?;
        let arg_a = r.u64()?;
        let arg_b = r.u64()?;
        records.push(SpanRecord {
            trace_id,
            span_id,
            parent_id,
            kind,
            source,
            start_ns,
            end_ns,
            seq,
            arg_a,
            arg_b,
        });
    }
    if r.pos != bytes.len() {
        return Err(TraceDecodeError::TrailingBytes(bytes.len() - r.pos));
    }
    Ok((records, dropped))
}

/// Structural trace validation, shared by the well-formedness proptest
/// and the repro gate: every span's interval nests inside its parent's,
/// every referenced parent exists in the same trace, and every trace
/// has exactly one root. Returns the first violation as text.
pub fn validate_well_formed(records: &[SpanRecord]) -> Result<(), String> {
    let by_id: BTreeMap<u64, &SpanRecord> = records.iter().map(|r| (r.span_id, r)).collect();
    if by_id.len() != records.len() {
        return Err("duplicate span ids".into());
    }
    let mut roots: BTreeMap<u64, u64> = BTreeMap::new();
    for r in records {
        if r.end_ns < r.start_ns {
            return Err(format!("span {:016x} ends before it starts", r.span_id));
        }
        if r.parent_id == 0 {
            if r.trace_id != r.span_id {
                return Err(format!("root {:016x} with foreign trace id", r.span_id));
            }
            *roots.entry(r.trace_id).or_insert(0) += 1;
            continue;
        }
        let Some(parent) = by_id.get(&r.parent_id) else {
            return Err(format!(
                "span {:016x} references missing parent {:016x}",
                r.span_id, r.parent_id
            ));
        };
        if parent.trace_id != r.trace_id {
            return Err(format!("span {:016x} crosses traces", r.span_id));
        }
        if r.start_ns < parent.start_ns || r.end_ns > parent.end_ns {
            return Err(format!(
                "span {:016x} [{}, {}] escapes parent [{}, {}]",
                r.span_id, r.start_ns, r.end_ns, parent.start_ns, parent.end_ns
            ));
        }
    }
    for r in records {
        let root_count = roots.get(&r.trace_id).copied().unwrap_or(0);
        if root_count != 1 {
            return Err(format!("trace {:016x} has {root_count} roots", r.trace_id));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<SpanRecord> {
        let log = TraceLog::with_capacity(16);
        let root = log.start(SpanKind::Mitigation, 100, 7).unwrap();
        log.instant_in(&root, SpanKind::MitigationDetect, 100, 7, 1, 0);
        let kmp = log.child(&root, SpanKind::MitigationKmp, 120, 7).unwrap();
        log.end(kmp, 900, 0, 0);
        log.end(root, 1_000, 3, 0);
        log.instant(SpanKind::FrameDeliver, 50, 2, 64, 0);
        log.sorted_records()
    }

    #[test]
    fn disabled_log_records_nothing() {
        let log = TraceLog::disabled();
        assert!(!log.enabled());
        assert!(log.start(SpanKind::CampaignPhase, 0, 0).is_none());
        log.instant(SpanKind::FrameDeliver, 1, 1, 0, 0);
        assert!(log.is_empty());
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = TraceLog::with_capacity(8);
        let b = TraceLog::with_capacity(8);
        for log in [&a, &b] {
            log.instant(SpanKind::DigestReject, 500, 3, 9, 1);
            log.instant(SpanKind::DigestReject, 500, 3, 9, 1);
        }
        let (ra, rb) = (a.records(), b.records());
        assert_eq!(ra, rb, "same inputs, same ids");
        assert_ne!(ra[0].span_id, ra[1].span_id, "seq splits same-instant ids");
        assert!(ra.iter().all(|r| r.span_id != 0));
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let log = TraceLog::with_capacity(2);
        for t in 0..3 {
            log.instant(SpanKind::FrameDeliver, t, 1, 0, 0);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.records()[0].start_ns, 1);
    }

    #[test]
    fn sorted_order_is_independent_of_emission_order() {
        // Same spans, emitted in different interleavings, sort to the
        // same canonical stream.
        let a = TraceLog::with_capacity(8);
        a.instant(SpanKind::FrameDeliver, 10, 1, 0, 0);
        a.instant(SpanKind::FrameDeliver, 10, 2, 0, 0);
        let b = TraceLog::with_capacity(8);
        b.instant(SpanKind::FrameDeliver, 10, 2, 0, 0);
        b.instant(SpanKind::FrameDeliver, 10, 1, 0, 0);
        assert_eq!(a.sorted_records(), b.sorted_records());
    }

    #[test]
    fn trace_roundtrips_exactly() {
        let records = sample_records();
        let bytes = encode_trace(&records, 5);
        let (decoded, dropped) = decode_trace(&bytes).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(dropped, 5);
        assert_eq!(encode_trace(&decoded, dropped), bytes, "re-encode exact");
        assert_eq!(
            chrome_trace_json(&decoded),
            chrome_trace_json(&records),
            "JSON renders identically from decoded records"
        );
    }

    #[test]
    fn decode_rejects_bad_headers() {
        assert_eq!(decode_trace(b"P4T"), Err(TraceDecodeError::Truncated));
        assert_eq!(
            decode_trace(b"P4TS\x01\x00"),
            Err(TraceDecodeError::BadMagic)
        );
        let mut bytes = encode_trace(&[], 0);
        bytes[0] = b'X';
        assert_eq!(decode_trace(&bytes), Err(TraceDecodeError::BadMagic));
        let mut bytes = encode_trace(&[], 0);
        bytes[4] = 9;
        assert_eq!(
            decode_trace(&bytes),
            Err(TraceDecodeError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn decode_rejects_truncation_trailing_and_bad_kind() {
        let records = sample_records();
        let bytes = encode_trace(&records, 0);
        assert_eq!(
            decode_trace(&bytes[..bytes.len() - 1]),
            Err(TraceDecodeError::Truncated)
        );
        let mut extended = bytes.clone();
        extended.push(0);
        assert_eq!(
            decode_trace(&extended),
            Err(TraceDecodeError::TrailingBytes(1))
        );
        let mut bad = bytes;
        // First record's kind byte sits after the 18-byte header + 24 id
        // bytes.
        bad[18 + 24] = 0xEE;
        assert_eq!(decode_trace(&bad), Err(TraceDecodeError::BadKind(0xEE)));
    }

    #[test]
    fn chrome_json_uses_integer_microseconds() {
        let records = sample_records();
        let json = chrome_trace_json(&records);
        assert!(json.contains("\"ts\": 0.100"), "100ns start: {json}");
        assert!(json.contains("\"dur\": 0.900"), "900ns span: {json}");
        assert!(json.contains("\"name\": \"mitigation\""));
        assert!(!json.contains("e-"), "no scientific notation");
    }

    #[test]
    fn well_formedness_catches_violations() {
        let records = sample_records();
        assert_eq!(validate_well_formed(&records), Ok(()));

        let mut escaped = records.clone();
        for r in &mut escaped {
            if r.kind == SpanKind::MitigationKmp {
                r.end_ns = 2_000; // past the root's end
            }
        }
        assert!(validate_well_formed(&escaped).is_err());

        let mut orphan = records.clone();
        for r in &mut orphan {
            if r.kind == SpanKind::MitigationDetect {
                r.parent_id = 0xdead;
            }
        }
        assert!(validate_well_formed(&orphan).is_err());

        let mut two_roots = records;
        let twin = SpanRecord {
            span_id: 0x1234,
            parent_id: 0,
            ..two_roots[0]
        };
        let twin = SpanRecord {
            trace_id: two_roots
                .iter()
                .find(|r| r.kind == SpanKind::Mitigation)
                .unwrap()
                .trace_id,
            ..twin
        };
        two_roots.push(SpanRecord {
            span_id: 0x1235,
            ..twin
        });
        assert!(validate_well_formed(&two_roots).is_err());
    }
}
