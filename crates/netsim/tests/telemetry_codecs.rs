//! Fail-closed telemetry decoders: `P4TS` snapshots and deltas, `P4TL`
//! timelines and `P4TR` traces.
//!
//! Each decoder is fed random bytes, every strict prefix of a valid
//! encoding, and valid encodings with bytes overwritten. A call must
//! never panic, must reject every strict prefix, and whatever it does
//! decode must re-encode to exactly the bytes it was given — so the
//! bytes a tool reads back are the bytes that were written.

use p4auth_netsim::timeline::{Timeline, TimelineEntry};
use p4auth_telemetry::snapshot::bin::{
    decode_delta, decode_snapshot, encode_delta, encode_snapshot,
};
use p4auth_telemetry::trace::{decode_trace, encode_trace};
use p4auth_telemetry::{
    CounterSample, DropCause, Event, EventRecord, GaugeSample, HistogramDelta, HistogramSample,
    RejectKind, Snapshot, SnapshotDelta, SpanKind, SpanRecord,
};
use proptest::prelude::*;

/// Short names over a small alphabet with one multi-byte character, so
/// truncation and edits can split a UTF-8 sequence.
fn arb_name() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u8..27, 0..6).prop_map(|chars| {
        chars
            .into_iter()
            .map(|c| if c == 26 { 'µ' } else { char::from(b'a' + c) })
            .collect()
    })
}

fn arb_reject_kind() -> impl Strategy<Value = RejectKind> {
    (0usize..5).prop_map(|i| {
        [
            RejectKind::BadDigest,
            RejectKind::NoKey,
            RejectKind::Replayed,
            RejectKind::Malformed,
            RejectKind::Quarantined,
        ][i]
    })
}

/// Interned step/action strings, so decoding never leaks.
fn arb_step() -> impl Strategy<Value = &'static str> {
    (0usize..3).prop_map(|i| ["eak_salt1", "adhkd_offer", "rollover"][i])
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        (any::<u16>(), any::<u8>(), arb_reject_kind()).prop_map(|(peer, channel, reason)| {
            Event::DigestRejected {
                peer,
                channel,
                reason,
            }
        }),
        (any::<u16>(), any::<u8>(), any::<u64>(), any::<u64>()).prop_map(
            |(peer, channel, last_accepted, got)| Event::ReplayDetected {
                peer,
                channel,
                last_accepted,
                got,
            }
        ),
        (any::<u16>(), arb_reject_kind())
            .prop_map(|(source, reason)| Event::AlertEmitted { source, reason }),
        any::<u16>().prop_map(|source| Event::AlertSuppressed { source }),
        (any::<u16>(), any::<u8>(), any::<u8>()).prop_map(|(switch, port, version)| {
            Event::KeyDerived {
                switch,
                port,
                version,
            }
        }),
        (any::<u16>(), arb_step()).prop_map(|(node, step)| Event::KexStep { node, step }),
        (any::<u16>(), any::<u8>(), any::<u32>())
            .prop_map(|(node, port, bytes)| Event::FrameDelivered { node, port, bytes }),
        (any::<u16>(), any::<bool>()).prop_map(|(node, tap)| Event::FrameDropped {
            node,
            cause: if tap {
                DropCause::Tap
            } else {
                DropCause::Undeliverable
            },
        }),
        (any::<u16>(), any::<u32>())
            .prop_map(|(switch, count)| Event::RecircUsed { switch, count }),
        (any::<u16>(), any::<u8>(), arb_step()).prop_map(|(peer, channel, action)| {
            Event::DefenceAction {
                peer,
                channel,
                action,
            }
        }),
    ]
}

fn arb_events() -> impl Strategy<Value = Vec<EventRecord>> {
    proptest::collection::vec(
        (any::<u64>(), arb_event()).prop_map(|(t_ns, event)| EventRecord { t_ns, event }),
        0..5,
    )
}

fn arb_counters() -> impl Strategy<Value = Vec<CounterSample>> {
    proptest::collection::vec(
        (arb_name(), arb_name(), any::<u64>()).prop_map(|(name, label, value)| CounterSample {
            name,
            label,
            value,
        }),
        0..4,
    )
}

fn arb_gauges() -> impl Strategy<Value = Vec<GaugeSample>> {
    proptest::collection::vec(
        (arb_name(), arb_name(), any::<i64>()).prop_map(|(name, label, value)| GaugeSample {
            name,
            label,
            value,
        }),
        0..4,
    )
}

fn arb_buckets() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>()), 0..4)
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let histogram = (
        (arb_name(), arb_name()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        arb_buckets(),
    )
        .prop_map(
            |((name, label), (count, sum, min, max), (p50, p90, p99), buckets)| HistogramSample {
                name,
                label,
                count,
                sum,
                min,
                max,
                p50,
                p90,
                p99,
                buckets,
            },
        );
    (
        arb_counters(),
        arb_gauges(),
        proptest::collection::vec(histogram, 0..3),
        any::<u64>(),
        arb_events(),
    )
        .prop_map(
            |(counters, gauges, histograms, events_overflowed, events)| Snapshot {
                counters,
                gauges,
                histograms,
                events_overflowed,
                events,
            },
        )
}

fn arb_delta() -> impl Strategy<Value = SnapshotDelta> {
    let histogram = (
        (arb_name(), arb_name()),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        arb_buckets(),
    )
        .prop_map(
            |((name, label), (count, sum, min, max), buckets)| HistogramDelta {
                name,
                label,
                count,
                sum,
                min,
                max,
                buckets,
            },
        );
    (
        arb_counters(),
        arb_gauges(),
        proptest::collection::vec(histogram, 0..3),
        (any::<u64>(), any::<u64>()),
        arb_events(),
    )
        .prop_map(
            |(counters, gauges, histograms, (events_overflowed, events_len), events)| {
                SnapshotDelta {
                    counters,
                    gauges,
                    histograms,
                    events_overflowed,
                    events,
                    events_len,
                }
            },
        )
}

fn arb_timeline() -> impl Strategy<Value = Timeline> {
    let entry = (any::<u64>(), arb_delta()).prop_map(|(t_ns, delta)| TimelineEntry { t_ns, delta });
    (
        any::<u64>(),
        arb_snapshot(),
        proptest::collection::vec(entry, 0..3),
        arb_snapshot(),
    )
        .prop_map(
            |(interval_ns, baseline, entries, final_snapshot)| Timeline {
                interval_ns,
                baseline,
                entries,
                final_snapshot,
            },
        )
}

fn arb_span() -> impl Strategy<Value = SpanRecord> {
    (
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (0u8..19).prop_map(|k| SpanKind::from_u8(k).expect("in range")),
        any::<u16>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        (any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |(
                (trace_id, span_id, parent_id),
                kind,
                source,
                (start_ns, end_ns, seq),
                (arg_a, arg_b),
            )| {
                SpanRecord {
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
                }
            },
        )
}

fn arb_trace() -> impl Strategy<Value = (Vec<SpanRecord>, u64)> {
    (proptest::collection::vec(arb_span(), 0..6), any::<u64>())
}

/// Random bytes, either bare or behind a valid header, so both the
/// header checks and the body parser see garbage.
fn arb_garbage() -> impl Strategy<Value = (bool, Vec<u8>)> {
    (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..96))
}

/// `bytes` with each `(at, value)` edit applied at `at % len`.
fn edited(mut bytes: Vec<u8>, edits: &[(usize, u8)]) -> Vec<u8> {
    let len = bytes.len();
    for &(at, value) in edits {
        bytes[at % len] = value;
    }
    bytes
}

fn arb_edits() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((any::<usize>(), any::<u8>()), 1..4)
}

/// The fail-closed contract for one input: an error, or a value that
/// re-encodes to exactly `bytes`.
fn check_snapshot(bytes: &[u8]) -> Result<(), String> {
    match decode_snapshot(bytes) {
        Ok(snap) if encode_snapshot(&snap) != bytes => {
            Err("snapshot re-encodes differently".into())
        }
        _ => Ok(()),
    }
}

fn check_delta(bytes: &[u8]) -> Result<(), String> {
    match decode_delta(bytes) {
        Ok(delta) if encode_delta(&delta) != bytes => Err("delta re-encodes differently".into()),
        _ => Ok(()),
    }
}

fn check_timeline(bytes: &[u8]) -> Result<(), String> {
    match Timeline::from_bin(bytes) {
        Ok(timeline) if timeline.to_bin() != bytes => Err("timeline re-encodes differently".into()),
        _ => Ok(()),
    }
}

fn check_trace(bytes: &[u8]) -> Result<(), String> {
    match decode_trace(bytes) {
        Ok((records, dropped)) if encode_trace(&records, dropped) != bytes => {
            Err("trace re-encodes differently".into())
        }
        _ => Ok(()),
    }
}

/// Prepends the first `header_len` bytes of `valid` to `tail` when
/// `with_header` is set.
fn garbage_input(valid: &[u8], header_len: usize, with_header: bool, tail: Vec<u8>) -> Vec<u8> {
    if with_header {
        let mut bytes = valid[..header_len].to_vec();
        bytes.extend(tail);
        bytes
    } else {
        tail
    }
}

proptest! {
    /// Snapshots: garbage, strict prefixes and edits fail closed.
    #[test]
    fn snapshot_decoder_fails_closed(
        snap in arb_snapshot(),
        (with_header, tail) in arb_garbage(),
        edits in arb_edits(),
    ) {
        let bytes = encode_snapshot(&snap);
        prop_assert_eq!(decode_snapshot(&bytes), Ok(snap));
        for len in 0..bytes.len() {
            prop_assert!(decode_snapshot(&bytes[..len]).is_err(), "prefix {} decoded", len);
        }
        prop_assert_eq!(check_snapshot(&garbage_input(&bytes, 7, with_header, tail)), Ok(()));
        prop_assert_eq!(check_snapshot(&edited(bytes, &edits)), Ok(()));
    }

    /// Deltas: garbage, strict prefixes and edits fail closed.
    #[test]
    fn delta_decoder_fails_closed(
        delta in arb_delta(),
        (with_header, tail) in arb_garbage(),
        edits in arb_edits(),
    ) {
        let bytes = encode_delta(&delta);
        prop_assert_eq!(decode_delta(&bytes), Ok(delta));
        for len in 0..bytes.len() {
            prop_assert!(decode_delta(&bytes[..len]).is_err(), "prefix {} decoded", len);
        }
        prop_assert_eq!(check_delta(&garbage_input(&bytes, 7, with_header, tail)), Ok(()));
        prop_assert_eq!(check_delta(&edited(bytes, &edits)), Ok(()));
    }

    /// Traces: garbage, strict prefixes and edits fail closed.
    #[test]
    fn trace_decoder_fails_closed(
        (records, dropped) in arb_trace(),
        (with_header, tail) in arb_garbage(),
        edits in arb_edits(),
    ) {
        let bytes = encode_trace(&records, dropped);
        prop_assert_eq!(decode_trace(&bytes), Ok((records, dropped)));
        for len in 0..bytes.len() {
            prop_assert!(decode_trace(&bytes[..len]).is_err(), "prefix {} decoded", len);
        }
        prop_assert_eq!(check_trace(&garbage_input(&bytes, 6, with_header, tail)), Ok(()));
        prop_assert_eq!(check_trace(&edited(bytes, &edits)), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Timelines: garbage, strict prefixes and edits fail closed.
    #[test]
    fn timeline_decoder_fails_closed(
        timeline in arb_timeline(),
        (with_header, tail) in arb_garbage(),
        edits in arb_edits(),
    ) {
        let bytes = timeline.to_bin();
        prop_assert_eq!(Timeline::from_bin(&bytes), Ok(timeline));
        for len in 0..bytes.len() {
            prop_assert!(Timeline::from_bin(&bytes[..len]).is_err(), "prefix {} decoded", len);
        }
        prop_assert_eq!(check_timeline(&garbage_input(&bytes, 14, with_header, tail)), Ok(()));
        prop_assert_eq!(check_timeline(&edited(bytes, &edits)), Ok(()));
    }
}
