//! The `P4TR` decoder reserves room only for records the payload can
//! hold: a header's record count is untrusted input.
//!
//! A global allocator wrapper records the largest single request made
//! while decoding. (The telemetry library forbids unsafe code; this
//! integration test is a separate crate and needs `unsafe` only for the
//! `GlobalAlloc` impl.)

use p4auth_telemetry::trace::{decode_trace, encode_trace, TraceDecodeError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct LargestAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
fn record_count_beyond_payload_reserves_nothing() {
    // An empty trace is the 18-byte header; claim 2^32 - 1 records.
    let mut bytes = encode_trace(&[], 0);
    assert_eq!(bytes.len(), 18);
    bytes[14..18].copy_from_slice(&u32::MAX.to_le_bytes());
    LARGEST.store(0, Ordering::Relaxed);
    assert_eq!(decode_trace(&bytes), Err(TraceDecodeError::Truncated));
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest < 1024,
        "decoder reserved {largest} bytes for an empty payload"
    );
}
