//! No wire decoder allocates a size its input claims.
//!
//! A counting `#[global_allocator]` records the largest single
//! allocation while crafted `JWC1` and `JWR1` containers, each with a
//! valid header checksum, claim 2³²−1 decoded words, sections or
//! Huffman symbols. Every one must end in a typed error, with no single
//! allocation above 1 MiB, through [`wire::decode_full`], the
//! device-side [`wire::apply_streaming`] path and [`wire::decode_reply`].
//!
//! This file holds exactly one test: the allocator's record is global,
//! so a sibling test on another harness thread would pollute it.

use bitstream::Interpreter;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use virtex::Device;
use wire::reply::REPLY_MAGIC;
use wire::{fnv1a_bytes, fnv1a_words, huff, ApplyError, Mode, WireError, MAGIC};

struct CountingAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

/// Requests above this fail outright, so a decoder that trusts a
/// claimed length fails the test instead of taking the host's memory.
const REFUSE_ABOVE: usize = 1 << 30;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged, or returns null, which `GlobalAlloc` allows as an
// allocation failure; the counter touches no memory it hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        if layout.size() > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        if new_size > REFUSE_ABOVE {
            return std::ptr::null_mut();
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const CLAIM: u32 = u32::MAX;

fn be(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_be_bytes()).collect()
}

/// A `JWC1` container: `header` is (total words, section count); each
/// section is (mode, decoded words, payload, checksum).
fn jwc1(header: [u32; 2], sections: &[(Mode, u32, Vec<u8>, u32)]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.extend(be(&[Device::XCV50.idcode(), 12, header[0], header[1]]));
    bytes.extend(fnv1a_bytes(&bytes).to_be_bytes());
    for (mode, words, payload, checksum) in sections {
        let len = payload.len() as u32;
        bytes.extend(be(&[(*mode as u32) << 24 | words, len, 0, 0, *checksum]));
        bytes.extend(payload);
        bytes.resize(bytes.len().next_multiple_of(4), 0);
    }
    bytes
}

/// A `JWR1` reply, laid out as [`jwc1`] without the device fields.
fn jwr1(header: [u32; 2], sections: &[(Mode, u32, Vec<u8>, u32)]) -> Vec<u8> {
    let mut bytes = REPLY_MAGIC.to_vec();
    bytes.extend(be(&header));
    bytes.extend(fnv1a_bytes(&bytes).to_be_bytes());
    for (mode, words, payload, checksum) in sections {
        let len = payload.len() as u32;
        bytes.extend(be(&[(*mode as u32) << 24 | words, len, *checksum]));
        bytes.extend(payload);
        bytes.resize(bytes.len().next_multiple_of(4), 0);
    }
    bytes
}

/// A Huffman payload that claims `CLAIM` symbols: a valid table
/// (symbols 0 and 1, one bit each) and 16 bytes of code bits.
fn huffman_claim() -> Vec<u8> {
    let mut payload = vec![0u8; huff::TABLE_BYTES];
    payload[0] = 0x11;
    payload[128..132].copy_from_slice(&CLAIM.to_be_bytes());
    payload.extend([0u8; 16]);
    payload
}

#[test]
fn claimed_lengths_end_in_typed_errors_without_large_allocations() {
    // One raw section holding a dummy word, which a device feeds before
    // sync like any other.
    let dummy = 0xFFFF_FFFFu32;
    let raw = [(Mode::Raw, 1, be(&[dummy]), fnv1a_words(&[dummy]))];
    let huffman = [(Mode::HuffRle, 1, huffman_claim(), 0)];

    let containers = [
        ("JWC1 total words", jwc1([CLAIM, 1], &raw)),
        ("JWC1 section count", jwc1([1, CLAIM], &raw)),
        ("JWC1 Huffman symbols", jwc1([1, 1], &huffman)),
    ];
    let replies = [
        ("JWR1 total words", jwr1([CLAIM, 1], &raw)),
        ("JWR1 section count", jwr1([1, CLAIM], &[])),
        ("JWR1 Huffman symbols", jwr1([1, 1], &huffman)),
    ];

    LARGEST.store(0, Ordering::Relaxed);
    for (what, bytes) in &containers {
        let full = wire::decode_full(bytes, None);
        assert!(
            matches!(
                full,
                Err(WireError::WordCountMismatch { .. } | WireError::Truncated { .. })
            ),
            "{what}: decode_full gave {full:?}"
        );
        let mut device = Interpreter::new(Device::XCV50);
        let applied = wire::apply_streaming(&mut device, bytes);
        assert!(
            matches!(
                applied,
                Err(ApplyError::Wire(
                    WireError::WordCountMismatch { .. } | WireError::Truncated { .. }
                ))
            ),
            "{what}: apply_streaming gave {applied:?}"
        );
    }
    for (what, bytes) in &replies {
        let reply = wire::decode_reply(bytes);
        assert!(
            matches!(
                reply,
                Err(WireError::WordCountMismatch { .. } | WireError::Truncated { .. })
            ),
            "{what}: decode_reply gave {reply:?}"
        );
    }
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(
        largest <= 1 << 20,
        "a decoder allocated {largest} bytes in one piece"
    );
}
