//! The content-addressed partial-bitstream store.
//!
//! A serving fleet downloads each library entry many times — once per
//! board it schedules it onto, times retries — but the bitstream itself
//! only needs to be *generated* once. The store maps
//! `(device, region, variant, base-epoch)` to the generated artifacts
//! and guarantees single generation per key even when several workers
//! race on a cold entry (per-key `OnceLock`).
//!
//! The base-epoch component makes rebasing cheap and safe: when the
//! fleet's base design changes, bumping the epoch invalidates every key
//! at once — stale entries are purged, and the next request for a
//! variant regenerates against the new base.

use bitstream::Bitstream;
use std::collections::HashMap;
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Arc,
};
use std::sync::{Mutex, OnceLock};
use virtex::Device;

/// Identity of one stored entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PartialKey {
    /// Device the bitstreams target.
    pub device: Device,
    /// Region index in the serving library.
    pub region: usize,
    /// Variant index within the region's catalogue.
    pub variant: usize,
    /// Column origin (slot index) the partial is stitched for; `0` is
    /// the region's floorplanned home. A partial generated for one
    /// origin is byte-wrong at every other, so the origin is part of
    /// the entry's identity.
    pub origin: usize,
    /// Base-design epoch the entry was generated against.
    pub epoch: u64,
}

/// Everything the fleet needs to serve one `(region, variant)` pair,
/// generated once and shared by reference.
#[derive(Debug)]
pub struct StoredPartial {
    /// The entry's identity.
    pub key: PartialKey,
    /// Wholesale partial: covers the module's configuration columns
    /// completely, safe to apply over any resident variant.
    pub wholesale: Bitstream,
    /// Incremental partial: only frames differing from the base image —
    /// smaller, but only correct when the region holds base content.
    pub incremental: Bitstream,
    /// Complete bitstream of the stamped image (this variant in its
    /// region, base content elsewhere) — what a no-partial-reconfig
    /// fleet must download per swap.
    pub full: Bitstream,
    /// Expected configuration words over the region's verify ranges,
    /// the readback-compare reference.
    pub expected: Vec<u32>,
    /// Per-frame FNV-1a/64 digests of `expected` (same frame order)
    /// plus the region rollup, computed once at store time — the
    /// reference the digest verify path compares device-side digests
    /// against without ever shipping frame words.
    pub expected_digests: virtex::RegionDigests,
    /// Frames the wholesale partial writes.
    pub frames_wholesale: usize,
    /// Frames the incremental partial writes.
    pub frames_incremental: usize,
    /// Compressed wire container of the wholesale partial (no delta —
    /// wholesale streams must apply over any resident content).
    pub wire_wholesale: wire::Encoded,
    /// Compressed wire container of the incremental partial,
    /// delta-coded against the base epoch's frame content.
    pub wire_incremental: wire::Encoded,
    /// Length of `expected` as a `JWR1` reply container: what a clean
    /// raw verification reply costs on the compressed wire.
    pub wire_reply_bytes: usize,
}

type Slot = Arc<OnceLock<Result<Arc<StoredPartial>, String>>>;

/// The store proper: an epoch counter plus the keyed entry map.
#[derive(Debug, Default)]
pub struct PartialStore {
    epoch: AtomicU64,
    map: Mutex<HashMap<PartialKey, Slot>>,
}

impl PartialStore {
    /// An empty store at epoch 0.
    pub fn new() -> PartialStore {
        PartialStore::default()
    }

    /// The current base-design epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the epoch, purging every entry generated against earlier
    /// bases. Returns the new epoch.
    pub fn bump_epoch(&self) -> u64 {
        let new = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.map
            .lock()
            .expect("store lock")
            .retain(|k, _| k.epoch >= new);
        new
    }

    /// Drop every entry for `region` — all variants, origins and
    /// epochs. Called when the defragmenter changes the region's slot
    /// assignment: a partial stitched for the old origin must never be
    /// served again. Returns the number of entries purged.
    pub fn purge_region(&self, region: usize) -> usize {
        let mut map = self.map.lock().expect("store lock");
        let before = map.len();
        map.retain(|k, _| k.region != region);
        before - map.len()
    }

    /// Number of resident entries (any epoch, generated or in flight).
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resolve `key` (whose epoch must be [`Self::epoch`]), generating
    /// via `generate` exactly once per key. The `bool` is `true` on a
    /// hit (entry already existed — possibly generated concurrently by a
    /// racing worker this instant; the *caller that ran `generate`* is
    /// the single miss).
    pub fn get_or_generate(
        &self,
        key: PartialKey,
        generate: impl FnOnce() -> Result<StoredPartial, String>,
    ) -> (Result<Arc<StoredPartial>, String>, bool) {
        let slot: Slot = {
            let mut map = self.map.lock().expect("store lock");
            map.entry(key).or_default().clone()
        };
        // Outside the map lock: generation is expensive and other keys
        // must not wait on it. OnceLock serializes racers on *this* key.
        let mut generated = false;
        let result = slot
            .get_or_init(|| {
                generated = true;
                generate().map(Arc::new)
            })
            .clone();
        (result, !generated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn dummy(key: PartialKey) -> StoredPartial {
        let enc = |words: Vec<u32>| wire::encode(key.device, &Bitstream::from_words(words), None);
        StoredPartial {
            key,
            wholesale: Bitstream::from_words(vec![1]),
            incremental: Bitstream::from_words(vec![2]),
            full: Bitstream::from_words(vec![3]),
            expected: vec![],
            expected_digests: virtex::RegionDigests::from_words(&[], 1),
            frames_wholesale: 1,
            frames_incremental: 1,
            wire_wholesale: enc(vec![1]),
            wire_incremental: enc(vec![2]),
            wire_reply_bytes: wire::encode_reply(&[]).bytes.len(),
        }
    }

    fn key(region: usize, epoch: u64) -> PartialKey {
        PartialKey {
            device: Device::XCV50,
            region,
            variant: 0,
            origin: 0,
            epoch,
        }
    }

    #[test]
    fn generates_once_per_key() {
        let store = PartialStore::new();
        let calls = AtomicUsize::new(0);
        let gen = |k: PartialKey| {
            calls.fetch_add(1, Ordering::Relaxed);
            Ok(dummy(k))
        };
        let (a, hit_a) = store.get_or_generate(key(0, 0), || gen(key(0, 0)));
        let (b, hit_b) = store.get_or_generate(key(0, 0), || gen(key(0, 0)));
        assert!(!hit_a && hit_b);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()), "same entry shared");

        let (_, hit_c) = store.get_or_generate(key(1, 0), || gen(key(1, 0)));
        assert!(!hit_c);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn concurrent_cold_lookups_generate_once() {
        let store = PartialStore::new();
        let calls = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let (r, _) = store.get_or_generate(key(0, 0), || {
                        calls.fetch_add(1, Ordering::Relaxed);
                        Ok(dummy(key(0, 0)))
                    });
                    assert!(r.is_ok());
                });
            }
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn epoch_bump_purges_stale_entries() {
        let store = PartialStore::new();
        store
            .get_or_generate(key(0, 0), || Ok(dummy(key(0, 0))))
            .0
            .unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.bump_epoch(), 1);
        assert!(store.is_empty(), "old-epoch entries purged");
        // The same (region, variant) under the new epoch is a fresh miss.
        let (_, hit) = store.get_or_generate(key(0, 1), || Ok(dummy(key(0, 1))));
        assert!(!hit);
    }

    #[test]
    fn migration_purges_stale_origin_partials() {
        let store = PartialStore::new();
        let at = |origin: usize| PartialKey {
            origin,
            ..key(0, 0)
        };
        // Region 0 was served at origin 3 before the defragmenter moved
        // it; region 1 is a bystander that must survive the purge.
        store.get_or_generate(at(3), || Ok(dummy(at(3)))).0.unwrap();
        store
            .get_or_generate(key(1, 0), || Ok(dummy(key(1, 0))))
            .0
            .unwrap();
        assert_eq!(store.purge_region(0), 1, "only region-0 entries go");
        assert_eq!(store.len(), 1);
        // After the move to origin 1 every origin is a fresh miss: the
        // stale origin-3 partial can never be served again.
        let (_, hit) = store.get_or_generate(at(1), || Ok(dummy(at(1))));
        assert!(!hit, "new origin regenerates");
        let (_, hit) = store.get_or_generate(at(3), || Ok(dummy(at(3))));
        assert!(
            !hit,
            "stale-origin partial must not be served post-migration"
        );
    }

    #[test]
    fn generation_errors_are_shared_not_retried() {
        let store = PartialStore::new();
        let calls = AtomicUsize::new(0);
        let (r1, _) = store.get_or_generate(key(0, 0), || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err("boom".into())
        });
        let (r2, hit) = store.get_or_generate(key(0, 0), || {
            calls.fetch_add(1, Ordering::Relaxed);
            Err("boom".into())
        });
        assert!(r1.is_err() && r2.is_err() && hit);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }
}
