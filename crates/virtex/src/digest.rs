//! Frame digests — the device-side primitive behind the fleet's fast
//! verify path.
//!
//! A readback-verify normally ships every frame word of the verified
//! region back across the SelectMAP port. A digest-capable board
//! instead folds each frame through FNV-1a/64 *on the device* and ships
//! only the 8-byte digests (plus an 8-byte region rollup), so a verify
//! costs digest bytes rather than frame bytes. The same primitive is
//! used host-side to precompute expected digests at store time, and it
//! is deliberately the same FNV-1a family as `core`'s `FrameCache`
//! hashing and the wire container's section checksums.
//!
//! ## Why a digest mismatch can never be silently wrong
//!
//! FNV-1a's fold is `h' = (h ^ b) * P` with an odd prime `P`:
//! multiplication by an odd constant is a bijection mod 2^64, and XOR
//! by a byte is a bijection, so the whole fold is injective in each
//! input byte given the running state. Flipping any single bit of a
//! frame therefore *always* changes its digest — the seeded single-bit
//! corruption campaigns the conformance harness runs cannot produce a
//! false-accept at the digest tier. Multi-bit collisions are possible
//! in principle (it is a 64-bit hash, not a MAC), which is why the
//! fleet's verify policy treats a digest *match* as trusted only for
//! clean paths and escalates every mismatch to a raw compare: the
//! digest tier can only ever save bytes, never accept less evidence
//! than the raw path on a disputed board.

/// FNV-1a/64 offset basis.
pub const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a/64 prime.
pub const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a/64 over a word slice, folding big-endian bytes — the same
/// byte order SelectMAP uses on the wire, so host and device agree
/// byte-for-byte.
pub fn frame_digest64(words: &[u32]) -> u64 {
    words.iter().fold(FNV64_OFFSET, |h, &w| fold_word(h, w))
}

/// Fold one word's big-endian bytes into an FNV-1a/64 state.
#[inline(always)]
fn fold_word(h: u64, w: u32) -> u64 {
    let fold = |h: u64, b: u32| (h ^ u64::from(b & 0xFF)).wrapping_mul(FNV64_PRIME);
    fold(fold(fold(fold(h, w >> 24), w >> 16), w >> 8), w)
}

/// FNV-1a/64 over a digest sequence (big-endian bytes) — the region
/// rollup a digest readback reply carries alongside the per-frame
/// digests, so a verifier can compare one word before touching the
/// list.
pub fn rollup_digest64(digests: &[u64]) -> u64 {
    let mut h = FNV64_OFFSET;
    for &d in digests {
        for b in d.to_be_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV64_PRIME);
        }
    }
    h
}

/// Per-frame digests of a contiguous frame region plus their rollup —
/// what a digest-capable board returns over the port instead of raw
/// frame words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionDigests {
    /// One FNV-1a/64 digest per frame, in frame order.
    pub frames: Vec<u64>,
    /// Rollup over `frames` ([`rollup_digest64`]).
    pub rollup: u64,
}

impl RegionDigests {
    /// Digest `words` as consecutive frames of `frame_words` words
    /// each. `words.len()` must be a whole number of frames.
    pub fn from_words(words: &[u32], frame_words: usize) -> RegionDigests {
        assert!(frame_words > 0, "frame length must be positive");
        assert!(
            words.len().is_multiple_of(frame_words),
            "digest input must be whole frames ({} words, flr {})",
            words.len(),
            frame_words
        );
        // Each digest is one serial multiply chain, so four frames are
        // folded side by side, word by word, and the rest one by one.
        let mut frames = Vec::with_capacity(words.len() / frame_words);
        let quads = words.chunks_exact(4 * frame_words);
        let rest = quads.remainder();
        for quad in quads {
            let [mut h0, mut h1, mut h2, mut h3] = [FNV64_OFFSET; 4];
            for i in 0..frame_words {
                h0 = fold_word(h0, quad[i]);
                h1 = fold_word(h1, quad[frame_words + i]);
                h2 = fold_word(h2, quad[2 * frame_words + i]);
                h3 = fold_word(h3, quad[3 * frame_words + i]);
            }
            frames.extend([h0, h1, h2, h3]);
        }
        frames.extend(rest.chunks(frame_words).map(frame_digest64));
        let rollup = rollup_digest64(&frames);
        RegionDigests { frames, rollup }
    }

    /// Bytes this reply costs on the port: 8 per frame digest plus 8
    /// for the rollup.
    pub fn port_bytes(&self) -> usize {
        8 * self.frames.len() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_matches_reference_fold() {
        // FNV-1a/64 of the empty input is the offset basis.
        assert_eq!(frame_digest64(&[]), FNV64_OFFSET);
        // One word folds its four big-endian bytes in order.
        let mut h = FNV64_OFFSET;
        for b in [0xDEu8, 0xAD, 0xBE, 0xEF] {
            h ^= b as u64;
            h = h.wrapping_mul(FNV64_PRIME);
        }
        assert_eq!(frame_digest64(&[0xDEAD_BEEF]), h);
    }

    #[test]
    fn single_bit_flips_always_change_the_digest() {
        // The injectivity argument, checked exhaustively on one frame:
        // every single-bit flip of every word perturbs the digest.
        let frame: Vec<u32> = (0..12).map(|i| 0x8040_2010u32.rotate_left(i)).collect();
        let clean = frame_digest64(&frame);
        for w in 0..frame.len() {
            for bit in 0..32 {
                let mut dirty = frame.clone();
                dirty[w] ^= 1 << bit;
                assert_ne!(
                    frame_digest64(&dirty),
                    clean,
                    "flip of word {w} bit {bit} must change the digest"
                );
            }
        }
    }

    #[test]
    fn region_digests_split_on_frame_boundaries() {
        let words: Vec<u32> = (0..24).collect();
        let d = RegionDigests::from_words(&words, 12);
        assert_eq!(d.frames.len(), 2);
        assert_eq!(d.frames[0], frame_digest64(&words[..12]));
        assert_eq!(d.frames[1], frame_digest64(&words[12..]));
        assert_eq!(d.rollup, rollup_digest64(&d.frames));
        assert_eq!(d.port_bytes(), 2 * 8 + 8);
    }

    #[test]
    fn region_digests_match_per_frame_digests_at_every_length() {
        // FNV-1a/64 one byte at a time, as the format defines it.
        let reference = |frame: &[u32]| {
            let bytes = frame.iter().flat_map(|w| w.to_be_bytes());
            bytes.fold(FNV64_OFFSET, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(FNV64_PRIME)
            })
        };
        let words: Vec<u32> = (0..300u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9).rotate_left(i % 32))
            .collect();
        for frame_words in [1, 3, 12, 25] {
            // Every whole number of frames in 0..=300 words, so every
            // remainder of frames past a multiple of four.
            for len in (0..=words.len()).step_by(frame_words) {
                let d = RegionDigests::from_words(&words[..len], frame_words);
                let serial: Vec<u64> = words[..len].chunks(frame_words).map(reference).collect();
                for frame in words[..len].chunks(frame_words) {
                    assert_eq!(frame_digest64(frame), reference(frame));
                }
                assert_eq!(d.frames, serial, "{len} words, flr {frame_words}");
                assert_eq!(d.rollup, rollup_digest64(&serial));
            }
        }
    }

    #[test]
    fn rollup_is_order_sensitive() {
        assert_ne!(rollup_digest64(&[1, 2]), rollup_digest64(&[2, 1]));
    }
}
