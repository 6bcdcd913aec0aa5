//! Seeded wire-format conformance: the trio of checks every `JWC1`
//! container must pass.
//!
//! Each seed drives one case over a random device (XCV50 through
//! XCV1000) and a random stamped column span at a seed-chosen content
//! density (dense pseudo-random words through mostly-zero frames, so
//! every encoder mode gets exercised), asserting:
//!
//! 1. **Round-trip byte identity** — [`wire::encode()`] followed by
//!    [`wire::decode_full`] reproduces exactly the partial's words;
//! 2. **Streaming apply equivalence** — [`wire::apply_streaming`]
//!    against a device-side [`bitstream::Interpreter`] lands the same
//!    configuration memory as feeding the plain partial, including the
//!    delta-coded incremental path against base-resident content, and a
//!    wrong-base apply of a delta container fails with a typed
//!    per-section checksum error instead of configuring garbage;
//! 3. **Typed rejection** — a seed-chosen corruption (bad magic, header
//!    checksum, truncation, bad section mode, payload flip, trailing
//!    garbage) surfaces a typed [`wire::WireError`] with an in-bounds
//!    offset, never a panic — or, for flips that land in unchecked
//!    section padding, decodes byte-identically.
//!
//! Any failure reproduces from its printed seed.

use bitstream::bitgen::{self, FrameRange};
use bitstream::{full_bitstream, Bitstream, Interpreter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use virtex::{BlockType, ConfigMemory, Device};
use wire::{ApplyError, Mode, WireError, HEADER_BYTES};

/// Devices the wire campaign samples — same spread as the relocation
/// trio: both geometry extremes plus two mid-range parts.
pub const WIRE_DEVICES: [Device; 4] = [
    Device::XCV50,
    Device::XCV100,
    Device::XCV300,
    Device::XCV1000,
];

/// Summary of one passed case, for campaign statistics.
#[derive(Debug, Clone, Copy)]
pub struct WireOutcome {
    /// Container sections.
    pub sections: usize,
    /// Encoded container bytes.
    pub encoded_bytes: usize,
    /// Decoded payload bytes.
    pub decoded_bytes: usize,
    /// Whether the case exercised the delta-coded incremental path.
    pub delta: bool,
}

/// Deterministic pattern word (splitmix64 finalizer), with a `density`
/// knob: positions hashing past the density threshold stay zero so low
/// densities produce the long zero runs the RLE/Huffman modes eat.
fn pat_word(pat: u64, rel: usize, minor: usize, k: usize, density: u64) -> u32 {
    let mut x = pat ^ ((rel as u64) << 42) ^ ((minor as u64) << 21) ^ k as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    if x % 100 < density {
        x as u32 | 1
    } else {
        0
    }
}

/// Stamp `cols` (CLB-array columns) at `density`% non-zero words.
fn stamp(mem: &mut ConfigMemory, cols: &[usize], pat: u64, density: u64) {
    let geom = mem.geometry().clone();
    for (rel, &c) in cols.iter().enumerate() {
        let major = geom.major_for_clb_col(c).expect("column in array");
        let r = FrameRange::for_column(&geom, BlockType::Clb, major).expect("CLB column frames");
        for (minor, f) in r.frames().enumerate() {
            for k in 0..mem.frame_words() {
                mem.frame_mut(f)[k] = pat_word(pat, rel, minor, k, density);
            }
        }
    }
}

/// Check 3: corrupt `container` per the seed and demand a typed,
/// in-bounds error — or a byte-identical decode when the flip landed in
/// unchecked section padding.
fn check_corruption(
    seed: u64,
    rng: &mut StdRng,
    container: &[u8],
    expect: &[u32],
    base: Option<&dyn wire::FrameSource>,
) -> Result<(), String> {
    let kind = seed % 6;
    let mut bad = container.to_vec();
    let label;
    match kind {
        0 => {
            label = "magic";
            bad[0] ^= 0xFF;
        }
        1 => {
            label = "header field";
            bad[4 + rng.gen_range(0..16usize)] ^= 1u8 << rng.gen_range(0..8u32);
        }
        2 => {
            label = "truncation";
            bad.truncate(rng.gen_range(0..bad.len()));
        }
        3 => {
            label = "section mode";
            bad[HEADER_BYTES] = 0x3F; // no such Mode
        }
        4 => {
            label = "payload flip";
            let at = rng.gen_range(HEADER_BYTES..bad.len());
            bad[at] ^= 1u8 << rng.gen_range(0..8u32);
        }
        _ => {
            label = "trailing garbage";
            bad.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF]);
        }
    }
    match wire::decode_full(&bad, base) {
        Ok(words) => {
            // Only a payload flip may survive, and only by landing in
            // the up-to-3 unchecked padding bytes of a section.
            if kind != 4 || words != expect {
                return Err(format!(
                    "seed {seed}: {label} corruption decoded successfully to {} words",
                    words.len()
                ));
            }
        }
        Err(e) => {
            // The typed error must name an in-bounds offset.
            let offset = match &e {
                WireError::Truncated { at }
                | WireError::BadToken { at, .. }
                | WireError::BadHuffman { at }
                | WireError::TrailingBytes { at } => Some(*at),
                _ => None,
            };
            if let Some(at) = offset {
                if at > bad.len() {
                    return Err(format!(
                        "seed {seed}: {label} corruption error {e} points past the \
                         container ({at} > {})",
                        bad.len()
                    ));
                }
            }
            match (kind, &e) {
                (0, WireError::BadMagic { .. })
                | (1, WireError::HeaderChecksum { .. })
                | (1, WireError::BadMagic { .. })
                | (2, _)
                | (3, WireError::BadMode { .. })
                | (4, _)
                | (5, WireError::TrailingBytes { .. }) => {}
                _ => {
                    return Err(format!(
                        "seed {seed}: {label} corruption yielded unexpected error {e}"
                    ))
                }
            }
        }
    }
    Ok(())
}

/// One seeded case's content: a partial and the base image its
/// incremental encode deltas against.
#[derive(Debug, Clone)]
pub struct WireContent {
    /// The device the partial is for.
    pub device: Device,
    /// The base image: a random column span stamped at a random density.
    pub base: ConfigMemory,
    /// The partial carrying sparse word edits over that span.
    pub partial: Bitstream,
}

/// The content [`wire_case`] encodes for `seed`, for callers that pin
/// or measure the encoder on it.
pub fn wire_content(seed: u64) -> WireContent {
    content(&mut case_rng(seed))
}

fn case_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x317E_F0E3_A7E0_11D1)
}

fn content(rng: &mut StdRng) -> WireContent {
    let device = WIRE_DEVICES[rng.gen_range(0..WIRE_DEVICES.len())];
    let pat = rng.gen_range(0..u64::MAX);
    // Sweep the content spectrum: 0 = all-zero frames (pure RLE), 100 =
    // every word pseudo-random (raw-mode territory).
    let density = [0u64, 3, 20, 60, 100][rng.gen_range(0..5usize)];

    let clb_cols = device.geometry().clb_cols;
    let width = rng.gen_range(1..=3.min(clb_cols));
    let start = rng.gen_range(0..=clb_cols - width);
    let cols: Vec<usize> = (start..start + width).collect();

    // Base image: the span stamped at the case density.
    let mut base = ConfigMemory::new(device);
    stamp(&mut base, &cols, pat, density);
    base.clear_dirty();

    // Variant image: sparse word edits over the span — the incremental
    // reality: a frame ships whole when one word changes, so each
    // carried frame is mostly base content and the delta modes get
    // something to win on.
    let mut variant_mem = base.clone();
    {
        let geom = variant_mem.geometry().clone();
        let mut edited = false;
        for (rel, &c) in cols.iter().enumerate() {
            let major = geom.major_for_clb_col(c).expect("column in array");
            let r =
                FrameRange::for_column(&geom, BlockType::Clb, major).expect("CLB column frames");
            for (minor, f) in r.frames().enumerate() {
                for k in 0..variant_mem.frame_words() {
                    let edit = pat_word(pat ^ 0x5A5A_5A5A, rel, minor, k, 4);
                    if edit != 0 {
                        variant_mem.frame_mut(f)[k] ^= edit;
                        edited = true;
                    }
                }
            }
        }
        if !edited {
            // Degenerate seed: force one edit so the partial is nonempty.
            let major = geom.major_for_clb_col(cols[0]).expect("column in array");
            let r =
                FrameRange::for_column(&geom, BlockType::Clb, major).expect("CLB column frames");
            let f = r.frames().next().expect("column has frames");
            variant_mem.frame_mut(f)[0] ^= 1;
        }
    }
    let runs = bitgen::coalesce_frames(variant_mem.dirty_frames());
    let partial = bitgen::partial_bitstream(&variant_mem, &runs);
    WireContent {
        device,
        base,
        partial,
    }
}

/// One seeded wire-format case.
pub fn wire_case(seed: u64) -> Result<WireOutcome, String> {
    let mut rng = case_rng(seed);
    let WireContent {
        device,
        base: base_mem,
        partial,
    } = content(&mut rng);

    // Check 1: base-free round trip is byte-identical.
    let enc = wire::encode(device, &partial, None);
    let words = wire::decode_full(&enc.bytes, None)
        .map_err(|e| format!("seed {seed} ({device:?}): base-free decode failed: {e}"))?;
    if words != partial.words() {
        return Err(format!(
            "seed {seed} ({device:?}): base-free round trip is not word-identical"
        ));
    }

    // Check 2a: streaming apply onto a blank device lands the same
    // memory as feeding the plain partial.
    let mut plain_dev = Interpreter::new(device);
    plain_dev
        .feed(&partial)
        .map_err(|e| format!("seed {seed} ({device:?}): plain feed rejected: {e}"))?;
    let mut wire_dev = Interpreter::new(device);
    let stats = wire::apply_streaming(&mut wire_dev, &enc.bytes)
        .map_err(|e| format!("seed {seed} ({device:?}): streaming apply failed: {e}"))?;
    if wire_dev.memory() != plain_dev.memory() {
        return Err(format!(
            "seed {seed} ({device:?}): streaming apply diverges from plain feed"
        ));
    }
    if stats.bytes_on_wire != enc.bytes.len() {
        return Err(format!(
            "seed {seed} ({device:?}): apply accounted {} wire bytes, container is {}",
            stats.bytes_on_wire,
            enc.bytes.len()
        ));
    }

    // Check 2b: the delta path. Encode against the base image; a
    // base-resident device must land the variant, and when any section
    // actually delta-coded, a cold device must fail the per-section
    // checksum rather than configure garbage.
    let denc = wire::encode(device, &partial, Some(&base_mem as &dyn wire::FrameSource));
    let delta_sections: usize = [Mode::DeltaRle, Mode::HuffDeltaRle]
        .iter()
        .map(|m| denc.stats.mode_counts[*m as usize])
        .sum();
    let mut oracle = Interpreter::new(device);
    oracle
        .feed(&full_bitstream(&base_mem))
        .map_err(|e| format!("seed {seed} ({device:?}): oracle base download rejected: {e}"))?;
    oracle
        .feed(&partial)
        .map_err(|e| format!("seed {seed} ({device:?}): oracle plain feed rejected: {e}"))?;
    let mut resident = Interpreter::new(device);
    resident
        .feed(&full_bitstream(&base_mem))
        .map_err(|e| format!("seed {seed} ({device:?}): base download rejected: {e}"))?;
    wire::apply_streaming(&mut resident, &denc.bytes)
        .map_err(|e| format!("seed {seed} ({device:?}): delta apply failed: {e}"))?;
    if resident.memory() != oracle.memory() {
        return Err(format!(
            "seed {seed} ({device:?}): delta apply diverges from plain feed over base"
        ));
    }
    if delta_sections > 0 {
        let mut cold = Interpreter::new(device);
        match wire::apply_streaming(&mut cold, &denc.bytes) {
            Err(ApplyError::Wire(WireError::SectionChecksum { .. })) => {}
            Ok(_) => {
                return Err(format!(
                    "seed {seed} ({device:?}): delta container applied on a cold device"
                ))
            }
            Err(other) => {
                return Err(format!(
                    "seed {seed} ({device:?}): wrong-base apply yielded {other}, \
                     expected a section checksum error"
                ))
            }
        }
    }

    // Check 3: typed rejection of a seed-chosen corruption.
    check_corruption(seed, &mut rng, &enc.bytes, partial.words(), None)?;

    Ok(WireOutcome {
        sections: enc.stats.sections,
        encoded_bytes: enc.stats.encoded_bytes,
        decoded_bytes: enc.stats.decoded_bytes,
        delta: delta_sections > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_corruption_category_is_reachable() {
        // Seeds 0..6 cover all six corruption kinds (seed % 6).
        for seed in 0..6 {
            wire_case(seed).unwrap();
        }
    }
}
