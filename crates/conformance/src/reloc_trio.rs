//! Seeded relocation conformance: the trio of checks every relocated
//! partial must pass.
//!
//! Each seed drives one case over a random device (XCV50 through
//! XCV1000), a random stamped column span and a random in-range shift,
//! asserting:
//!
//! 1. **Byte identity** — [`reloc::relocate`] produces exactly the bytes
//!    of a partial freshly generated at the target origin from the same
//!    (relative) frame contents;
//! 2. **Device-side readback** — feeding the relocated stream to the
//!    [`bitstream::Interpreter`] lands the configuration memory the
//!    fresh-at-target oracle holds;
//! 3. **Typed rejection** — shifting the same stream off the device (and,
//!    for a sampled subset, shifting a clock-column stream at all) fails
//!    with the right [`reloc::RelocError`] variant, never a panic and
//!    never a silently wrong stream.
//!
//! One seed in five exercises the BRAM majors instead of the CLB array.
//! Any failure reproduces from its printed seed.

use bitstream::bitgen::{self, FrameRange};
use bitstream::{Bitstream, Interpreter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reloc::{relocate, RelocError, RelocSpec};
use virtex::{BlockType, ConfigMemory, Device};

/// Devices the relocation campaign samples — the geometry extremes plus
/// two mid-range parts.
pub const RELOC_DEVICES: [Device; 4] = [
    Device::XCV50,
    Device::XCV100,
    Device::XCV300,
    Device::XCV1000,
];

/// Summary of one passed case, for campaign statistics.
#[derive(Debug, Clone, Copy)]
pub struct RelocOutcome {
    /// Frames the stamped partial carried.
    pub frames: usize,
    /// Whether the case moved BRAM majors rather than CLB columns.
    pub bram: bool,
}

/// Deterministic pattern word for relative position `(rel, minor, k)`
/// under `pat` — the same function stamps source and target so a shifted
/// copy is frame-for-frame identical (splitmix64 finalizer; the low bit
/// is forced so every stamped word, hence every frame, is dirty).
fn pat_word(pat: u64, rel: usize, minor: usize, k: usize) -> u32 {
    let mut x = pat ^ ((rel as u64) << 42) ^ ((minor as u64) << 21) ^ k as u64;
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) as u32 | 1
}

/// Stamp the pattern into `cols` (CLB-array columns, addressed relative)
/// and return the memory plus its gap-0 partial.
fn stamp_clb(device: Device, cols: &[usize], pat: u64) -> (ConfigMemory, Bitstream) {
    let mut mem = ConfigMemory::new(device);
    let geom = mem.geometry().clone();
    for (rel, &c) in cols.iter().enumerate() {
        let major = geom.major_for_clb_col(c).expect("column in array");
        let r = FrameRange::for_column(&geom, BlockType::Clb, major).expect("CLB column frames");
        for (minor, f) in r.frames().enumerate() {
            for k in 0..mem.frame_words() {
                mem.frame_mut(f)[k] = pat_word(pat, rel, minor, k);
            }
        }
    }
    let runs = bitgen::coalesce_frames(mem.dirty_frames());
    let bits = bitgen::partial_bitstream(&mem, &runs);
    (mem, bits)
}

/// Stamp the pattern into one BRAM major (interconnect + content
/// columns) and return the memory plus its gap-0 partial.
fn stamp_bram(device: Device, major: u8, pat: u64) -> (ConfigMemory, Bitstream) {
    let mut mem = ConfigMemory::new(device);
    let geom = mem.geometry().clone();
    for (rel, block) in [BlockType::BramInterconnect, BlockType::BramContent]
        .into_iter()
        .enumerate()
    {
        let r = FrameRange::for_column(&geom, block, major).expect("BRAM column frames");
        for (minor, f) in r.frames().enumerate() {
            for k in 0..mem.frame_words() {
                mem.frame_mut(f)[k] = pat_word(pat, rel, minor, k);
            }
        }
    }
    let runs = bitgen::coalesce_frames(mem.dirty_frames());
    let bits = bitgen::partial_bitstream(&mem, &runs);
    (mem, bits)
}

/// Run the trio for one stamped source against its fresh-at-target
/// oracle.
fn check_trio(
    seed: u64,
    device: Device,
    src: &Bitstream,
    spec: RelocSpec,
    oracle_mem: &ConfigMemory,
    oracle_bits: &Bitstream,
) -> Result<(), String> {
    let moved = relocate(device, src, spec)
        .map_err(|e| format!("seed {seed} ({device:?}, {spec:?}): relocate failed: {e}"))?;
    if moved.to_bytes() != oracle_bits.to_bytes() {
        return Err(format!(
            "seed {seed} ({device:?}, {spec:?}): relocated stream is not byte-identical \
             to the fresh-at-target partial"
        ));
    }
    let mut dev = Interpreter::new(device);
    dev.feed(&moved)
        .map_err(|e| format!("seed {seed} ({device:?}, {spec:?}): interpreter rejected: {e}"))?;
    if dev.memory() != oracle_mem {
        return Err(format!(
            "seed {seed} ({device:?}, {spec:?}): device-side readback diverges from oracle"
        ));
    }
    Ok(())
}

/// One seeded relocation case.
pub fn reloc_case(seed: u64) -> Result<RelocOutcome, String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E10_CA7E_0FA2_15E7);
    let device = RELOC_DEVICES[rng.gen_range(0..RELOC_DEVICES.len())];
    let pat = rng.gen_range(0..u64::MAX);

    if seed % 5 == 4 {
        // BRAM case: the two block majors swap places.
        let src_major = rng.gen_range(0..2u8);
        let dst_major = 1 - src_major;
        let spec = RelocSpec {
            clb_delta: 0,
            bram_delta: dst_major as i32 - src_major as i32,
        };
        let (_, src) = stamp_bram(device, src_major, pat);
        let (oracle_mem, oracle_bits) = stamp_bram(device, dst_major, pat);
        check_trio(seed, device, &src, spec, &oracle_mem, &oracle_bits)?;
        // Rejection: past the last BRAM major.
        let off = RelocSpec {
            clb_delta: 0,
            bram_delta: 2,
        };
        match relocate(device, &src, off) {
            Err(RelocError::OutOfDevice { .. }) => {}
            other => {
                return Err(format!(
                    "seed {seed} ({device:?}): BRAM shift off-device yielded {other:?}, \
                     expected OutOfDevice"
                ))
            }
        }
        let frames = oracle_mem.dirty_frames().len();
        return Ok(RelocOutcome { frames, bram: true });
    }

    // CLB case: a contiguous span moved to a random in-range start.
    let clb_cols = device.geometry().clb_cols;
    let width = rng.gen_range(1..=4.min(clb_cols));
    let start = rng.gen_range(0..=clb_cols - width);
    let target = rng.gen_range(0..=clb_cols - width);
    let delta = target as i32 - start as i32;
    let cols: Vec<usize> = (start..start + width).collect();
    let shifted: Vec<usize> = (target..target + width).collect();
    let (_, src) = stamp_clb(device, &cols, pat);
    let (oracle_mem, oracle_bits) = stamp_clb(device, &shifted, pat);
    check_trio(
        seed,
        device,
        &src,
        RelocSpec::columns(delta),
        &oracle_mem,
        &oracle_bits,
    )?;

    // Rejection: a full-array shift is off-device for any span.
    match relocate(device, &src, RelocSpec::columns(clb_cols as i32)) {
        Err(RelocError::OutOfDevice { .. }) => {}
        other => {
            return Err(format!(
                "seed {seed} ({device:?}): off-device shift yielded {other:?}, \
                 expected OutOfDevice"
            ))
        }
    }

    // Sampled fixed-column rejection: a clock-frame partial must refuse
    // any nonzero CLB delta.
    if rng.gen_bool(0.25) {
        let mut mem = ConfigMemory::new(device);
        mem.frame_mut(0)[0] = pat_word(pat, 0, 0, 0);
        let runs = bitgen::coalesce_frames(mem.dirty_frames());
        let clocked = bitgen::partial_bitstream(&mem, &runs);
        match relocate(device, &clocked, RelocSpec::columns(1)) {
            Err(RelocError::FixedColumn { .. }) => {}
            other => {
                return Err(format!(
                    "seed {seed} ({device:?}): clock-column shift yielded {other:?}, \
                     expected FixedColumn"
                ))
            }
        }
    }

    let frames = oracle_mem.dirty_frames().len();
    Ok(RelocOutcome {
        frames,
        bram: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fifth_seed_is_a_bram_case() {
        let o = reloc_case(4).unwrap();
        assert!(o.bram);
        assert!(o.frames > 0);
    }
}
