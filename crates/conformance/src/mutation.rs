//! Seeded-mutation self-check: does the harness actually catch bugs?
//!
//! [`mutant_partial`] re-implements the serial partial generator with
//! ten injectable, historically plausible bugs. Each mutant is *honest*
//! about its CRC — the stream is self-consistent, so nothing falls out
//! for free — and the harness's oracle/readback/followup checks must
//! still catch it. [`self_check`] runs all ten; the unit test below
//! gates on at least nine detected.

use crate::harness::{check_stream, Failure};
use bitstream::crc::{Crc16, BITS_PER_UPDATE};
use bitstream::packet::TYPE1_MAX_COUNT;
use bitstream::{
    partial_bitstream, Bitstream, BitstreamWriter, Command, FrameRange, Packet, Register,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use virtex::{ConfigMemory, Device, FrameAddress};

/// A deliberately introduced generator bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// First range's FAR seeks one frame past the range start.
    OffByOneFarStart,
    /// First range's FAR encodes major and minor swapped.
    SwappedMajorMinor,
    /// The trailing DESYNCH command is dropped.
    SkippedDesynch,
    /// FDRI runs omit the pipeline pad frame.
    MissingPadFrame,
    /// The last dirty range is dropped, as a stale frame-hash cache
    /// claiming "unchanged" would.
    StaleCacheHash,
    /// A spliced section (the relocation engine's emission form) declares
    /// one word too many of CRC coverage.
    WrongCrcBits,
    /// No CRC check is ever written.
    SkippedCrcWrite,
    /// FLR declares one word more than the device frame length.
    WrongFlr,
    /// First range emits one frame fewer than it claims to cover.
    OffByOneRangeLen,
    /// IDCODE written with a flipped bit.
    WrongIdcode,
}

/// All ten seeded bugs.
pub const SEEDED_BUGS: [SeededBug; 10] = [
    SeededBug::OffByOneFarStart,
    SeededBug::SwappedMajorMinor,
    SeededBug::SkippedDesynch,
    SeededBug::MissingPadFrame,
    SeededBug::StaleCacheHash,
    SeededBug::WrongCrcBits,
    SeededBug::SkippedCrcWrite,
    SeededBug::WrongFlr,
    SeededBug::OffByOneRangeLen,
    SeededBug::WrongIdcode,
];

/// The serial partial generator with `bug` injected. Apart from the bug
/// the stream is exactly what [`partial_bitstream`] emits, running CRC
/// included.
pub fn mutant_partial(mem: &ConfigMemory, ranges: &[FrameRange], bug: SeededBug) -> Bitstream {
    let geom = mem.geometry();
    let fw = mem.frame_words();
    let mut w = BitstreamWriter::new();
    w.sync().command(Command::Rcrc).reset_crc();
    let mut idcode = mem.device().idcode();
    if bug == SeededBug::WrongIdcode {
        idcode ^= 1;
    }
    let mut flr = fw as u32;
    if bug == SeededBug::WrongFlr {
        flr += 1;
    }
    w.write_reg(Register::Idcode, &[idcode])
        .write_reg(Register::Flr, &[flr]);

    let emit: &[FrameRange] = if bug == SeededBug::StaleCacheHash {
        &ranges[..ranges.len() - 1]
    } else {
        ranges
    };
    for (k, range) in emit.iter().enumerate() {
        let mut start = range.start;
        if bug == SeededBug::OffByOneFarStart && k == 0 {
            start += 1;
        }
        let mut far = geom.frame_address(start).expect("frame index in range");
        if bug == SeededBug::SwappedMajorMinor && k == 0 {
            far = FrameAddress::new(far.block, far.minor, far.major);
        }

        let mut frames = range.frames();
        if bug == SeededBug::OffByOneRangeLen && k == 0 {
            frames.end -= 1;
        }
        let mut payload: Vec<u32> = Vec::with_capacity((range.len + 1) * fw);
        for f in frames {
            payload.extend_from_slice(mem.frame(f));
        }
        if bug != SeededBug::MissingPadFrame {
            payload.extend(std::iter::repeat_n(0, fw));
        }

        if bug == SeededBug::WrongCrcBits && k == 0 {
            // The splice path: append a pre-built section, declaring its
            // CRC span one covered word too long.
            let mut words = Vec::with_capacity(payload.len() + 6);
            let mut crc = Crc16::new();
            let far_w = far.to_word();
            words.push(Packet::write1(Register::Far, 1).encode());
            words.push(far_w);
            crc.update(Register::Far, far_w);
            let wcfg = Command::Wcfg.code();
            words.push(Packet::write1(Register::Cmd, 1).encode());
            words.push(wcfg);
            crc.update(Register::Cmd, wcfg);
            if payload.len() <= TYPE1_MAX_COUNT {
                words.push(Packet::write1(Register::Fdri, payload.len()).encode());
            } else {
                words.push(Packet::write1(Register::Fdri, 0).encode());
                words.push(Packet::write2(payload.len()).encode());
            }
            for &pw in &payload {
                crc.update(Register::Fdri, pw);
            }
            words.extend_from_slice(&payload);
            let crc_bits = (payload.len() + 3) * BITS_PER_UPDATE; // one word too many
            w.append_section(&words, crc.value(), crc_bits);
        } else {
            w.write_reg(Register::Far, &[far.to_word()])
                .command(Command::Wcfg)
                .write_reg_auto(Register::Fdri, &payload);
        }
    }
    if bug != SeededBug::SkippedCrcWrite {
        w.write_crc();
    }
    w.command(Command::Lfrm).command(Command::Start);
    if bug != SeededBug::SkippedDesynch {
        w.command(Command::Desynch);
    }
    w.finish()
}

/// Outcome of running all ten mutants through the harness checks.
#[derive(Debug, Clone)]
pub struct SelfCheckReport {
    /// Bugs the harness caught, with the failure that caught each.
    pub detected: Vec<(SeededBug, Failure)>,
    /// Bugs that slipped through.
    pub missed: Vec<SeededBug>,
}

/// Pick a range start whose FAR has distinct major/minor fields and
/// whose major/minor swap does not alias the same frame — otherwise the
/// `SwappedMajorMinor` mutant would equal the correct stream.
fn pick_start(rng: &mut StdRng, geom: &virtex::ConfigGeometry, lo: usize, hi: usize) -> usize {
    loop {
        let f = rng.gen_range(lo..hi);
        let far = geom.frame_address(f).expect("in range");
        if far.major == far.minor {
            continue;
        }
        let swapped = FrameAddress::new(far.block, far.minor, far.major);
        if geom.frame_index(swapped) != Some(f) {
            return f;
        }
    }
}

/// Build the mutation scenario and run every seeded bug through the
/// harness's stream checks. The unmutated stream is asserted to pass
/// first — a self-check that cannot tell good from bad proves nothing.
pub fn self_check(seed: u64) -> SelfCheckReport {
    let device = Device::XCV50;
    let base = ConfigMemory::new(device);
    let geom = base.geometry().clone();
    let mut rng = StdRng::seed_from_u64(seed);
    let f1 = pick_start(&mut rng, &geom, 10, 100);
    let f2 = pick_start(&mut rng, &geom, 200, 400);
    let ranges = vec![FrameRange::new(f1, 2), FrameRange::new(f2, 3)];

    // Every frame of every range really changes, so dropped or shifted
    // frames always show up in the oracle comparison.
    let mut variant = base.clone();
    for r in &ranges {
        for f in r.frames() {
            variant.set_bit(f, 3 + (f % 7), true);
        }
    }

    let good = partial_bitstream(&variant, &ranges);
    if let Err(f) = check_stream(seed, &base, &good, &ranges, &variant) {
        panic!("self-check scenario is broken: correct stream rejected: {f}");
    }

    let mut report = SelfCheckReport {
        detected: Vec::new(),
        missed: Vec::new(),
    };
    for bug in SEEDED_BUGS {
        let bits = mutant_partial(&variant, &ranges, bug);
        match check_stream(seed, &base, &bits, &ranges, &variant) {
            Err(f) => report.detected.push((bug, f)),
            Ok(()) => report.missed.push(bug),
        }
    }
    obs::counter!("conformance_mutations_detected_total").add(report.detected.len() as u64);
    obs::counter!("conformance_mutations_missed_total").add(report.missed.len() as u64);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_mutants_differ_from_the_correct_stream() {
        let mut rng = StdRng::seed_from_u64(1);
        let device = Device::XCV50;
        let base = ConfigMemory::new(device);
        let geom = base.geometry().clone();
        let f1 = pick_start(&mut rng, &geom, 10, 100);
        let ranges = vec![FrameRange::new(f1, 2), FrameRange::new(300, 2)];
        let mut variant = base.clone();
        for r in &ranges {
            for f in r.frames() {
                variant.set_bit(f, 5, true);
            }
        }
        let good = partial_bitstream(&variant, &ranges);
        for bug in SEEDED_BUGS {
            let bad = mutant_partial(&variant, &ranges, bug);
            assert_ne!(
                good.to_bytes(),
                bad.to_bytes(),
                "{bug:?} produced the correct stream"
            );
        }
    }

    #[test]
    fn self_check_detects_at_least_nine_of_ten() {
        let report = self_check(0xC0FFEE);
        assert!(
            report.detected.len() >= 9,
            "only {}/10 seeded bugs detected; missed: {:?}",
            report.detected.len(),
            report.missed
        );
    }
}
