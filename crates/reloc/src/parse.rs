//! Strict parser for JPG partial bitstreams.
//!
//! Relocation must not guess: before any `FAR` is rewritten, the input
//! is parsed against the exact wire shape every generator in this
//! workspace emits (`bitstream::partial_bitstream` and the relocation
//! engine's spliced sections produce the same shape):
//!
//! ```text
//! DUMMY SYNC
//! CMD←RCRC  IDCODE←id  FLR←frame_words
//! ( FAR←far  CMD←WCFG  FDRI←frames+pad )*
//! CRC←check  CMD←LFRM  CMD←START  CMD←DESYNCH
//! ```
//!
//! Anything else — truncation, a stray packet, a non-zero pad frame, a
//! CRC word that does not match the stream's own contents — is a typed
//! [`RelocError`], so a corrupt or foreign stream is rejected before it
//! can be relocated into nonsense.

use crate::RelocError;
use bitstream::crc::Crc16;
use bitstream::packet::{Op, Packet, DUMMY_WORD, SYNC_WORD};
use bitstream::regs::{Command, Register};
use bitstream::Bitstream;
use virtex::{ConfigGeometry, Device, FrameAddress};

/// One `FDRI` run of a parsed partial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedRun {
    /// Linear frame index of the run's first frame.
    pub start: usize,
    /// Frame payload words, trailing pipeline pad frame stripped
    /// (`frame_count * frame_words` words).
    pub frames: Vec<u32>,
}

impl ParsedRun {
    /// Number of real (non-pad) frames in the run.
    pub fn frame_count(&self, frame_words: usize) -> usize {
        self.frames.len() / frame_words
    }
}

/// A partial bitstream decomposed back into its runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedPartial {
    /// Device IDCODE the stream names.
    pub idcode: u32,
    /// Frame length in words (the `FLR` write).
    pub flr: usize,
    /// The `FDRI` runs in stream order.
    pub runs: Vec<ParsedRun>,
}

impl ParsedPartial {
    /// Total real frames across all runs.
    pub fn total_frames(&self) -> usize {
        self.runs.iter().map(|r| r.frames.len() / self.flr).sum()
    }
}

struct Cursor<'a> {
    words: &'a [u32],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn next(&mut self) -> Result<u32, RelocError> {
        let w = *self
            .words
            .get(self.at)
            .ok_or(RelocError::Truncated { at: self.at })?;
        self.at += 1;
        Ok(w)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u32], RelocError> {
        if self.at + n > self.words.len() {
            return Err(RelocError::Truncated {
                at: self.words.len(),
            });
        }
        let s = &self.words[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn packet(&mut self) -> Result<Packet, RelocError> {
        let at = self.at;
        let w = self.next()?;
        Packet::decode(w).map_err(|err| RelocError::BadPacket { at, err })
    }
}

/// Expect a one-word type-1 write to `reg`; return its payload word.
fn expect_write1(c: &mut Cursor<'_>, reg: Register, what: &'static str) -> Result<u32, RelocError> {
    let at = c.at;
    match c.packet()? {
        Packet::Type1 {
            op: Op::Write,
            reg: r,
            count: 1,
        } if r == reg => c.next(),
        _ => Err(RelocError::Unexpected { at, expected: what }),
    }
}

fn expect_command(c: &mut Cursor<'_>, cmd: Command, what: &'static str) -> Result<(), RelocError> {
    let at = c.at;
    let w = expect_write1(c, Register::Cmd, what)?;
    if w == cmd.code() {
        Ok(())
    } else {
        Err(RelocError::Unexpected { at, expected: what })
    }
}

/// Parse `partial` strictly against the JPG partial wire shape for
/// `device`, validating IDCODE, FLR, every FAR, payload framing, pad
/// frames and the stream's own CRC check word.
pub fn parse_partial(
    device: Device,
    geom: &ConfigGeometry,
    partial: &Bitstream,
) -> Result<ParsedPartial, RelocError> {
    let mut c = Cursor {
        words: partial.words(),
        at: 0,
    };
    if c.next()? != DUMMY_WORD || c.next()? != SYNC_WORD {
        return Err(RelocError::BadPreamble);
    }
    expect_command(&mut c, Command::Rcrc, "CMD RCRC")?;
    // The running CRC restarts after RCRC and covers everything written
    // to covered registers from here on — the IDCODE and FLR writes
    // included; packet headers and the CRC check write itself are not.
    let mut crc = Crc16::new();
    let idcode = expect_write1(&mut c, Register::Idcode, "IDCODE write")?;
    crc.update(Register::Idcode, idcode);
    if idcode != device.idcode() {
        return Err(RelocError::IdcodeMismatch {
            expected: device.idcode(),
            found: idcode,
        });
    }
    // FLR payload word sits one past its packet header.
    let flr_at = c.at + 1;
    let flr_word = expect_write1(&mut c, Register::Flr, "FLR write")?;
    crc.update(Register::Flr, flr_word);
    // Cross-check against the device geometry *before* the word is used
    // to frame anything: a corrupt FLR mis-frames every run downstream.
    if flr_word as u64 != geom.frame_words() as u64 {
        return Err(RelocError::FlrMismatch {
            at: flr_at,
            expected: geom.frame_words(),
            found: flr_word,
        });
    }
    let flr = geom.frame_words();

    let mut runs = Vec::new();
    loop {
        let at = c.at;
        match c.packet()? {
            Packet::Type1 {
                op: Op::Write,
                reg: Register::Far,
                count: 1,
            } => {
                let far_at = c.at;
                let far_word = c.next()?;
                crc.update(Register::Far, far_word);
                let far = FrameAddress::from_word(far_word).ok_or(RelocError::BadFar {
                    at: far_at,
                    far: far_word,
                })?;
                let start = geom.frame_index(far).ok_or(RelocError::BadFar {
                    at: far_at,
                    far: far_word,
                })?;
                expect_command(&mut c, Command::Wcfg, "CMD WCFG")?;
                crc.update(Register::Cmd, Command::Wcfg.code());

                // FDRI write: type-1, or the zero-count type-1 + type-2
                // idiom for large payloads.
                let hdr_at = c.at;
                let count = match c.packet()? {
                    Packet::Type1 {
                        op: Op::Write,
                        reg: Register::Fdri,
                        count,
                    } => {
                        if count == 0 {
                            match c.packet()? {
                                Packet::Type2 {
                                    op: Op::Write,
                                    count,
                                } => count,
                                _ => {
                                    return Err(RelocError::Unexpected {
                                        at: hdr_at,
                                        expected: "type-2 FDRI continuation",
                                    })
                                }
                            }
                        } else {
                            count
                        }
                    }
                    _ => {
                        return Err(RelocError::Unexpected {
                            at: hdr_at,
                            expected: "FDRI write",
                        })
                    }
                };
                let payload_at = c.at;
                let payload = c.take(count)?;
                crc.update_slice(Register::Fdri, payload);
                // Whole frames, and at least one real frame + the pad.
                if count % flr != 0 || count < 2 * flr {
                    return Err(RelocError::BadPayload {
                        at: payload_at,
                        words: count,
                    });
                }
                let (frames, pad) = payload.split_at(count - flr);
                if pad.iter().any(|&w| w != 0) {
                    return Err(RelocError::BadPad { run_start: start });
                }
                runs.push(ParsedRun {
                    start,
                    frames: frames.to_vec(),
                });
            }
            Packet::Type1 {
                op: Op::Write,
                reg: Register::Crc,
                count: 1,
            } => {
                let found = (c.next()? & 0xFFFF) as u16;
                if found != crc.value() {
                    return Err(RelocError::CrcMismatch {
                        expected: crc.value(),
                        found,
                    });
                }
                expect_command(&mut c, Command::Lfrm, "CMD LFRM")?;
                expect_command(&mut c, Command::Start, "CMD START")?;
                expect_command(&mut c, Command::Desynch, "CMD DESYNCH")?;
                if c.at != c.words.len() {
                    return Err(RelocError::Unexpected {
                        at: c.at,
                        expected: "end of stream after DESYNCH",
                    });
                }
                return Ok(ParsedPartial { idcode, flr, runs });
            }
            _ => {
                return Err(RelocError::Unexpected {
                    at,
                    expected: "FAR seek or CRC check",
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::bitgen::{self, FrameRange};
    use virtex::ConfigMemory;

    fn sample(device: Device) -> (ConfigMemory, Bitstream, Vec<FrameRange>) {
        let mut mem = ConfigMemory::new(device);
        let geom = mem.geometry().clone();
        let major = geom.major_for_clb_col(3).unwrap();
        let r = FrameRange::for_column(&geom, virtex::BlockType::Clb, major).unwrap();
        for f in r.frames() {
            mem.frame_mut(f)[0] = 0xAB00_0000 | f as u32;
        }
        let ranges = [r, FrameRange::new(0, 2)];
        let ranges = {
            let frames: Vec<usize> = ranges.iter().flat_map(|r| r.frames()).collect();
            bitgen::coalesce_frames(frames)
        };
        let bits = bitgen::partial_bitstream(&mem, &ranges);
        (mem, bits, ranges)
    }

    #[test]
    fn parses_generated_partial_exactly() {
        let device = Device::XCV50;
        let (mem, bits, ranges) = sample(device);
        let p = parse_partial(device, mem.geometry(), &bits).unwrap();
        assert_eq!(p.idcode, device.idcode());
        assert_eq!(p.flr, mem.geometry().frame_words());
        assert_eq!(p.runs.len(), ranges.len());
        for (run, r) in p.runs.iter().zip(&ranges) {
            assert_eq!(run.start, r.start);
            assert_eq!(run.frames.len(), r.len * p.flr);
            assert_eq!(run.frames.as_slice(), mem.frame_span(r.start, r.len));
        }
    }

    #[test]
    fn truncation_and_corruption_are_typed() {
        let device = Device::XCV50;
        let (mem, bits, _) = sample(device);
        let geom = mem.geometry();

        let mut words = bits.words().to_vec();
        words.truncate(words.len() / 2);
        let err = parse_partial(device, geom, &Bitstream::from_words(words)).unwrap_err();
        assert!(
            matches!(
                err,
                RelocError::Truncated { .. } | RelocError::Unexpected { .. }
            ),
            "{err}"
        );

        // Flip one payload bit: the stream's own CRC check must fail.
        let mut words = bits.words().to_vec();
        let n = words.len();
        words[n / 2] ^= 1;
        let err = parse_partial(device, geom, &Bitstream::from_words(words)).unwrap_err();
        assert!(matches!(err, RelocError::CrcMismatch { .. }), "{err}");

        // Wrong device: IDCODE mismatch.
        let other = Device::XCV100;
        let err = parse_partial(other, &other.config_geometry(), &bits).unwrap_err();
        assert!(matches!(err, RelocError::IdcodeMismatch { .. }), "{err}");

        // No preamble.
        let err = parse_partial(device, geom, &Bitstream::from_words(vec![0, 0])).unwrap_err();
        assert_eq!(err, RelocError::BadPreamble);
    }

    #[test]
    fn corrupt_flr_is_rejected_before_framing_with_offset() {
        // Stream layout: DUMMY SYNC, CMD hdr+RCRC, IDCODE hdr+payload,
        // FLR hdr+payload — the FLR payload word is word 7.
        let device = Device::XCV50;
        let (mem, bits, _) = sample(device);
        let geom = mem.geometry();
        for bogus in [0u32, 1, geom.frame_words() as u32 + 1, 0x7FFF_FFFF] {
            let mut words = bits.words().to_vec();
            words[7] = bogus;
            let err = parse_partial(device, geom, &Bitstream::from_words(words)).unwrap_err();
            assert_eq!(
                err,
                RelocError::FlrMismatch {
                    at: 7,
                    expected: geom.frame_words(),
                    found: bogus,
                },
                "FLR {bogus:#x}"
            );
        }
    }

    #[test]
    fn full_bitstream_is_rejected() {
        // A complete bitstream has COR/MASK/CTL writes a partial never
        // carries; the strict parser refuses it.
        let mem = ConfigMemory::new(Device::XCV50);
        let full = bitgen::full_bitstream(&mem);
        let err = parse_partial(Device::XCV50, mem.geometry(), &full).unwrap_err();
        assert!(matches!(err, RelocError::Unexpected { .. }), "{err}");
    }
}
