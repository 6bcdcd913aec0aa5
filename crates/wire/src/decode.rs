//! Streaming container decoder — the device-side half of the wire
//! format.
//!
//! [`StreamingDecoder`] yields decoded word chunks section by section
//! from one reused buffer whose size is bounded by
//! [`SECTION_MAX_WORDS`], regardless of how large the partial is: the
//! whole decoded stream is never materialized. [`apply_streaming`]
//! drives an [`Interpreter`] directly from a container, feeding each
//! section's words on as soon as they form whole packets and using the
//! interpreter's *own* configuration memory as the delta base — which
//! is exactly the content an incremental partial's contract guarantees.
//!
//! Every structural failure is a typed [`WireError`] carrying a byte
//! offset into the container. For Huffman-coded sections the RLE token
//! offsets refer to the section's payload start (token positions
//! inside entropy-coded data have no container byte of their own).

use crate::{
    fnv1a_bytes, fnv1a_words, huff, rle, FrameSource, Mode, WireError, HEADER_BYTES, MAGIC,
    SECTION_HEADER_BYTES, SECTION_MAX_WORDS,
};
use bitstream::interp::Interpreter;
use bitstream::{ConfigError, Packet, SYNC_WORD};
use std::fmt;

/// Big-endian u32 at byte offset `at` (caller guarantees bounds).
pub(crate) fn be32(bytes: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Check a container header `header_bytes` long: present, opening
/// with `magic` and closing with the FNV-1a checksum of the bytes
/// before it.
pub(crate) fn check_header(
    bytes: &[u8],
    magic: [u8; 4],
    header_bytes: usize,
) -> Result<(), WireError> {
    if bytes.len() < header_bytes {
        return Err(WireError::Truncated { at: bytes.len() });
    }
    let found = [bytes[0], bytes[1], bytes[2], bytes[3]];
    if found != magic {
        return Err(WireError::BadMagic { found });
    }
    let expected = fnv1a_bytes(&bytes[..header_bytes - 4]);
    let found = be32(bytes, header_bytes - 4);
    if expected != found {
        return Err(WireError::HeaderChecksum { expected, found });
    }
    Ok(())
}

/// What [`decode_section`] read from a section header.
pub(crate) struct Section {
    /// How the payload was coded.
    pub(crate) mode: Mode,
    /// Checksum over the decoded words (the header's last word).
    pub(crate) checksum: u32,
    /// Offset of the next section header (the payload padded to a word).
    pub(crate) next: usize,
}

/// Read the `header_bytes`-long header of section `section` at `hdr` and
/// decode its payload, appending the decoded words to `out` — the one
/// section decoder of both containers. A header opens with the
/// mode/span word and the payload byte length and closes with the
/// decoded-words checksum. Delta modes are a [`WireError::BadMode`]
/// unless `delta_ok`; they decode like their plain forms and leave the
/// base XOR to the caller. Raw payloads must hold exactly the words the
/// span promises; Huffman payloads decode to RLE tokens in `scratch`
/// and must be used up.
pub(crate) fn decode_section(
    bytes: &[u8],
    hdr: usize,
    header_bytes: usize,
    section: usize,
    delta_ok: bool,
    scratch: &mut Vec<u8>,
    out: &mut Vec<u32>,
) -> Result<Section, WireError> {
    if hdr + header_bytes > bytes.len() {
        return Err(WireError::Truncated { at: bytes.len() });
    }
    let w0 = be32(bytes, hdr);
    let mode_byte = (w0 >> 24) as u8;
    let words = (w0 & 0x00FF_FFFF) as usize;
    let mode = match Mode::from_u8(mode_byte) {
        Some(mode) if delta_ok || !mode.needs_base() => mode,
        _ => {
            return Err(WireError::BadMode {
                section,
                mode: mode_byte,
            })
        }
    };
    if words == 0 || words > SECTION_MAX_WORDS {
        return Err(WireError::BadSectionSpan { section, words });
    }
    let encoded_len = be32(bytes, hdr + 4) as usize;
    let payload_at = hdr + header_bytes;
    let payload_end = payload_at + encoded_len;
    let next = payload_at + encoded_len.next_multiple_of(4);
    if payload_end > bytes.len() || next > bytes.len() {
        return Err(WireError::Truncated { at: bytes.len() });
    }
    let payload = &bytes[payload_at..payload_end];
    match mode {
        Mode::Raw => {
            let have = encoded_len / 4;
            if have < words {
                return Err(WireError::SectionUnderflow {
                    section,
                    words: have,
                });
            }
            if have > words {
                return Err(WireError::SectionOverflow { section });
            }
            out.extend(payload.chunks_exact(4).map(|w| be32(w, 0)));
        }
        Mode::Rle | Mode::DeltaRle => rle::decode_into(payload, payload_at, section, words, out)?,
        Mode::HuffRle | Mode::HuffDeltaRle => {
            scratch.clear();
            let used = huff::decode(payload, payload_at, scratch)?;
            if used != payload.len() {
                return Err(WireError::TrailingBytes {
                    at: payload_at + used,
                });
            }
            rle::decode_into(scratch, payload_at, section, words, out)?;
        }
    }
    Ok(Section {
        mode,
        checksum: be32(bytes, hdr + header_bytes - 4),
        next,
    })
}

/// Incremental reader over a `JWC1` container.
pub struct StreamingDecoder<'a> {
    bytes: &'a [u8],
    idcode: u32,
    flr: usize,
    total_words: usize,
    section_count: usize,
    /// Byte offset of the next section header.
    pos: usize,
    /// Index of the next section.
    section: usize,
    /// Words decoded so far across all sections.
    words_out: usize,
    /// Reused decoded-words buffer (the bounded device-side buffer).
    buf: Vec<u32>,
    /// Reused Huffman-to-RLE scratch.
    scratch: Vec<u8>,
}

impl<'a> StreamingDecoder<'a> {
    /// Validate the container header and position at the first section.
    pub fn new(bytes: &'a [u8]) -> Result<Self, WireError> {
        check_header(bytes, MAGIC, HEADER_BYTES)?;
        Ok(StreamingDecoder {
            bytes,
            idcode: be32(bytes, 4),
            flr: be32(bytes, 8) as usize,
            total_words: be32(bytes, 12) as usize,
            section_count: be32(bytes, 16) as usize,
            pos: HEADER_BYTES,
            section: 0,
            words_out: 0,
            buf: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// The device IDCODE the container names.
    pub fn idcode(&self) -> u32 {
        self.idcode
    }

    /// Frame length in words the container was encoded for.
    pub fn frame_words(&self) -> usize {
        self.flr
    }

    /// Total decoded words the container promises.
    pub fn total_words(&self) -> usize {
        self.total_words
    }

    /// Sections remaining.
    pub fn sections_remaining(&self) -> usize {
        self.section_count - self.section
    }

    /// Decode the next section, returning its words (borrowed from the
    /// reused internal buffer), or `None` once every section has been
    /// verified and end-of-container checks pass.
    ///
    /// `base` supplies frame content for delta sections; the device
    /// side passes its own configuration memory. Containers with no
    /// delta sections decode with `None`.
    pub fn next_chunk(
        &mut self,
        base: Option<&dyn FrameSource>,
    ) -> Result<Option<&[u32]>, WireError> {
        if self.section == self.section_count {
            if self.pos != self.bytes.len() {
                return Err(WireError::TrailingBytes { at: self.pos });
            }
            if self.words_out != self.total_words {
                return Err(WireError::WordCountMismatch {
                    expected: self.total_words,
                    found: self.words_out,
                });
            }
            return Ok(None);
        }
        let (section, hdr) = (self.section, self.pos);
        self.buf.clear();
        let Section {
            mode,
            checksum,
            next,
        } = decode_section(
            self.bytes,
            hdr,
            SECTION_HEADER_BYTES,
            section,
            true,
            &mut self.scratch,
            &mut self.buf,
        )?;
        let start_frame = be32(self.bytes, hdr + 8) as usize;
        let delta_words = be32(self.bytes, hdr + 12) as usize;

        if mode.needs_base() {
            if delta_words > self.buf.len()
                || self.flr == 0
                || !delta_words.is_multiple_of(self.flr)
            {
                return Err(WireError::BadSectionSpan {
                    section,
                    words: delta_words,
                });
            }
            let src = base.ok_or(WireError::MissingBase {
                section,
                frame: start_frame,
            })?;
            if src.frame_words() != self.flr {
                return Err(WireError::MissingBase {
                    section,
                    frame: start_frame,
                });
            }
            for k in 0..delta_words / self.flr {
                let frame = start_frame + k;
                let bf = src
                    .frame(frame)
                    .ok_or(WireError::MissingBase { section, frame })?;
                for (w, &b) in self.buf[k * self.flr..(k + 1) * self.flr]
                    .iter_mut()
                    .zip(bf)
                {
                    *w ^= b;
                }
            }
        }

        let found = fnv1a_words(&self.buf);
        if found != checksum {
            return Err(WireError::SectionChecksum {
                section,
                expected: checksum,
                found,
            });
        }
        self.section += 1;
        self.pos = next;
        self.words_out += self.buf.len();
        Ok(Some(&self.buf))
    }
}

/// Decode a whole container to its original words.
///
/// This materializes the full stream and exists for tools and tests;
/// device-side paths should use [`apply_streaming`] or drive
/// [`StreamingDecoder`] directly.
pub fn decode_full(bytes: &[u8], base: Option<&dyn FrameSource>) -> Result<Vec<u32>, WireError> {
    let mut dec = StreamingDecoder::new(bytes)?;
    // The header's word count is unchecked input: reserve no more than
    // one section ahead of what the sections actually carry.
    let mut out = Vec::with_capacity(dec.total_words().min(SECTION_MAX_WORDS));
    while let Some(chunk) = dec.next_chunk(base)? {
        out.extend_from_slice(chunk);
    }
    Ok(out)
}

/// What one streaming application did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ApplyStats {
    /// Container bytes consumed (what crossed the wire).
    pub bytes_on_wire: usize,
    /// Decoded words fed to the interpreter.
    pub words_applied: usize,
    /// Sections decoded.
    pub sections: usize,
    /// High-water mark of the carry buffer in words — bounded by one
    /// section plus the largest packet straddling a section boundary.
    pub peak_buffer_words: usize,
}

/// A streaming application failure: either the container was bad, or
/// the decoded stream was rejected by the configuration logic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// Container-level failure (checksum, truncation, bad mode...).
    Wire(WireError),
    /// The decoded words failed device-side configuration checks.
    Config(ConfigError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Wire(e) => write!(f, "wire: {e}"),
            ApplyError::Config(e) => write!(f, "config: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<WireError> for ApplyError {
    fn from(e: WireError) -> Self {
        ApplyError::Wire(e)
    }
}

impl From<ConfigError> for ApplyError {
    fn from(e: ConfigError) -> Self {
        ApplyError::Config(e)
    }
}

/// Apply a container to `interp` as it decodes, never materializing
/// the whole stream.
///
/// Each decoded section is appended to a small carry buffer; the
/// longest whole-packet prefix is fed to the interpreter immediately
/// and the remainder carried into the next section. Delta sections
/// XOR against the interpreter's own current memory — valid precisely
/// because delta is only emitted for incremental partials, whose
/// contract guarantees those frames still hold base content.
pub fn apply_streaming(interp: &mut Interpreter, bytes: &[u8]) -> Result<ApplyStats, ApplyError> {
    let _g = obs::span!("wire_apply");
    let mut dec = StreamingDecoder::new(bytes)?;
    let mut stats = ApplyStats {
        bytes_on_wire: bytes.len(),
        ..ApplyStats::default()
    };
    let mut pending: Vec<u32> = Vec::new();
    let mut synced = false;
    loop {
        // The chunk is copied out of the decoder so the interpreter can
        // be borrowed mutably while feeding; both buffers stay bounded
        // by the section span.
        let done = {
            match dec.next_chunk(Some(interp.memory()))? {
                Some(chunk) => {
                    pending.extend_from_slice(chunk);
                    false
                }
                None => true,
            }
        };
        stats.peak_buffer_words = stats.peak_buffer_words.max(pending.len());
        let fed = feed_whole_packets(interp, &mut pending, &mut synced)?;
        stats.words_applied += fed;
        if done {
            break;
        }
        stats.sections += 1;
    }
    if !pending.is_empty() {
        // A stream that ends mid-packet was truncated before encoding;
        // hand the tail to the interpreter so it reports the precise
        // configuration error rather than dropping words silently.
        stats.words_applied += pending.len();
        interp.feed_words(&pending)?;
    }
    obs::counter!("wire_applies_total").inc();
    obs::counter!("wire_bytes_applied_total").add(stats.words_applied as u64 * 4);
    obs::counter!("wire_apply_bytes_on_wire_total").add(stats.bytes_on_wire as u64);
    Ok(stats)
}

/// Feed the longest prefix of `pending` that ends on a packet boundary,
/// draining what was fed. Pre-sync words (dummies, the sync word) are
/// individually feedable.
fn feed_whole_packets(
    interp: &mut Interpreter,
    pending: &mut Vec<u32>,
    synced: &mut bool,
) -> Result<usize, ConfigError> {
    let mut end = 0usize;
    let mut synced_at_end = *synced;
    let mut i = 0usize;
    while i < pending.len() {
        if !synced_at_end {
            if pending[i] == SYNC_WORD {
                synced_at_end = true;
            }
            i += 1;
            end = i;
            continue;
        }
        let count = match Packet::decode(pending[i]) {
            Ok(p) => p.count(),
            // Not a decodable header: let the interpreter see it and
            // produce its own diagnostic.
            Err(_) => 0,
        };
        if i + 1 + count > pending.len() {
            break;
        }
        i += 1 + count;
        end = i;
    }
    if end == 0 {
        return Ok(0);
    }
    interp.feed_words(&pending[..end])?;
    *synced = synced_at_end;
    pending.drain(..end);
    Ok(end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode;
    use virtex::Device;

    fn stamped_memory(device: Device) -> virtex::ConfigMemory {
        let mut mem = virtex::ConfigMemory::new(device);
        for (k, frame) in [3usize, 4, 5, 40, 41].into_iter().enumerate() {
            for bit in 0..20 {
                mem.set_bit(frame, bit * 7 + k, true);
            }
        }
        mem
    }

    #[test]
    fn full_bitstream_round_trips_via_streaming_apply() {
        let device = Device::XCV50;
        let mem = stamped_memory(device);
        let full = bitstream::bitgen::full_bitstream(&mem);
        let enc = encode(device, &full, None);
        assert_eq!(decode_full(&enc.bytes, None).unwrap(), full.words());

        let mut interp = Interpreter::new(device);
        let stats = apply_streaming(&mut interp, &enc.bytes).unwrap();
        assert_eq!(interp.memory().as_words(), mem.as_words());
        assert_eq!(stats.words_applied, full.words().len());
        assert!(stats.peak_buffer_words > 0);
        assert!(
            stats.peak_buffer_words <= 2 * SECTION_MAX_WORDS + mem.frame_words(),
            "carry buffer must stay bounded, saw {}",
            stats.peak_buffer_words
        );
    }

    #[test]
    fn delta_sections_round_trip_against_resident_base_content() {
        let device = Device::XCV50;
        // A busy base: every frame in the region holds content, so the
        // delta against base is much sparser than the frames themselves.
        let mut base = virtex::ConfigMemory::new(device);
        for frame in 30..40 {
            for bit in 0..60 {
                base.set_bit(frame, bit * 5, true);
            }
        }
        // The variant flips a handful of bits on top of base.
        let mut variant = base.clone();
        variant.set_bit(33, 17, true);
        variant.set_bit(36, 4, true);
        let partial = bitstream::partial_bitstream(&variant, &[bitstream::FrameRange::new(30, 10)]);

        let enc = encode(device, &partial, Some(&base));
        let deltas = enc.stats.mode_counts[Mode::DeltaRle as usize]
            + enc.stats.mode_counts[Mode::HuffDeltaRle as usize];
        assert!(deltas > 0, "a near-base payload must pick a delta mode");

        // Decoding against the same base restores the exact words.
        assert_eq!(
            decode_full(&enc.bytes, Some(&base)).unwrap(),
            partial.words()
        );

        // A device holding base content applies it and lands on the
        // variant — the incremental contract in action.
        let mut interp = Interpreter::new(device);
        interp
            .feed(&bitstream::bitgen::full_bitstream(&base))
            .unwrap();
        apply_streaming(&mut interp, &enc.bytes).unwrap();
        assert_eq!(interp.memory().as_words(), variant.as_words());

        // A device whose region does NOT hold base content fails the
        // per-section checksum instead of silently mis-configuring.
        let mut cold = Interpreter::new(device);
        let err = apply_streaming(&mut cold, &enc.bytes).unwrap_err();
        assert!(
            matches!(err, ApplyError::Wire(WireError::SectionChecksum { .. })),
            "wrong-base decode must be caught, got {err}"
        );

        // And a decode with no base at all is a typed MissingBase.
        assert!(matches!(
            decode_full(&enc.bytes, None),
            Err(WireError::MissingBase { .. })
        ));
    }

    #[test]
    fn header_corruptions_are_typed() {
        let device = Device::XCV50;
        let mem = stamped_memory(device);
        let full = bitstream::bitgen::full_bitstream(&mem);
        let enc = encode(device, &full, None);

        assert_eq!(
            StreamingDecoder::new(&enc.bytes[..10]).err(),
            Some(WireError::Truncated { at: 10 })
        );

        let mut bad = enc.bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            StreamingDecoder::new(&bad).err(),
            Some(WireError::BadMagic {
                found: [b'X', b'W', b'C', b'1']
            })
        );

        let mut bad = enc.bytes.clone();
        bad[5] ^= 0x40; // idcode byte: header checksum no longer matches
        assert!(matches!(
            StreamingDecoder::new(&bad).err(),
            Some(WireError::HeaderChecksum { .. })
        ));
    }

    #[test]
    fn payload_corruption_fails_the_section_checksum() {
        let device = Device::XCV50;
        let mem = stamped_memory(device);
        let full = bitstream::bitgen::full_bitstream(&mem);
        let enc = encode(device, &full, None);
        let mut bad = enc.bytes.clone();
        let flip = HEADER_BYTES + SECTION_HEADER_BYTES + 2;
        bad[flip] ^= 0x10;
        let err = decode_full(&bad, None).unwrap_err();
        assert!(
            matches!(
                err,
                WireError::SectionChecksum { section: 0, .. }
                    | WireError::BadToken { .. }
                    | WireError::SectionOverflow { section: 0 }
                    | WireError::SectionUnderflow { section: 0, .. }
                    | WireError::BadHuffman { .. }
                    | WireError::Truncated { .. }
            ),
            "corruption must surface as a typed error, got {err}"
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let device = Device::XCV50;
        let mem = stamped_memory(device);
        let full = bitstream::bitgen::full_bitstream(&mem);
        let enc = encode(device, &full, None);
        let mut bad = enc.bytes.clone();
        bad.extend_from_slice(&[0, 0, 0, 0]);
        assert_eq!(
            decode_full(&bad, None),
            Err(WireError::TrailingBytes {
                at: enc.bytes.len()
            })
        );
    }
}
