//! Container encoder: split a partial bitstream into sections and pick
//! the cheapest payload mode for each.
//!
//! The encoder scans the partial's packet structure the same way the
//! device would, so it knows which word spans are FDRI frame payloads
//! (compressible, delta-eligible) and which are control words (headers,
//! FAR seeks, CRC, trailer — stored raw or lightly RLE'd). If the scan
//! hits anything unexpected, the whole stream falls back to opaque
//! sections without delta: the container always round-trips
//! byte-identically, compression is just weaker.
//!
//! Delta sections are only emitted when the caller supplies a base
//! [`FrameSource`] — the generator does this exclusively for
//! *incremental* partials, whose application contract guarantees the
//! device's resident frames equal the base content the encoder XORed
//! against. A run's trailing pad frame is never delta-coded
//! (`delta_words` stops short of it): the pad is discarded by the
//! interpreter, so the frame slot it addresses carries no base-content
//! guarantee.

use crate::{
    fnv1a_bytes, fnv1a_sections, huff, rle, FrameSource, Mode, WireStats, HEADER_BYTES, MAGIC,
    SECTION_MAX_WORDS,
};
use bitstream::packet::Op;
use bitstream::{Bitstream, Packet, Register, SYNC_WORD};
use virtex::{ConfigGeometry, Device, FrameAddress};

/// An encoded container plus what the encoder did to produce it.
#[derive(Debug, Clone)]
pub struct Encoded {
    /// The container bytes (header + sections).
    pub bytes: Vec<u8>,
    /// Size and per-mode accounting.
    pub stats: WireStats,
}

/// One contiguous word span of the input stream.
struct Span {
    /// Word range in the input.
    start: usize,
    len: usize,
    /// For FDRI payload spans: linear index of the first frame, and
    /// whether the span's final frame is the run's zero pad.
    frames: Option<(usize, bool)>,
}

/// Encode `partial` (a bitstream for `device`) into a `JWC1` container.
///
/// `base` enables frame-delta coding and must describe the content the
/// *device* will hold when the container is decoded — pass the base
/// epoch's configuration memory for incremental partials, `None` for
/// wholesale or full streams.
pub fn encode(device: Device, partial: &Bitstream, base: Option<&dyn FrameSource>) -> Encoded {
    let _g = obs::span!("wire_encode");
    let geom = ConfigGeometry::for_device(device);
    let words = partial.words();
    let flr = geom.frame_words();

    let spans = scan(&geom, words).unwrap_or_else(|| {
        vec![Span {
            start: 0,
            len: words.len(),
            frames: None,
        }]
    });

    let sections: Vec<(usize, usize, usize, usize)> =
        spans.iter().flat_map(|span| chunks(span, flr)).collect();
    let checksums = fnv1a_sections(
        &(sections.iter())
            .map(|&(start, len, _, _)| &words[start..start + len])
            .collect::<Vec<_>>(),
    );

    let mut stats = WireStats {
        decoded_bytes: words.len() * 4,
        ..WireStats::default()
    };
    let mut body = Vec::new();
    let mut picker = Picker::default();
    let mut delta_buf = Vec::new();
    for (&(chunk_start, chunk_len, start_frame, delta_words), checksum) in
        sections.iter().zip(checksums)
    {
        let chunk = &words[chunk_start..chunk_start + chunk_len];
        let deltaed = (delta_words > 0
            && delta_into(chunk, start_frame, delta_words, flr, base, &mut delta_buf))
        .then_some(&delta_buf[..]);
        let mode = picker.section(&mut body, chunk, deltaed, |mode, payload_len| {
            let delta_words = if mode.needs_base() { delta_words } else { 0 };
            [
                payload_len,
                start_frame as u32,
                delta_words as u32,
                checksum,
            ]
        });
        stats.mode_counts[mode as usize] += 1;
    }
    let sections = sections.len();

    let mut bytes = Vec::with_capacity(HEADER_BYTES + body.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&device.idcode().to_be_bytes());
    bytes.extend_from_slice(&(flr as u32).to_be_bytes());
    bytes.extend_from_slice(&(words.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&(sections as u32).to_be_bytes());
    let checksum = fnv1a_bytes(&bytes);
    bytes.extend_from_slice(&checksum.to_be_bytes());
    bytes.extend_from_slice(&body);

    stats.encoded_bytes = bytes.len();
    stats.sections = sections;
    obs::counter!("wire_encodes_total").inc();
    obs::counter!("wire_encode_sections_total").add(sections as u64);
    obs::counter!("wire_bytes_decoded_total").add(stats.decoded_bytes as u64);
    obs::counter!("wire_bytes_on_wire_total").add(stats.encoded_bytes as u64);
    Encoded { bytes, stats }
}

/// Split the stream into control and FDRI payload spans by walking its
/// packets. `None` means the stream does not look like a well-formed
/// write-only configuration stream — the caller falls back to opaque
/// encoding.
fn scan(geom: &ConfigGeometry, words: &[u32]) -> Option<Vec<Span>> {
    let sync = words.iter().position(|&w| w == SYNC_WORD)?;
    let mut spans = Vec::new();
    let mut control_start = 0usize;
    let mut i = sync + 1;
    let mut last_far: Option<usize> = None;
    let mut last_reg: Option<Register> = None;
    while i < words.len() {
        let header = Packet::decode(words[i]).ok()?;
        let (payload_at, count, is_fdri) = match header {
            Packet::Type1 { op, reg, count } => {
                if op == Op::Read {
                    // Partials on the wire are write-only; a read means
                    // this is not the stream shape we understand.
                    return None;
                }
                last_reg = Some(reg);
                if reg == Register::Far && count == 1 && op == Op::Write {
                    let far_word = *words.get(i + 1)?;
                    let far = FrameAddress::from_word(far_word)?;
                    last_far = Some(geom.frame_index(far)?);
                }
                (i + 1, count, reg == Register::Fdri && op == Op::Write)
            }
            Packet::Type2 { op, count } => {
                if op == Op::Read {
                    return None;
                }
                (i + 1, count, last_reg == Some(Register::Fdri))
            }
        };
        if payload_at + count > words.len() {
            return None;
        }
        if is_fdri && count > 0 {
            // Frame payloads are whole frames plus the pad frame; the
            // first frame index comes from the preceding FAR seek.
            let flr = geom.frame_words();
            if count % flr != 0 {
                return None;
            }
            let start_frame = last_far?;
            if control_start < payload_at {
                spans.push(Span {
                    start: control_start,
                    len: payload_at - control_start,
                    frames: None,
                });
            }
            spans.push(Span {
                start: payload_at,
                len: count,
                frames: Some((start_frame, true)),
            });
            control_start = payload_at + count;
        }
        i = payload_at + count;
    }
    if control_start < words.len() {
        spans.push(Span {
            start: control_start,
            len: words.len() - control_start,
            frames: None,
        });
    }
    Some(spans)
}

/// Cut a span into section-sized chunks: `(word_start, word_len,
/// start_frame, delta_words)` tuples. Frame spans cut on frame
/// boundaries; the run's pad frame is excluded from `delta_words`.
fn chunks(span: &Span, flr: usize) -> Vec<(usize, usize, usize, usize)> {
    let mut out = Vec::new();
    match span.frames {
        None => {
            let mut off = 0;
            while off < span.len {
                let len = (span.len - off).min(SECTION_MAX_WORDS);
                out.push((span.start + off, len, 0, 0));
                off += len;
            }
        }
        Some((first_frame, has_pad)) => {
            let frames = span.len / flr;
            let per = (SECTION_MAX_WORDS / flr).max(1);
            let mut f = 0;
            while f < frames {
                let k = (frames - f).min(per);
                let is_last = f + k == frames;
                let pad_frames = usize::from(has_pad && is_last);
                out.push((
                    span.start + f * flr,
                    k * flr,
                    first_frame + f,
                    (k - pad_frames) * flr,
                ));
                f += k;
            }
        }
    }
    out
}

/// Picks and writes the cheapest payload of one section, pricing every
/// mode exactly before it writes any.
///
/// The RLE token streams are built once per section (once more for the
/// delta of an incremental section) into reused buffers. Raw costs
/// `4·n` bytes and RLE its token count; a Huffman mode costs
/// [`huff::TABLE_BYTES`] plus its coded bits, from the token histogram
/// and the code lengths, and is not even planned when
/// [`huff::min_coded_bytes`] already reaches the best size so far. A
/// later mode in the order Raw, Rle, HuffRle, DeltaRle, HuffDeltaRle
/// wins only when strictly smaller, so ties go to the simpler mode.
/// Only the winner's payload is written.
#[derive(Default)]
pub(crate) struct Picker {
    tokens: Vec<u8>,
    delta_tokens: Vec<u8>,
}

/// The best mode so far, its payload size and, for a Huffman mode, its
/// code.
type Best = (Mode, usize, Option<huff::Code>);

impl Picker {
    /// Append one section of `chunk` to `body` and return its mode: the
    /// mode/span word, the header words `fields` gives for the chosen
    /// mode and payload length, the payload, and zero padding to a word
    /// boundary. `deltaed` is the chunk XORed against its base frames
    /// when the delta modes apply (see [`delta_into`]).
    pub(crate) fn section<const N: usize>(
        &mut self,
        body: &mut Vec<u8>,
        chunk: &[u32],
        deltaed: Option<&[u32]>,
        fields: impl FnOnce(Mode, u32) -> [u32; N],
    ) -> Mode {
        debug_assert!(chunk.len() < 1 << 24);
        let hdr = body.len();
        body.resize(hdr + 4 * (1 + N), 0);
        let mode = self.write(chunk, deltaed, body);
        let payload_len = (body.len() - hdr - 4 * (1 + N)) as u32;
        let span = ((mode as u32) << 24) | chunk.len() as u32;
        let header = std::iter::once(span).chain(fields(mode, payload_len));
        for (slot, field) in body[hdr..].chunks_exact_mut(4).zip(header) {
            slot.copy_from_slice(&field.to_be_bytes());
        }
        body.resize(body.len().next_multiple_of(4), 0);
        mode
    }

    /// Append the cheapest payload of `chunk` to `out` and return its
    /// mode.
    fn write(&mut self, chunk: &[u32], deltaed: Option<&[u32]>, out: &mut Vec<u8>) -> Mode {
        let mut best: Best = (Mode::Raw, 4 * chunk.len(), None);
        self.tokens.clear();
        rle::encode(chunk, &mut self.tokens);
        price(Mode::Rle, Mode::HuffRle, &self.tokens, &mut best);
        if let Some(deltaed) = deltaed {
            self.delta_tokens.clear();
            rle::encode(deltaed, &mut self.delta_tokens);
            price(
                Mode::DeltaRle,
                Mode::HuffDeltaRle,
                &self.delta_tokens,
                &mut best,
            );
        }
        let (mode, _, code) = best;
        let tokens = if mode.needs_base() {
            &self.delta_tokens
        } else {
            &self.tokens
        };
        match code {
            Some(code) => code.write(tokens, out),
            None if mode == Mode::Raw => {
                for &w in chunk {
                    out.extend_from_slice(&w.to_be_bytes());
                }
            }
            None => out.extend_from_slice(tokens),
        }
        mode
    }
}

/// Price one token stream as `plain` and as `coded` (its Huffman form)
/// against `best`.
fn price(plain: Mode, coded: Mode, tokens: &[u8], best: &mut Best) {
    if tokens.len() < best.1 {
        *best = (plain, tokens.len(), None);
    }
    if huff::min_coded_bytes(tokens.len()) >= best.1 {
        return;
    }
    if let Some(code) = huff::Code::new(&huff::histogram(tokens)) {
        if code.coded_bytes() < best.1 {
            *best = (coded, code.coded_bytes(), Some(code));
        }
    }
}

/// Write into `out` the chunk with its leading `delta_words` XORed
/// against the base frames starting at `start_frame`; trailing words
/// (the pad frame) pass through. `false` when the base cannot supply
/// every needed frame.
fn delta_into(
    chunk: &[u32],
    start_frame: usize,
    delta_words: usize,
    flr: usize,
    base: Option<&dyn FrameSource>,
    out: &mut Vec<u32>,
) -> bool {
    let Some(base) = base.filter(|b| b.frame_words() == flr) else {
        return false;
    };
    out.clear();
    out.extend_from_slice(chunk);
    for (k, frame_chunk) in out[..delta_words].chunks_mut(flr).enumerate() {
        let Some(bf) = base.frame(start_frame + k) else {
            return false;
        };
        for (w, &b) in frame_chunk.iter_mut().zip(bf) {
            *w ^= b;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_is_frame_aligned_and_excludes_pad_from_delta() {
        let flr = 12;
        let span = Span {
            start: 100,
            len: 5 * flr,
            frames: Some((40, true)),
        };
        let parts = chunks(&span, flr);
        assert_eq!(parts, vec![(100, 5 * flr, 40, 4 * flr)]);

        // A span bigger than SECTION_MAX_WORDS splits on frame
        // boundaries and only the final chunk excludes its pad.
        let many = SECTION_MAX_WORDS / flr + 3;
        let span = Span {
            start: 0,
            len: many * flr,
            frames: Some((0, true)),
        };
        let parts = chunks(&span, flr);
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].3, parts[0].1, "non-final chunk deltas fully");
        assert_eq!(parts[1].3, parts[1].1 - flr, "final chunk skips pad");
        assert_eq!(parts[0].1 % flr, 0);
    }

    #[test]
    fn control_chunks_never_delta() {
        let span = Span {
            start: 7,
            len: 3 * SECTION_MAX_WORDS + 5,
            frames: None,
        };
        let parts = chunks(&span, 12);
        assert_eq!(parts.len(), 4);
        assert!(parts.iter().all(|p| p.2 == 0 && p.3 == 0));
        assert_eq!(parts.iter().map(|p| p.1).sum::<usize>(), span.len);
    }
}
