//! Compressed readback-reply coding (`JWR1`) — the wire format's
//! upstream half.
//!
//! `JWC1` shrank downloads; readback-verify replies then dominated the
//! p99 tail because every raw verify shipped the region's frames back
//! across the port uncompressed. Readback content is exactly as sparse
//! as the frames that were downloaded (mostly-zero CLB frames, all-zero
//! pads), so a reply compresses with the same RLE/Huffman stack — but
//! through a deliberately smaller container:
//!
//! * no device IDCODE or frame length — a reply is not a configuration
//!   stream, just words read off one device the caller already knows;
//! * no delta modes — the *point* of a readback is to learn what the
//!   device holds, so there is no trusted base to delta against. Only
//!   [`Mode::Raw`](crate::Mode::Raw), [`Mode::Rle`](crate::Mode::Rle)
//!   and [`Mode::HuffRle`](crate::Mode::HuffRle) are legal, and
//!   a reply naming a delta mode is rejected as a [`WireError::BadMode`].
//!
//! Layout: `"JWR1"` magic, total word count, section count, FNV-1a
//! header checksum, then per section a mode/span word, encoded byte
//! length and decoded-words checksum, then the payload (padded to a
//! word boundary). Sections span at most [`SECTION_MAX_WORDS`] words so
//! a streaming reader could bound its buffer exactly like the download
//! decoder; every failure is the same typed [`WireError`] discipline.

use crate::decode::{be32, check_header, decode_section};
use crate::encode::Picker;
use crate::{fnv1a_bytes, fnv1a_sections, fnv1a_words, WireError, WireStats, SECTION_MAX_WORDS};

/// Reply container magic: "JWR1" (JPG wire reply, version 1).
pub const REPLY_MAGIC: [u8; 4] = *b"JWR1";

/// Reply header length in bytes: magic + total decoded words +
/// section count + header checksum.
pub const REPLY_HEADER_BYTES: usize = 4 + 4 * 3;

/// Per-section header length in bytes: mode/decoded-words word,
/// encoded byte length, checksum over the decoded words.
pub const REPLY_SECTION_HEADER_BYTES: usize = 4 * 3;

/// An encoded reply plus size accounting ([`WireStats`] reused: the
/// delta-mode counters simply stay zero).
#[derive(Debug, Clone)]
pub struct EncodedReply {
    /// The reply container bytes (header + sections).
    pub bytes: Vec<u8>,
    /// Size and per-mode accounting.
    pub stats: WireStats,
}

/// Encode readback words into a `JWR1` reply container, picking the
/// cheapest of Raw / RLE / Huffman-RLE per section.
pub fn encode_reply(words: &[u32]) -> EncodedReply {
    let _g = obs::span!("wire_encode_reply");
    let mut stats = WireStats {
        decoded_bytes: words.len() * 4,
        ..WireStats::default()
    };
    let chunks: Vec<&[u32]> = words.chunks(SECTION_MAX_WORDS).collect();
    let mut body = Vec::new();
    let mut picker = Picker::default();
    for (chunk, checksum) in chunks.iter().zip(fnv1a_sections(&chunks)) {
        let mode = picker.section(&mut body, chunk, None, |_, payload_len| {
            [payload_len, checksum]
        });
        stats.mode_counts[mode as usize] += 1;
    }
    let sections = chunks.len();

    let mut bytes = Vec::with_capacity(REPLY_HEADER_BYTES + body.len());
    bytes.extend_from_slice(&REPLY_MAGIC);
    bytes.extend_from_slice(&(words.len() as u32).to_be_bytes());
    bytes.extend_from_slice(&(sections as u32).to_be_bytes());
    let checksum = fnv1a_bytes(&bytes);
    bytes.extend_from_slice(&checksum.to_be_bytes());
    bytes.extend_from_slice(&body);

    stats.encoded_bytes = bytes.len();
    stats.sections = sections;
    obs::counter!("wire_reply_encodes_total").inc();
    obs::counter!("wire_reply_bytes_decoded_total").add(stats.decoded_bytes as u64);
    obs::counter!("wire_reply_bytes_on_wire_total").add(stats.encoded_bytes as u64);
    EncodedReply { bytes, stats }
}

/// Decode a `JWR1` reply back to its words.
pub fn decode_reply(bytes: &[u8]) -> Result<Vec<u32>, WireError> {
    check_header(bytes, REPLY_MAGIC, REPLY_HEADER_BYTES)?;
    let total_words = be32(bytes, 4) as usize;
    let section_count = be32(bytes, 8) as usize;

    // The header's word count is unchecked input: reserve no more than
    // one section ahead of what the sections actually carry.
    let mut out = Vec::with_capacity(total_words.min(SECTION_MAX_WORDS));
    let mut scratch = Vec::new();
    let mut pos = REPLY_HEADER_BYTES;
    for section in 0..section_count {
        let start = out.len();
        // A readback reply has no base to delta against, so a delta
        // mode here is a malformed (or hostile) container.
        let sec = decode_section(
            bytes,
            pos,
            REPLY_SECTION_HEADER_BYTES,
            section,
            false,
            &mut scratch,
            &mut out,
        )?;
        let found = fnv1a_words(&out[start..]);
        if found != sec.checksum {
            return Err(WireError::SectionChecksum {
                section,
                expected: sec.checksum,
                found,
            });
        }
        pos = sec.next;
    }
    if pos != bytes.len() {
        return Err(WireError::TrailingBytes { at: pos });
    }
    if out.len() != total_words {
        return Err(WireError::WordCountMismatch {
            expected: total_words,
            found: out.len(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Mode;

    fn round_trip(words: &[u32]) -> EncodedReply {
        let enc = encode_reply(words);
        assert_eq!(decode_reply(&enc.bytes).unwrap(), words);
        enc
    }

    #[test]
    fn replies_round_trip_and_sparse_content_compresses() {
        round_trip(&[]);
        round_trip(&[0xDEAD_BEEF]);
        // A readback-shaped payload: mostly-zero frames with sparse
        // content, like a real region dump.
        let mut frames = vec![0u32; 40 * 12];
        for f in 0..40 {
            frames[f * 12 + 3] = 0x8000_0000 >> (f % 7);
        }
        let enc = round_trip(&frames);
        assert!(
            enc.stats.encoded_bytes * 4 < enc.stats.decoded_bytes,
            "sparse readback must compress at least 4x, got {} -> {}",
            enc.stats.decoded_bytes,
            enc.stats.encoded_bytes
        );
        // No delta sections, ever.
        assert_eq!(enc.stats.mode_counts[Mode::DeltaRle as usize], 0);
        assert_eq!(enc.stats.mode_counts[Mode::HuffDeltaRle as usize], 0);

        // Incompressible content still round-trips (raw sections).
        let noise: Vec<u32> = (0..SECTION_MAX_WORDS as u32 + 100)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0x5A5A_5A5A)
            .collect();
        let enc = round_trip(&noise);
        assert_eq!(enc.stats.sections, 2, "chunks split at SECTION_MAX_WORDS");
    }

    #[test]
    fn corruptions_are_typed() {
        let words = vec![7u32; 500];
        let enc = encode_reply(&words);

        assert_eq!(
            decode_reply(&enc.bytes[..8]),
            Err(WireError::Truncated { at: 8 })
        );

        let mut bad = enc.bytes.clone();
        bad[0] = b'X';
        assert_eq!(
            decode_reply(&bad),
            Err(WireError::BadMagic {
                found: [b'X', b'W', b'R', b'1']
            })
        );

        let mut bad = enc.bytes.clone();
        bad[5] ^= 1; // word count: header checksum mismatch
        assert!(matches!(
            decode_reply(&bad),
            Err(WireError::HeaderChecksum { .. })
        ));

        // Payload corruption trips the section checksum (or an earlier
        // typed token error).
        let mut bad = enc.bytes.clone();
        let at = REPLY_HEADER_BYTES + REPLY_SECTION_HEADER_BYTES + 1;
        bad[at] ^= 0x20;
        assert!(decode_reply(&bad).is_err());

        let mut bad = enc.bytes.clone();
        bad.extend_from_slice(&[0; 4]);
        assert_eq!(
            decode_reply(&bad),
            Err(WireError::TrailingBytes {
                at: enc.bytes.len()
            })
        );
    }

    #[test]
    fn delta_modes_are_rejected_in_replies() {
        let words = vec![3u32; 8];
        let mut enc = encode_reply(&words).bytes;
        // Rewrite section 0's mode byte to DeltaRle and fix nothing
        // else: the decoder must reject the mode before any payload
        // interpretation.
        enc[REPLY_HEADER_BYTES] = Mode::DeltaRle as u8;
        assert_eq!(
            decode_reply(&enc),
            Err(WireError::BadMode {
                section: 0,
                mode: Mode::DeltaRle as u8
            })
        );
    }
}
