//! # wire — compressed streaming wire format for partial bitstreams
//!
//! Download bytes are the fleet's scarcest resource: the paper's whole
//! argument is that a partial bitstream is a fraction of a full one,
//! and E10/E14 showed traffic reduction is what drives fleet
//! throughput. This crate shrinks the partials themselves with an
//! optional compressed container (`JWC1`) designed around how JPG
//! partials actually look on the wire:
//!
//! * **Frame-delta sections** — the generator knows the base epoch's
//!   frame content (the `FrameCache` slab primes it), so an incremental
//!   partial's payload can ship as an XOR against base content, which
//!   is mostly zero. Crucially the *decoder* needs no shipped base:
//!   an incremental partial's contract already requires the target
//!   region to hold base content, so the device-side reader deltas
//!   against the fabric's **own current frames** ([`FrameSource`]).
//!   Delta is therefore only ever used where that contract holds
//!   (incremental partials), never for wholesale/full streams that may
//!   apply over arbitrary resident content.
//! * **Run-length sections** — partial payloads are sparse: most words
//!   of a CLB frame are zero, and pad frames are all zero. A word-level
//!   zero-run/literal token stream eats them.
//! * **Entropy-coded sections** — a canonical Huffman code over the RLE
//!   token bytes, chosen per section only when it wins including its
//!   own table overhead.
//!
//! The container is self-describing: a checksummed header names the
//! device IDCODE, frame length, decoded word count and section count;
//! every section carries its mode, decoded span, encoded length and a
//! checksum over its decoded words. Every decode failure is a typed
//! [`WireError`] with a byte offset — the same discipline as
//! `reloc::parse`. The streaming reader ([`StreamingDecoder`] /
//! [`apply_streaming`]) hands back decoded chunks section by section
//! from one bounded, reused buffer: the whole partial is never
//! materialized on the device side.
//!
//! Readback-verify replies ride the same RLE/Huffman stack *upstream*
//! through the smaller `JWR1` container ([`reply`]) — no IDCODE, no
//! delta modes (a readback has no trusted base) — so raw verifies and
//! digest escalations stop paying wholesale frame bytes on the port.

pub mod decode;
pub mod encode;
pub mod huff;
pub mod reply;
pub mod rle;

pub use decode::{apply_streaming, decode_full, ApplyError, ApplyStats, StreamingDecoder};
pub use encode::{encode, Encoded};
pub use reply::{decode_reply, encode_reply, EncodedReply};

use std::fmt;

/// Container magic: "JWC1" (JPG wire container, version 1).
pub const MAGIC: [u8; 4] = *b"JWC1";

/// Container header length in bytes: magic + idcode + flr +
/// total decoded words + section count + header checksum.
pub const HEADER_BYTES: usize = 4 + 4 * 5;

/// Per-section header length in bytes: mode/decoded-words word,
/// encoded byte length, start frame, delta word count, checksum.
pub const SECTION_HEADER_BYTES: usize = 4 * 5;

/// Largest decoded section span, in words. The encoder splits bigger
/// payloads so the streaming decoder's reused buffer stays bounded
/// regardless of partial size.
pub const SECTION_MAX_WORDS: usize = 8192;

/// Section payload encodings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Mode {
    /// Words stored verbatim (big-endian).
    Raw = 0,
    /// Zero-run/literal word tokens ([`rle`]).
    Rle = 1,
    /// XOR against base frame content, then RLE.
    DeltaRle = 2,
    /// RLE token bytes behind a canonical Huffman code ([`huff`]).
    HuffRle = 3,
    /// Delta, then RLE, then Huffman.
    HuffDeltaRle = 4,
}

impl Mode {
    /// Decode a mode byte.
    pub fn from_u8(m: u8) -> Option<Mode> {
        Some(match m {
            0 => Mode::Raw,
            1 => Mode::Rle,
            2 => Mode::DeltaRle,
            3 => Mode::HuffRle,
            4 => Mode::HuffDeltaRle,
            _ => return None,
        })
    }

    /// Whether decoding this mode consults the base [`FrameSource`].
    pub fn needs_base(self) -> bool {
        matches!(self, Mode::DeltaRle | Mode::HuffDeltaRle)
    }
}

/// Read access to frame content — the delta modes' reference image.
///
/// On the encoder side this is the base epoch's configuration memory;
/// on the device side it is the fabric's own current content (which an
/// incremental partial's contract guarantees equals base content for
/// every frame it writes).
pub trait FrameSource {
    /// Words per frame.
    fn frame_words(&self) -> usize;
    /// Content of the frame at linear index `index`, if in range.
    fn frame(&self, index: usize) -> Option<&[u32]>;
}

impl FrameSource for virtex::ConfigMemory {
    fn frame_words(&self) -> usize {
        virtex::ConfigMemory::frame_words(self)
    }
    fn frame(&self, index: usize) -> Option<&[u32]> {
        (index < self.frame_count()).then(|| virtex::ConfigMemory::frame(self, index))
    }
}

/// What one encode produced, mode by mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Decoded (original) size in bytes.
    pub decoded_bytes: usize,
    /// Encoded container size in bytes, header included.
    pub encoded_bytes: usize,
    /// Sections emitted.
    pub sections: usize,
    /// Sections per mode, indexed by `Mode as usize`.
    pub mode_counts: [usize; 5],
}

impl WireStats {
    /// Compression ratio (decoded / encoded); 1.0 for an empty input.
    pub fn ratio(&self) -> f64 {
        if self.encoded_bytes == 0 {
            return 1.0;
        }
        self.decoded_bytes as f64 / self.encoded_bytes as f64
    }
}

/// Typed container decode failure. Offsets are byte offsets into the
/// container, so a corrupt stream names where it went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Container ended where more bytes were required.
    Truncated {
        /// Byte offset at which more input was needed.
        at: usize,
    },
    /// The container does not open with the `JWC1` magic.
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The header checksum does not match the header's own fields.
    HeaderChecksum {
        /// Checksum recomputed from the header.
        expected: u32,
        /// Checksum stored in the container.
        found: u32,
    },
    /// A section names an unknown payload mode.
    BadMode {
        /// Section index.
        section: usize,
        /// The mode byte found.
        mode: u8,
    },
    /// A section declares a decoded span larger than
    /// [`SECTION_MAX_WORDS`] allows, or zero.
    BadSectionSpan {
        /// Section index.
        section: usize,
        /// Declared decoded word count.
        words: usize,
    },
    /// An RLE token byte is not a defined token.
    BadToken {
        /// Byte offset of the bad token.
        at: usize,
        /// The token byte.
        token: u8,
    },
    /// A Huffman-coded section's code table or bit sequence is invalid.
    BadHuffman {
        /// Byte offset of the offending table or bit region.
        at: usize,
    },
    /// A section's tokens decode to more words than its header declares.
    SectionOverflow {
        /// Section index.
        section: usize,
    },
    /// A section's tokens ran out before its declared word count.
    SectionUnderflow {
        /// Section index.
        section: usize,
        /// Words actually decoded.
        words: usize,
    },
    /// A section's decoded words do not match its stored checksum.
    SectionChecksum {
        /// Section index.
        section: usize,
        /// Checksum stored at encode time.
        expected: u32,
        /// Checksum of what actually decoded.
        found: u32,
    },
    /// A delta section names a frame the base source cannot provide.
    MissingBase {
        /// Section index.
        section: usize,
        /// The unavailable frame (linear index).
        frame: usize,
    },
    /// The sections' decoded spans do not sum to the header's total.
    WordCountMismatch {
        /// Total decoded words the header declares.
        expected: usize,
        /// Words the sections actually carry.
        found: usize,
    },
    /// Bytes remain after the last section.
    TrailingBytes {
        /// Byte offset of the first trailing byte.
        at: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { at } => write!(f, "container truncated at byte {at}"),
            WireError::BadMagic { found } => {
                write!(f, "bad container magic {found:02x?} (want \"JWC1\")")
            }
            WireError::HeaderChecksum { expected, found } => {
                write!(
                    f,
                    "header checksum {found:#010x} does not match contents ({expected:#010x})"
                )
            }
            WireError::BadMode { section, mode } => {
                write!(f, "section {section} names unknown mode {mode}")
            }
            WireError::BadSectionSpan { section, words } => {
                write!(
                    f,
                    "section {section} declares a decoded span of {words} words \
                     (bounded at {SECTION_MAX_WORDS})"
                )
            }
            WireError::BadToken { at, token } => {
                write!(f, "bad RLE token {token:#04x} at byte {at}")
            }
            WireError::BadHuffman { at } => {
                write!(f, "invalid Huffman table or code at byte {at}")
            }
            WireError::SectionOverflow { section } => {
                write!(f, "section {section} decodes past its declared span")
            }
            WireError::SectionUnderflow { section, words } => {
                write!(f, "section {section} ran out of tokens after {words} words")
            }
            WireError::SectionChecksum {
                section,
                expected,
                found,
            } => {
                write!(
                    f,
                    "section {section} checksum {found:#010x} does not match \
                     stored {expected:#010x}"
                )
            }
            WireError::MissingBase { section, frame } => {
                write!(
                    f,
                    "delta section {section} needs base frame {frame}, which the \
                     frame source cannot provide"
                )
            }
            WireError::WordCountMismatch { expected, found } => {
                write!(
                    f,
                    "sections carry {found} words, header declares {expected}"
                )
            }
            WireError::TrailingBytes { at } => {
                write!(f, "trailing bytes after the last section at byte {at}")
            }
        }
    }
}

impl std::error::Error for WireError {}

const FNV_OFFSET: u32 = 0x811C_9DC5;
const FNV_PRIME: u32 = 0x0100_0193;

/// FNV-1a over a word slice (big-endian byte order), the container's
/// section checksum. Cheap, order-sensitive, and byte-exact across
/// platforms.
pub fn fnv1a_words(words: &[u32]) -> u32 {
    fnv1a_words_from(FNV_OFFSET, words)
}

/// Continue an FNV-1a chain at `h` over `words`.
fn fnv1a_words_from(mut h: u32, words: &[u32]) -> u32 {
    for &w in words {
        for b in w.to_be_bytes() {
            h ^= b as u32;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    h
}

/// [`fnv1a_words`] of every section, four at a time.
///
/// Each section's checksum is one serial multiply chain, so one chain
/// alone leaves the multiplier idle most of the time. The sections are
/// taken in length order, and each group of four runs its chains side
/// by side over the group's shortest length before finishing each alone.
/// The values are those of hashing each section by itself.
pub(crate) fn fnv1a_sections(sections: &[&[u32]]) -> Vec<u32> {
    let mut order: Vec<usize> = (0..sections.len()).collect();
    order.sort_by_key(|&i| sections[i].len());
    let mut out = vec![0; sections.len()];
    let mut groups = order.chunks_exact(4);
    for g in &mut groups {
        let n = g.iter().map(|&i| sections[i].len()).min().unwrap_or(0);
        let [a, b, c, d] = [0, 1, 2, 3].map(|k| &sections[g[k]][..n]);
        let mut h = [FNV_OFFSET; 4];
        for (((&a, &b), &c), &d) in a.iter().zip(b).zip(c).zip(d) {
            let w = [a, b, c, d];
            for shift in [24, 16, 8, 0] {
                for (h, w) in h.iter_mut().zip(w) {
                    *h = (*h ^ ((w >> shift) & 0xFF)).wrapping_mul(FNV_PRIME);
                }
            }
        }
        for (&i, h) in g.iter().zip(h) {
            out[i] = fnv1a_words_from(h, &sections[i][n..]);
        }
    }
    for &i in groups.remainder() {
        out[i] = fnv1a_words(sections[i]);
    }
    out
}

/// FNV-1a over raw bytes (header checksum).
pub fn fnv1a_bytes(bytes: &[u8]) -> u32 {
    let mut h: u32 = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips() {
        for m in [
            Mode::Raw,
            Mode::Rle,
            Mode::DeltaRle,
            Mode::HuffRle,
            Mode::HuffDeltaRle,
        ] {
            assert_eq!(Mode::from_u8(m as u8), Some(m));
        }
        assert_eq!(Mode::from_u8(5), None);
        assert_eq!(Mode::from_u8(0xFF), None);
    }

    #[test]
    fn fnv_is_order_sensitive() {
        assert_ne!(fnv1a_words(&[1, 2]), fnv1a_words(&[2, 1]));
        assert_eq!(fnv1a_words(&[]), fnv1a_bytes(&[]));
        assert_eq!(
            fnv1a_words(&[0x0102_0304]),
            fnv1a_bytes(&[0x01, 0x02, 0x03, 0x04])
        );
    }

    #[test]
    fn section_lanes_match_the_serial_chain() {
        // Lengths that group unevenly, repeat, and include the empty
        // section; content that differs per section.
        let words: Vec<u32> = (0..600u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        let lens = [0usize, 1, 6, 6, 6, 7, 12, 40, 40, 41, 97, 200, 3];
        let mut at = 0;
        let sections: Vec<&[u32]> = (lens.iter())
            .map(|&n| {
                at += n;
                &words[at - n..at]
            })
            .collect();
        for take in 0..=sections.len() {
            let serial: Vec<u32> = sections[..take].iter().map(|s| fnv1a_words(s)).collect();
            assert_eq!(fnv1a_sections(&sections[..take]), serial, "{take} sections");
        }
    }

    #[test]
    fn config_memory_is_a_frame_source() {
        let mem = virtex::ConfigMemory::new(virtex::Device::XCV50);
        let n = mem.frame_count();
        let src: &dyn FrameSource = &mem;
        assert_eq!(src.frame_words(), mem.frame_words());
        assert!(src.frame(0).is_some());
        assert!(src.frame(n).is_none());
    }
}
