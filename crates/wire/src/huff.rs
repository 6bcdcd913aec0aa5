//! Canonical Huffman coding over RLE token bytes — the entropy layer
//! behind [`Mode::HuffRle`](crate::Mode::HuffRle) and
//! [`Mode::HuffDeltaRle`](crate::Mode::HuffDeltaRle).
//!
//! The coded form is fully self-describing:
//!
//! * 128 bytes: code lengths for all 256 byte symbols, packed two
//!   4-bit nibbles per byte (high nibble = even symbol). Length 0
//!   means the symbol is absent; lengths run 1..=15.
//! * `u32` (big-endian): number of source bytes.
//! * The code bits, MSB-first, zero-padded to a byte boundary.
//!
//! Codes are canonical — assigned in (length, symbol) order — so the
//! table is just lengths, and encode/decode agree byte-for-byte across
//! platforms. The builder caps code length at 15; for inputs skewed
//! enough to need deeper codes [`Code::new`] returns `None` and the
//! caller keeps the plain RLE section (compression is best-effort,
//! correctness is not). A [`Code`] knows its exact coded size before it
//! writes a bit, so the encoder prices a Huffman section without
//! producing it.

use crate::WireError;

/// Code-length table overhead in bytes (256 nibbles + source count).
pub const TABLE_BYTES: usize = 128 + 4;

/// Longest canonical code length the nibble-packed table can express.
pub const MAX_CODE_LEN: u32 = 15;

/// Byte histogram of `src`: what a [`Code`] is built from.
pub fn histogram(src: &[u8]) -> [u64; 256] {
    let mut freq = [0u64; 256];
    for &b in src {
        freq[b as usize] += 1;
    }
    freq
}

/// The least coded size, table included, that any code gives `n`
/// source bytes: every symbol costs at least one bit. A caller that
/// already has something no larger skips building the code at all.
pub fn min_coded_bytes(n: usize) -> usize {
    TABLE_BYTES + n.div_ceil(8)
}

/// A canonical Huffman code for one source, sized before any bit is
/// written.
#[derive(Debug, Clone)]
pub struct Code {
    lens: [u32; 256],
    coded_bytes: usize,
}

impl Code {
    /// The code for a source with byte histogram `freq`, or `None` when
    /// the source is empty or longer than the `u32` count field, or the
    /// code needs lengths beyond [`MAX_CODE_LEN`].
    pub fn new(freq: &[u64; 256]) -> Option<Code> {
        let n: u64 = freq.iter().sum();
        if n == 0 || n > u32::MAX as u64 {
            return None;
        }
        let lens = code_lengths(freq)?;
        let bits: u64 = (freq.iter().zip(&lens)).map(|(&f, &l)| f * l as u64).sum();
        Some(Code {
            lens,
            coded_bytes: TABLE_BYTES + bits.div_ceil(8) as usize,
        })
    }

    /// Exact size of [`Code::write`]'s output, table included.
    pub fn coded_bytes(&self) -> usize {
        self.coded_bytes
    }

    /// Append table + count + bits for `src` to `out`. `src` must be the
    /// source whose histogram built this code.
    pub fn write(&self, src: &[u8], out: &mut Vec<u8>) {
        let lens = &self.lens;
        let codes = canonical_codes(lens);
        let start = out.len();
        out.reserve(self.coded_bytes);
        for pair in 0..128 {
            out.push(((lens[2 * pair] as u8) << 4) | lens[2 * pair + 1] as u8);
        }
        out.extend_from_slice(&(src.len() as u32).to_be_bytes());

        // Whole 32-bit words leave the accumulator at once; codes are at
        // most 15 bits, so fewer than 47 bits are ever pending.
        let mut acc: u64 = 0;
        let mut nbits: u32 = 0;
        for &b in src {
            let (code, len) = codes[b as usize];
            acc = (acc << len) | code as u64;
            nbits += len;
            if nbits >= 32 {
                nbits -= 32;
                out.extend_from_slice(&((acc >> nbits) as u32).to_be_bytes());
            }
        }
        while nbits >= 8 {
            nbits -= 8;
            out.push((acc >> nbits) as u8);
        }
        if nbits > 0 {
            out.push((acc << (8 - nbits)) as u8);
        }
        debug_assert_eq!(out.len() - start, self.coded_bytes);
    }
}

/// Decode a Huffman-coded region, appending the source bytes to `out`.
///
/// `abs` is the byte offset of `coded[0]` in the container (for error
/// offsets). Returns the number of bytes of `coded` consumed.
pub fn decode(coded: &[u8], abs: usize, out: &mut Vec<u8>) -> Result<usize, WireError> {
    if coded.len() < TABLE_BYTES {
        return Err(WireError::Truncated {
            at: abs + coded.len(),
        });
    }
    let mut lens = [0u32; 256];
    for pair in 0..128 {
        lens[2 * pair] = (coded[pair] >> 4) as u32;
        lens[2 * pair + 1] = (coded[pair] & 0xF) as u32;
    }
    let count = u32::from_be_bytes([coded[128], coded[129], coded[130], coded[131]]) as usize;

    // Canonical decode tables: how many codes of each length, the
    // first code value at each length, and symbols in canonical order.
    let mut len_count = [0u32; 16];
    let mut symbols = Vec::with_capacity(256);
    for len in 1..=MAX_CODE_LEN {
        for (sym, &l) in lens.iter().enumerate() {
            if l == len {
                len_count[len as usize] += 1;
                symbols.push(sym as u8);
            }
        }
    }
    if symbols.is_empty() {
        return Err(WireError::BadHuffman { at: abs });
    }
    // Kraft check: an over-subscribed table would make codes ambiguous.
    let kraft: u64 = (1..=MAX_CODE_LEN)
        .map(|l| (len_count[l as usize] as u64) << (MAX_CODE_LEN - l))
        .sum();
    if kraft > 1 << MAX_CODE_LEN {
        return Err(WireError::BadHuffman { at: abs });
    }
    let mut first_code = [0u32; 17];
    let mut first_index = [0u32; 17];
    let mut code = 0u32;
    let mut index = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        first_code[len] = code;
        first_index[len] = index;
        code = (code + len_count[len]) << 1;
        index += len_count[len];
    }

    let bits = &coded[TABLE_BYTES..];
    let mut bit = 0usize;
    // Every symbol costs at least one bit, so a count beyond eight per
    // coded byte can only fail; reserve no more than the bits can carry.
    out.reserve(count.min(8 * bits.len()));
    for _ in 0..count {
        let mut code = 0u32;
        let mut len = 0usize;
        loop {
            if bit >= bits.len() * 8 {
                return Err(WireError::Truncated {
                    at: abs + coded.len(),
                });
            }
            code = (code << 1) | ((bits[bit / 8] >> (7 - bit % 8)) & 1) as u32;
            bit += 1;
            len += 1;
            if len > MAX_CODE_LEN as usize {
                return Err(WireError::BadHuffman {
                    at: abs + TABLE_BYTES + (bit - 1) / 8,
                });
            }
            let n = len_count[len];
            if n > 0 && code >= first_code[len] && code < first_code[len] + n {
                let sym = symbols[(first_index[len] + code - first_code[len]) as usize];
                out.push(sym);
                break;
            }
        }
    }
    Ok(TABLE_BYTES + bit.div_ceil(8))
}

/// Huffman code lengths for `freq`, or `None` when the optimal code
/// exceeds [`MAX_CODE_LEN`].
///
/// Each step merges the two lightest live nodes. The leaves are sorted
/// once by (weight, symbol), and merged nodes queue up in creation
/// order, which is also weight order, so the lightest node is always at
/// the front of one of the two queues. Ties are deterministic: a merged
/// node goes before a leaf of equal weight, and among merged nodes of
/// equal weight the newest goes first. The code-length table, and so
/// every container byte, depends on this order.
fn code_lengths(freq: &[u64; 256]) -> Option<[u32; 256]> {
    let mut leaves: Vec<u16> = (0..256u16).filter(|&s| freq[s as usize] > 0).collect();
    let mut lens = [0u32; 256];
    match leaves.len() {
        0 => return None,
        1 => {
            lens[leaves[0] as usize] = 1;
            return Some(lens);
        }
        _ => {}
    }
    leaves.sort_unstable_by_key(|&s| (freq[s as usize], s));

    // Nodes 0..256 are the symbols' leaves; merges number from 256 on.
    let mut weight = [0u64; 511];
    weight[..256].copy_from_slice(freq);
    let mut parent = [0u16; 511];
    let mut merged = [0u16; 255];
    let (mut next_leaf, mut head, mut tail) = (0usize, 0usize, 0usize);
    let root = 256 + leaves.len() - 2;
    for node in 256..=root {
        let mut take = || {
            let leaf = leaves.get(next_leaf).map(|&s| weight[s as usize]);
            if head < tail && leaf.is_none_or(|w| weight[merged[head] as usize] <= w) {
                // The newest of the equal-weight run at the head: take
                // it and close the gap behind the older ones.
                let w = weight[merged[head] as usize];
                let mut last = head;
                while last + 1 < tail && weight[merged[last + 1] as usize] == w {
                    last += 1;
                }
                let n = merged[last];
                merged.copy_within(head..last, head + 1);
                head += 1;
                n as usize
            } else {
                next_leaf += 1;
                leaves[next_leaf - 1] as usize
            }
        };
        let (a, b) = (take(), take());
        weight[node] = weight[a] + weight[b];
        parent[a] = node as u16;
        parent[b] = node as u16;
        merged[tail] = node as u16;
        tail += 1;
    }

    // A parent always numbers above its children, so one downward sweep
    // gives every depth.
    let mut depth = [0u32; 511];
    for node in (0..root).rev() {
        if node >= 256 || freq[node] > 0 {
            depth[node] = depth[parent[node] as usize] + 1;
        }
    }
    for &s in &leaves {
        if depth[s as usize] > MAX_CODE_LEN {
            return None;
        }
        lens[s as usize] = depth[s as usize];
    }
    Some(lens)
}

/// Canonical `(code, len)` per symbol from a length table: codes of one
/// length are consecutive in symbol order, and each length's first code
/// follows the last code of the length before it.
fn canonical_codes(lens: &[u32; 256]) -> [(u32, u32); 256] {
    let mut count = [0u32; MAX_CODE_LEN as usize + 1];
    for &l in lens {
        count[l as usize] += 1;
    }
    let mut next = [0u32; MAX_CODE_LEN as usize + 1];
    let mut code = 0u32;
    for len in 1..=MAX_CODE_LEN as usize {
        code = (code + if len > 1 { count[len - 1] } else { 0 }) << 1;
        next[len] = code;
    }
    let mut codes = [(0u32, 0u32); 256];
    for (sym, &l) in lens.iter().enumerate() {
        if l > 0 {
            codes[sym] = (next[l as usize], l);
            next[l as usize] += 1;
        }
    }
    codes
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The builder the two-queue one replaced: re-sort the live list by
    /// weight (stably, so a merged node placed at the front stays ahead
    /// of its equals) after every merge. The reference it must match.
    fn code_lengths_reference(freq: &[u64; 256]) -> Option<[u32; 256]> {
        let mut weight = Vec::with_capacity(512);
        let mut parent = vec![usize::MAX; 512];
        let mut live: Vec<usize> = Vec::new();
        for (sym, &f) in freq.iter().enumerate() {
            weight.push(f);
            if f > 0 {
                live.push(sym);
            }
        }
        if live.is_empty() {
            return None;
        }
        if live.len() == 1 {
            let mut lens = [0u32; 256];
            lens[live[0]] = 1;
            return Some(lens);
        }
        while live.len() > 1 {
            live.sort_by_key(|&n| weight[n]);
            let (a, b) = (live[0], live[1]);
            let node = weight.len();
            weight.push(weight[a] + weight[b]);
            parent.push(usize::MAX);
            parent[a] = node;
            parent[b] = node;
            live.splice(0..2, [node]);
        }
        let mut lens = [0u32; 256];
        for sym in 0..256 {
            if freq[sym] == 0 {
                continue;
            }
            let mut depth = 0;
            let mut n = sym;
            while parent[n] != usize::MAX {
                n = parent[n];
                depth += 1;
            }
            if depth > MAX_CODE_LEN {
                return None;
            }
            lens[sym] = depth;
        }
        Some(lens)
    }

    /// The canonical codes as the length-by-length scan assigns them.
    fn canonical_codes_reference(lens: &[u32; 256]) -> [(u32, u32); 256] {
        let mut codes = [(0u32, 0u32); 256];
        let mut code = 0u32;
        for len in 1..=MAX_CODE_LEN {
            for (sym, &l) in lens.iter().enumerate() {
                if l == len {
                    codes[sym] = (code, len);
                    code += 1;
                }
            }
            code <<= 1;
        }
        codes
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2_000))]

        /// Seeded frequency tables, most with heavy ties (weights drawn
        /// from a handful of values), some with weights skewed far
        /// enough to overflow the 15-bit cap: the two-queue builder
        /// gives the reference's lengths, `None`s included, and the
        /// codes built from them match the length-by-length scan.
        #[test]
        fn two_queue_builder_matches_the_reference(seed in 0u64..u64::MAX) {
            let mut st = seed;
            let symbols = 1 + (splitmix(&mut st) % 256) as usize;
            let spread = [1u64, 2, 3, 4, 8, 100, 1 << 40][(splitmix(&mut st) % 7) as usize];
            let skewed = splitmix(&mut st).is_multiple_of(8);
            let mut freq = [0u64; 256];
            for k in 0..symbols {
                let sym = (splitmix(&mut st) % 256) as usize;
                freq[sym] = if skewed {
                    1 << (k % 40)
                } else {
                    1 + splitmix(&mut st) % spread
                };
            }
            let lens = code_lengths(&freq);
            prop_assert_eq!(lens, code_lengths_reference(&freq));
            if let Some(lens) = lens {
                prop_assert_eq!(canonical_codes(&lens), canonical_codes_reference(&lens));
            }
        }
    }

    /// Huffman-code `src` onto `out`, or `None` (leaving `out` as it
    /// is) when no code can be built.
    fn encode(src: &[u8], out: &mut Vec<u8>) -> Option<()> {
        Code::new(&histogram(src))?.write(src, out);
        Some(())
    }

    fn round_trip(src: &[u8]) -> usize {
        let mut coded = Vec::new();
        encode(src, &mut coded).expect("encodable");
        let mut back = Vec::new();
        let used = decode(&coded, 0, &mut back).expect("decodable");
        assert_eq!(used, coded.len());
        assert_eq!(back, src);
        coded.len()
    }

    #[test]
    fn round_trips_typical_streams() {
        round_trip(&[7]);
        round_trip(&[0, 0, 0, 0]);
        round_trip(b"abracadabra, a most entropic banana cabana");
        let skewed: Vec<u8> = (0..4000u32)
            .map(|i| if i % 17 == 0 { 3 } else { 0 })
            .collect();
        let coded = round_trip(&skewed);
        assert!(coded < skewed.len(), "skewed stream must shrink");
    }

    #[test]
    fn round_trips_all_symbols() {
        let all: Vec<u8> = (0..=255u8).cycle().take(2048).collect();
        round_trip(&all);
    }

    #[test]
    fn empty_input_is_not_encodable() {
        let mut out = Vec::new();
        assert!(encode(&[], &mut out).is_none());
        assert!(out.is_empty());
    }

    #[test]
    fn corrupt_tables_and_bits_are_typed() {
        let mut coded = Vec::new();
        encode(b"hello huffman", &mut coded).unwrap();
        // Truncated below the table floor.
        assert!(matches!(
            decode(&coded[..40], 5, &mut Vec::new()),
            Err(WireError::Truncated { at: 45 })
        ));
        // All-zero length table has no symbols.
        let empty = vec![0u8; TABLE_BYTES];
        assert_eq!(
            decode(&empty, 9, &mut Vec::new()),
            Err(WireError::BadHuffman { at: 9 })
        );
        // Over-subscribed table: every symbol claims length 1.
        let mut bad = vec![0x11u8; 128];
        bad.extend_from_slice(&1u32.to_be_bytes());
        bad.push(0);
        assert_eq!(
            decode(&bad, 0, &mut Vec::new()),
            Err(WireError::BadHuffman { at: 0 })
        );
        // Bit stream cut short: one byte of bits cannot carry 100
        // symbols at >= 1 bit each.
        let mut long = Vec::new();
        encode(&[0x42; 100], &mut long).unwrap();
        let cut = &long[..TABLE_BYTES + 1];
        assert!(matches!(
            decode(cut, 0, &mut Vec::new()),
            Err(WireError::Truncated { .. })
        ));
    }
}
