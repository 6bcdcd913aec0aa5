//! The configuration memory image: every frame of a device as addressable
//! words and bits.
//!
//! `ConfigMemory` is the in-memory mirror of a configured device that both
//! `bitgen` (writing) and readback (reading) operate on, and the substrate
//! under the JBits-style resource API.

use crate::config::{ConfigGeometry, FrameAddress};
use crate::family::Device;

/// A full configuration-memory image for one device.
///
/// Besides the raw words, the image keeps a per-frame *dirty* bitset: a
/// frame is marked the moment any write changes its content (or hands out
/// a mutable view of it). Partial-bitstream generation reads this set to
/// know which frames to compare/emit without scanning the whole device.
///
/// The dirty set is bookkeeping, not content: it is ignored by
/// `PartialEq`, and a write that stores the value already present does not
/// mark the frame. Because marks are never un-done by later writes, the
/// set is a *superset* of a content diff against the state at the last
/// [`ConfigMemory::clear_dirty`] (writing a bit and writing it back leaves
/// the frame marked).
///
/// The dirty set is hierarchical: one bit per frame in `dirty`, plus one
/// summary bit per 64-frame chunk in `dirty_summary` (set iff the chunk
/// word is non-zero). On large devices where stamping touches a handful
/// of columns, iteration and reset walk the summary and skip runs of
/// clean chunks without loading them.
#[derive(Debug, Clone)]
pub struct ConfigMemory {
    geometry: ConfigGeometry,
    /// `total_frames * frame_words` words, frame-major.
    words: Vec<u32>,
    /// One bit per frame: set when the frame was touched since the last
    /// `clear_dirty`. Excluded from equality.
    dirty: Vec<u64>,
    /// One bit per `dirty` word: set iff that word is non-zero. Lets
    /// dirty-set iteration skip 4096-frame spans per summary word.
    dirty_summary: Vec<u64>,
}

impl PartialEq for ConfigMemory {
    fn eq(&self, other: &Self) -> bool {
        // Dirty bits are provenance, not content: two images with the same
        // words are the same configuration regardless of write history.
        self.geometry == other.geometry && self.words == other.words
    }
}

impl Eq for ConfigMemory {}

impl ConfigMemory {
    /// An all-zero (erased) configuration for `device`.
    pub fn new(device: Device) -> Self {
        let geometry = ConfigGeometry::for_device(device);
        let words = vec![0; geometry.total_words()];
        let dirty_words = geometry.total_frames().div_ceil(64);
        let dirty = vec![0; dirty_words];
        let dirty_summary = vec![0; dirty_words.div_ceil(64)];
        ConfigMemory {
            geometry,
            words,
            dirty,
            dirty_summary,
        }
    }

    /// The device this image configures.
    pub fn device(&self) -> Device {
        self.geometry.device()
    }

    /// The configuration geometry.
    pub fn geometry(&self) -> &ConfigGeometry {
        &self.geometry
    }

    /// Frame length in words.
    pub fn frame_words(&self) -> usize {
        self.geometry.frame_words()
    }

    /// Number of frames.
    pub fn frame_count(&self) -> usize {
        self.geometry.total_frames()
    }

    /// Read-only view of frame `idx` (linear index).
    pub fn frame(&self, idx: usize) -> &[u32] {
        let fw = self.frame_words();
        &self.words[idx * fw..(idx + 1) * fw]
    }

    /// Mutable view of frame `idx`. Conservatively marks the frame dirty:
    /// the caller may write anything through the returned slice.
    pub fn frame_mut(&mut self, idx: usize) -> &mut [u32] {
        self.mark_frame_dirty(idx);
        let fw = self.frame_words();
        &mut self.words[idx * fw..(idx + 1) * fw]
    }

    /// Read-only view of `len` consecutive frames starting at linear
    /// index `start` — one contiguous slice of the slab, usable as a
    /// multi-frame FDRI payload without copying frame by frame.
    pub fn frame_span(&self, start: usize, len: usize) -> &[u32] {
        let fw = self.frame_words();
        &self.words[start * fw..(start + len) * fw]
    }

    /// Read-only view of the frame at `far`, if the address is valid.
    pub fn frame_at(&self, far: FrameAddress) -> Option<&[u32]> {
        self.geometry.frame_index(far).map(|i| self.frame(i))
    }

    /// Overwrite the frame at `far` with `data` (must be exactly one frame
    /// long). Returns `false` when the address is invalid.
    pub fn write_frame(&mut self, far: FrameAddress, data: &[u32]) -> bool {
        assert_eq!(data.len(), self.frame_words(), "frame length mismatch");
        match self.geometry.frame_index(far) {
            Some(i) => {
                if self.frame(i) != data {
                    self.mark_frame_dirty(i);
                    let fw = self.frame_words();
                    self.words[i * fw..(i + 1) * fw].copy_from_slice(data);
                }
                true
            }
            None => false,
        }
    }

    /// Zero linear frame `idx`, marking it dirty only if it actually held
    /// content — the erase primitive for module stamping, which keeps the
    /// dirty byproduct close to the true content diff on mostly-empty
    /// fabric.
    pub fn clear_frame(&mut self, idx: usize) {
        if self.frame(idx).iter().any(|&w| w != 0) {
            self.mark_frame_dirty(idx);
            let fw = self.frame_words();
            self.words[idx * fw..(idx + 1) * fw].fill(0);
        }
    }

    /// Get a single configuration bit. `bit` addresses the frame's bit
    /// space, MSB-free: bit `b` lives in word `b / 32`, position `b % 32`.
    pub fn get_bit(&self, frame: usize, bit: usize) -> bool {
        let w = self.frame(frame)[bit / 32];
        (w >> (bit % 32)) & 1 == 1
    }

    /// Set a single configuration bit. Marks the frame dirty only when the
    /// stored value actually changes.
    pub fn set_bit(&mut self, frame: usize, bit: usize, value: bool) {
        let fw = self.frame_words();
        let word = &mut self.words[frame * fw + bit / 32];
        let mask = 1u32 << (bit % 32);
        let next = if value { *word | mask } else { *word & !mask };
        if next != *word {
            *word = next;
            self.mark_frame_dirty(frame);
        }
    }

    /// Read a little-endian field of `width <= 32` bits starting at
    /// (`frame`, `bit`), staying within the frame.
    pub fn get_field(&self, frame: usize, bit: usize, width: usize) -> u32 {
        debug_assert!(width <= 32);
        let mut v = 0u32;
        for i in 0..width {
            if self.get_bit(frame, bit + i) {
                v |= 1 << i;
            }
        }
        v
    }

    /// Write a little-endian field of `width <= 32` bits.
    pub fn set_field(&mut self, frame: usize, bit: usize, width: usize, value: u32) {
        debug_assert!(width <= 32);
        for i in 0..width {
            self.set_bit(frame, bit + i, (value >> i) & 1 == 1);
        }
    }

    /// Linear indices of frames that differ between `self` and `other`
    /// (same device required).
    pub fn diff_frames(&self, other: &ConfigMemory) -> Vec<usize> {
        assert_eq!(self.device(), other.device(), "diff across devices");
        (0..self.frame_count())
            .filter(|&i| self.frame(i) != other.frame(i))
            .collect()
    }

    /// The whole image as a flat word slice (frame-major).
    pub fn as_words(&self) -> &[u32] {
        &self.words
    }

    /// Replace the whole image from a flat word slice. Marks exactly the
    /// frames whose content changes.
    pub fn load_words(&mut self, words: &[u32]) {
        assert_eq!(words.len(), self.words.len(), "image length mismatch");
        let fw = self.frame_words();
        for i in 0..self.frame_count() {
            let span = i * fw..(i + 1) * fw;
            if self.words[span.clone()] != words[span.clone()] {
                self.words[span.clone()].copy_from_slice(&words[span]);
                self.mark_frame_dirty(i);
            }
        }
    }

    /// Reset to the erased (all-zero) state, marking every frame that held
    /// a set bit.
    pub fn clear(&mut self) {
        let fw = self.frame_words();
        for i in 0..self.frame_count() {
            if self.words[i * fw..(i + 1) * fw].iter().any(|&w| w != 0) {
                self.mark_frame_dirty(i);
            }
        }
        self.words.fill(0);
    }

    /// Mark frame `idx` as touched.
    pub fn mark_frame_dirty(&mut self, idx: usize) {
        debug_assert!(idx < self.frame_count());
        let word = idx / 64;
        self.dirty[word] |= 1u64 << (idx % 64);
        self.dirty_summary[word / 64] |= 1u64 << (word % 64);
    }

    /// Whether frame `idx` was touched since the last
    /// [`Self::clear_dirty`].
    pub fn is_frame_dirty(&self, idx: usize) -> bool {
        (self.dirty[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Visit every touched chunk of the dirty bitmap: `(word, bits)`
    /// pairs where `bits` is the non-zero 64-frame chunk at
    /// `dirty[word]`. Walks the summary level, so runs of clean chunks
    /// cost one bit-scan per 4096 frames.
    fn for_each_dirty_word(&self, mut f: impl FnMut(usize, u64)) {
        for (s, &sum) in self.dirty_summary.iter().enumerate() {
            let mut sum_bits = sum;
            while sum_bits != 0 {
                let w = s * 64 + sum_bits.trailing_zeros() as usize;
                sum_bits &= sum_bits - 1;
                f(w, self.dirty[w]);
            }
        }
    }

    /// Linear indices of all touched frames, ascending.
    pub fn dirty_frames(&self) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.dirty_count());
        self.dirty_frames_into(&mut out);
        out
    }

    /// Append the indices of all touched frames to `out`, ascending —
    /// the allocation-free spelling of [`Self::dirty_frames`] for
    /// callers that recycle the vector across generations.
    pub fn dirty_frames_into(&self, out: &mut Vec<usize>) {
        self.for_each_dirty_word(|w, mut bits| {
            while bits != 0 {
                out.push(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        });
    }

    /// Number of touched frames.
    pub fn dirty_count(&self) -> usize {
        let mut n = 0;
        self.for_each_dirty_word(|_, bits| n += bits.count_ones() as usize);
        n
    }

    /// Whether any frame is marked dirty.
    pub fn any_dirty(&self) -> bool {
        self.dirty_summary.iter().any(|&c| c != 0)
    }

    /// Forget all dirty marks, making the current content the new
    /// baseline. Resets only the chunks the summary flags as touched.
    pub fn clear_dirty(&mut self) {
        for (s, sum) in self.dirty_summary.iter_mut().enumerate() {
            let mut sum_bits = *sum;
            while sum_bits != 0 {
                let w = s * 64 + sum_bits.trailing_zeros() as usize;
                sum_bits &= sum_bits - 1;
                self.dirty[w] = 0;
            }
            *sum = 0;
        }
    }

    /// Number of set bits in the whole image (a cheap occupancy proxy used
    /// in tests and benches).
    pub fn popcount(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockType;

    #[test]
    fn starts_erased() {
        let m = ConfigMemory::new(Device::XCV50);
        assert_eq!(m.popcount(), 0);
        assert!(m.as_words().iter().all(|&w| w == 0));
    }

    #[test]
    fn bit_and_field_roundtrip() {
        let mut m = ConfigMemory::new(Device::XCV50);
        m.set_bit(10, 100, true);
        assert!(m.get_bit(10, 100));
        assert!(!m.get_bit(10, 101));
        assert!(!m.get_bit(11, 100));
        m.set_field(3, 40, 16, 0xBEEF);
        assert_eq!(m.get_field(3, 40, 16), 0xBEEF);
        // Overwrite narrower field.
        m.set_field(3, 40, 16, 0x0001);
        assert_eq!(m.get_field(3, 40, 16), 0x0001);
    }

    #[test]
    fn field_spanning_word_boundary() {
        let mut m = ConfigMemory::new(Device::XCV50);
        m.set_field(0, 28, 8, 0xA5);
        assert_eq!(m.get_field(0, 28, 8), 0xA5);
        assert_eq!(m.get_field(0, 28, 4), 0x5);
        assert_eq!(m.get_field(0, 32, 4), 0xA);
    }

    #[test]
    fn frame_write_and_diff() {
        let mut a = ConfigMemory::new(Device::XCV100);
        let b = ConfigMemory::new(Device::XCV100);
        assert!(a.diff_frames(&b).is_empty());
        let far = FrameAddress::new(BlockType::Clb, 2, 5);
        let data = vec![0xDEAD_BEEF; a.frame_words()];
        assert!(a.write_frame(far, &data));
        let idx = a.geometry().frame_index(far).unwrap();
        assert_eq!(a.diff_frames(&b), vec![idx]);
        assert_eq!(a.frame_at(far).unwrap(), &data[..]);
        // Invalid minor rejected.
        let bad = FrameAddress::new(BlockType::Clb, 0, 200);
        assert!(!a.write_frame(bad, &data));
    }

    #[test]
    fn clear_frame_marks_only_frames_with_content() {
        let mut m = ConfigMemory::new(Device::XCV50);
        m.set_bit(4, 10, true);
        m.clear_dirty();
        m.clear_frame(4); // had content: zeroed and marked
        m.clear_frame(5); // already blank: untouched
        assert!(!m.get_bit(4, 10));
        assert_eq!(m.dirty_frames(), vec![4]);
    }

    #[test]
    fn load_words_roundtrip() {
        let mut a = ConfigMemory::new(Device::XCV50);
        a.set_bit(7, 7, true);
        let snapshot: Vec<u32> = a.as_words().to_vec();
        let mut b = ConfigMemory::new(Device::XCV50);
        b.load_words(&snapshot);
        assert_eq!(a, b);
        b.clear();
        assert_eq!(b.popcount(), 0);
    }

    #[test]
    fn starts_clean_and_tracks_writes() {
        let mut m = ConfigMemory::new(Device::XCV50);
        assert!(!m.any_dirty());
        assert_eq!(m.dirty_count(), 0);
        m.set_bit(10, 100, true);
        assert!(m.is_frame_dirty(10));
        assert!(!m.is_frame_dirty(11));
        m.set_field(3, 40, 16, 0xBEEF);
        assert_eq!(m.dirty_frames(), vec![3, 10]);
        assert_eq!(m.dirty_count(), 2);
        m.clear_dirty();
        assert!(!m.any_dirty());
        assert!(m.get_bit(10, 100), "clear_dirty leaves content alone");
    }

    #[test]
    fn no_op_writes_stay_clean() {
        let mut m = ConfigMemory::new(Device::XCV50);
        // Clearing an already-clear bit and writing an already-zero frame
        // change nothing, so nothing is marked.
        m.set_bit(5, 9, false);
        m.set_field(6, 0, 8, 0);
        let zeros = vec![0u32; m.frame_words()];
        assert!(m.write_frame(FrameAddress::new(BlockType::Clb, 1, 0), &zeros));
        m.clear();
        assert!(!m.any_dirty());
    }

    #[test]
    fn frame_mut_marks_conservatively() {
        let mut m = ConfigMemory::new(Device::XCV50);
        let _ = m.frame_mut(42);
        assert!(m.is_frame_dirty(42));
    }

    #[test]
    fn write_frame_and_clear_mark_changed_frames() {
        let mut m = ConfigMemory::new(Device::XCV100);
        let far = FrameAddress::new(BlockType::Clb, 2, 5);
        let data = vec![0x1234_5678; m.frame_words()];
        assert!(m.write_frame(far, &data));
        let idx = m.geometry().frame_index(far).unwrap();
        assert_eq!(m.dirty_frames(), vec![idx]);
        m.clear_dirty();
        // Re-writing identical content is a no-op for the dirty set.
        assert!(m.write_frame(far, &data));
        assert!(!m.any_dirty());
        // clear() marks exactly the frames that held data.
        m.clear();
        assert_eq!(m.dirty_frames(), vec![idx]);
    }

    #[test]
    fn load_words_marks_exact_diff() {
        let mut a = ConfigMemory::new(Device::XCV50);
        a.set_bit(7, 7, true);
        a.set_bit(90, 3, true);
        let snapshot: Vec<u32> = a.as_words().to_vec();
        let mut b = ConfigMemory::new(Device::XCV50);
        b.load_words(&snapshot);
        assert_eq!(b.dirty_frames(), vec![7, 90]);
        b.clear_dirty();
        b.load_words(&snapshot);
        assert!(!b.any_dirty());
    }

    #[test]
    fn equality_ignores_dirty_marks() {
        let mut a = ConfigMemory::new(Device::XCV50);
        let b = ConfigMemory::new(Device::XCV50);
        a.set_bit(0, 0, true);
        a.set_bit(0, 0, false);
        assert!(a.any_dirty());
        assert_eq!(a, b, "write-and-revert leaves content equal");
    }

    #[test]
    fn frame_span_matches_per_frame_views() {
        let mut m = ConfigMemory::new(Device::XCV50);
        m.set_bit(8, 3, true);
        m.set_bit(10, 17, true);
        let span = m.frame_span(8, 3);
        assert_eq!(span.len(), 3 * m.frame_words());
        let fw = m.frame_words();
        for (k, idx) in (8..11).enumerate() {
            assert_eq!(&span[k * fw..(k + 1) * fw], m.frame(idx));
        }
        assert_eq!(m.frame_span(8, 0), &[] as &[u32]);
    }

    #[test]
    fn dirty_frames_into_appends_and_reuses() {
        let mut m = ConfigMemory::new(Device::XCV100);
        m.set_bit(5, 0, true);
        m.set_bit(700, 0, true);
        let mut out = vec![999];
        m.dirty_frames_into(&mut out);
        assert_eq!(out, vec![999, 5, 700]);
        out.clear();
        m.dirty_frames_into(&mut out);
        assert_eq!(out, m.dirty_frames());
    }

    #[test]
    fn summary_survives_clear_and_remark() {
        // Frames far enough apart to land in distinct summary chunks on
        // no device we have — but the same code path must stay exact
        // across mark/clear/mark cycles regardless.
        let mut m = ConfigMemory::new(Device::XCV100);
        for idx in [0, 63, 64, 127, 1000] {
            m.mark_frame_dirty(idx);
        }
        assert_eq!(m.dirty_frames(), vec![0, 63, 64, 127, 1000]);
        assert_eq!(m.dirty_count(), 5);
        m.clear_dirty();
        assert!(!m.any_dirty());
        assert_eq!(m.dirty_count(), 0);
        assert!(m.dirty_frames().is_empty());
        m.mark_frame_dirty(64);
        assert_eq!(m.dirty_frames(), vec![64]);
        assert!(m.is_frame_dirty(64));
        assert!(!m.is_frame_dirty(63));
    }

    #[test]
    fn dirty_is_superset_of_diff() {
        let mut a = ConfigMemory::new(Device::XCV100);
        let base = a.clone();
        a.set_bit(12, 1, true);
        a.set_bit(12, 1, false); // reverted: dirty but not in diff
        a.set_bit(40, 9, true);
        let diff = a.diff_frames(&base);
        let dirty = a.dirty_frames();
        assert_eq!(diff, vec![40]);
        assert_eq!(dirty, vec![12, 40]);
        assert!(diff.iter().all(|f| dirty.contains(f)));
    }
}
