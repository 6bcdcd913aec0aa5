//! Property tests for the bitstream format layer: container round-trips,
//! packet header round-trips through the device-side interpreter, and
//! CRC stability under frame-range coalescing.

use bitstream::bitgen::{self, coalesce_frames, FrameRange};
use bitstream::packet::{Op, Packet, SYNC_WORD, TYPE1_MAX_COUNT, TYPE2_MAX_COUNT};
use bitstream::{Bitstream, BitstreamWriter, Command, Interpreter, Register};
use proptest::prelude::*;
use virtex::{ConfigMemory, Device};

proptest! {
    /// `to_bytes` → `from_bytes` is the identity on any word sequence.
    #[test]
    fn bitstream_bytes_roundtrip(words in proptest::collection::vec(0u32..u32::MAX, 0..200)) {
        let bs = Bitstream::from_words(words.clone());
        let bytes = bs.to_bytes();
        prop_assert_eq!(bytes.len(), words.len() * 4);
        let back = Bitstream::from_bytes(&bytes).expect("whole words");
        prop_assert_eq!(back.words(), &words[..]);
    }

    /// Byte streams that are not a whole number of words are rejected.
    #[test]
    fn bitstream_rejects_ragged_bytes(words in proptest::collection::vec(0u32..u32::MAX, 1..50),
                                      cut in 1usize..4) {
        let bytes = Bitstream::from_words(words).to_bytes();
        prop_assert!(Bitstream::from_bytes(&bytes[..bytes.len() - cut]).is_none());
    }

    /// Type-1 write headers survive encode → decode for every register
    /// and count.
    #[test]
    fn type1_header_roundtrip(reg_idx in 0usize..12, count in 0usize..TYPE1_MAX_COUNT + 1) {
        let reg = Register::ALL[reg_idx];
        let p = Packet::write1(reg, count);
        prop_assert_eq!(Packet::decode(p.encode()), Ok(p));
    }

    /// Type-2 write headers survive encode → decode across the whole
    /// 27-bit count space.
    #[test]
    fn type2_header_roundtrip(count in 0usize..TYPE2_MAX_COUNT + 1) {
        let p = Packet::write2(count);
        prop_assert_eq!(Packet::decode(p.encode()), Ok(p));
        if let Packet::Type2 { op, count: c } = Packet::decode(p.encode()).unwrap() {
            prop_assert_eq!(op, Op::Write);
            prop_assert_eq!(c, count);
        }
    }

    /// A generated partial round-trips through the device-side packet
    /// interpreter: encode → interp decode reproduces the image, CRC
    /// checks and all.
    #[test]
    fn partial_roundtrips_through_interpreter(
        bits in proptest::collection::vec((0usize..800, 0usize..300), 1..40)
    ) {
        let mut mem = ConfigMemory::new(Device::XCV50);
        let frame_bits = mem.geometry().frame_bits();
        let frames = mem.frame_count();
        for (f, b) in bits {
            mem.set_bit(f % frames, b % frame_bits, true);
        }
        let ranges = coalesce_frames(mem.dirty_frames());
        let partial = bitgen::partial_bitstream(&mem, &ranges);
        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed(&partial).expect("partial decodes cleanly");
        prop_assert_eq!(dev.memory(), &mem);
    }

    /// Hand-built packet streams with multiple FAR seeks, interleaved
    /// CRC checks and CRC resets round-trip through the interpreter:
    /// whatever mix of runs the writer emits, the device lands exactly
    /// the frames the oracle says, and every mid-stream CRC check
    /// passes (the writer's running CRC and the silicon's stay in step
    /// across resets).
    #[test]
    fn multi_far_runs_with_midstream_crc_checks_roundtrip(
        runs in proptest::collection::vec((0usize..800, 1usize..6, 1u32..0xFFFF), 1..8),
        check_mask in 0u32..256,
        rcrc_mask in 0u32..256
    ) {
        let mut oracle = ConfigMemory::new(Device::XCV50);
        let geom = oracle.geometry().clone();
        let total = geom.total_frames();
        let fw = geom.frame_words();

        let mut w = BitstreamWriter::new();
        w.sync()
            .command(Command::Rcrc)
            .reset_crc()
            .write_reg(Register::Idcode, &[Device::XCV50.idcode()])
            .write_reg(Register::Flr, &[fw as u32]);
        for (k, &(start, len, seed)) in runs.iter().enumerate() {
            let start = start % total;
            let len = len.min(total - start);
            let mut payload = Vec::with_capacity((len + 1) * fw);
            for f in start..start + len {
                for word in 0..fw {
                    let v = seed.wrapping_mul(0x9E37_79B9).wrapping_add((f * fw + word) as u32);
                    oracle.frame_mut(f)[word] = v;
                    payload.push(v);
                }
            }
            payload.extend(std::iter::repeat_n(0, fw)); // pipeline pad
            let far = geom.frame_address(start).unwrap().to_word();
            w.write_reg(Register::Far, &[far])
                .command(Command::Wcfg)
                .write_reg_auto(Register::Fdri, &payload);
            if check_mask >> k & 1 == 1 {
                w.write_crc();
            }
            if rcrc_mask >> k & 1 == 1 {
                w.command(Command::Rcrc).reset_crc();
            }
        }
        w.write_crc()
            .command(Command::Lfrm)
            .command(Command::Start)
            .command(Command::Desynch);
        let bs = w.finish();

        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed(&bs).expect("stream decodes cleanly");
        prop_assert_eq!(dev.memory(), &oracle);
        prop_assert!(dev.stats().crc_checks >= 1);
        prop_assert!(dev.started());
    }

    /// Garbage after the DESYNCH tail is inert — the packet processor is
    /// out of the stream and must neither error nor write — and a fresh
    /// sync'd stream after the garbage still applies.
    #[test]
    fn desynch_tail_garbage_is_inert_and_resync_works(
        tail in proptest::collection::vec(0u32..u32::MAX, 0..40),
        bits in proptest::collection::vec((0usize..100, 0usize..200), 1..10)
    ) {
        let mut mem = ConfigMemory::new(Device::XCV50);
        let frame_bits = mem.geometry().frame_bits();
        let frames = mem.frame_count();
        for &(f, b) in &bits {
            mem.set_bit(f % frames, b % frame_bits, true);
        }
        let ranges = coalesce_frames(mem.dirty_frames());
        let partial = bitgen::partial_bitstream(&mem, &ranges);
        let mut words = partial.words().to_vec();
        // A sync word in the tail would legitimately re-arm the port;
        // everything else must be swallowed silently.
        words.extend(tail.into_iter().filter(|&w| w != SYNC_WORD));

        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed_words(&words).expect("tail garbage is ignored");
        prop_assert_eq!(dev.memory(), &mem);
        prop_assert_eq!(dev.stats().syncs, 1);

        // The port accepts and applies a fresh stream afterwards.
        let mut mem2 = mem.clone();
        mem2.set_bit(0, 0, true);
        let p2 = bitgen::partial_bitstream(&mem2, &[FrameRange::new(0, 1)]);
        dev.feed(&p2).expect("resync after garbage tail");
        prop_assert_eq!(dev.memory(), &mem2);
        prop_assert_eq!(dev.stats().syncs, 2);
    }

    /// Coalescing is idempotent: re-flattening and re-coalescing the
    /// ranges changes nothing.
    #[test]
    fn coalesce_is_idempotent(frames in proptest::collection::vec(0usize..1000, 0..120)) {
        let ranges = coalesce_frames(frames);
        let flat: Vec<usize> = ranges.iter().flat_map(FrameRange::frames).collect();
        prop_assert_eq!(coalesce_frames(flat), ranges);
    }

    /// Coalescing is invariant under input ordering and duplication, so
    /// the emitted packet stream — and with it the running CRC — is
    /// byte-for-byte stable no matter how the dirty set was collected.
    #[test]
    fn crc_is_stable_under_coalescing_order(
        frames in proptest::collection::vec(0usize..900, 1..80),
        rot in 0usize..80
    ) {
        let mut mem = ConfigMemory::new(Device::XCV100);
        let frames: Vec<usize> = frames.into_iter().map(|f| f % mem.frame_count()).collect();
        for &f in &frames {
            mem.set_bit(f, 3, true);
        }
        // Same set, different presentation orders (rotated + duplicated).
        let mut shuffled = frames.clone();
        let pivot = rot % shuffled.len();
        shuffled.rotate_left(pivot);
        shuffled.extend_from_slice(&frames[..frames.len() / 2]);

        let a = coalesce_frames(frames);
        let b = coalesce_frames(shuffled);
        prop_assert_eq!(&a, &b);
        let bs_a = bitgen::partial_bitstream(&mem, &a);
        let bs_b = bitgen::partial_bitstream(&mem, &b);
        prop_assert_eq!(bs_a.to_bytes(), bs_b.to_bytes());
    }
}
