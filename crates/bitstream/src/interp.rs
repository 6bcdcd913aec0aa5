//! The device-side packet interpreter: the configuration-logic state
//! machine that a real Virtex implements in silicon.
//!
//! Feeding a bitstream to an [`Interpreter`] updates its
//! [`virtex::ConfigMemory`] exactly as loading the stream into a device
//! would update the real configuration memory — including FAR
//! auto-increment, the one-frame write pipeline (the last frame of every
//! `FDRI` run is a discarded pad), running-CRC verification and IDCODE
//! checking. The `simboard` crate wraps this interpreter with port timing
//! to model a physical board.

use crate::crc::{crc_covered, Crc16};
use crate::packet::{Op, Packet, PacketError, SYNC_WORD};
use crate::regs::{Command, Register};
use virtex::{ConfigMemory, Device, FrameAddress};

/// Configuration-load errors, corresponding to the silicon's abort
/// conditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A malformed packet header.
    Packet(PacketError),
    /// A type-2 header arrived with no preceding type-1 register.
    OrphanType2,
    /// CRC check write did not match the running CRC.
    CrcMismatch {
        /// Value the bitstream claimed.
        expected: u16,
        /// Value the device accumulated.
        computed: u16,
    },
    /// IDCODE write did not match the device.
    IdcodeMismatch {
        /// Value written.
        written: u32,
        /// The device's own code.
        device: u32,
    },
    /// FLR write disagreed with the device's frame length.
    FrameLengthMismatch {
        /// Value written.
        written: u32,
        /// Real frame length in words.
        device: u32,
    },
    /// FAR write did not decode to a valid frame of this device.
    BadFrameAddress(u32),
    /// FDRI payload was not a whole number of frames.
    FdriAlignment {
        /// Payload length in words.
        words: usize,
    },
    /// FDRI write attempted without a prior `WCFG` command.
    WriteWithoutWcfg,
    /// FDRO read attempted without a prior `RCFG` command.
    ReadWithoutRcfg,
    /// Frame writes ran past the end of the device.
    FrameOverrun,
    /// A write targeted a read-only register.
    ReadOnlyRegister(Register),
    /// Unknown command code written to CMD.
    BadCommand(u32),
    /// The stream ended in the middle of a packet payload.
    TruncatedPayload,
    /// A register read requested more words than a register can supply.
    /// Single-valued registers never need type-2 counts; without this
    /// guard a corrupt read header could demand a multi-hundred-megabyte
    /// readback buffer.
    ReadOverrun {
        /// Register the read targeted.
        register: Register,
        /// Word count the header asked for.
        requested: usize,
    },
    /// A frame readback produced a different number of words than the
    /// request defines — stale undrained data or a device-side stall.
    ReadbackLength {
        /// Words the request should produce (pad frame included).
        expected: usize,
        /// Words actually in the readback buffer.
        got: usize,
    },
    /// The resulting configuration is not a legal circuit (e.g. wire
    /// contention found when the fabric activated). Reported by boards,
    /// not by the packet interpreter itself.
    InvalidConfiguration(String),
    /// The configuration port detected a transfer fault (a dropped or
    /// garbled byte on the cable) and aborted the load; nothing was
    /// committed. Reported by boards/ports, not by the packet
    /// interpreter itself. The transfer is retryable.
    TransferFault,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Packet(e) => write!(f, "packet error: {e}"),
            ConfigError::OrphanType2 => write!(f, "type-2 packet without preceding type-1"),
            ConfigError::CrcMismatch { expected, computed } => write!(
                f,
                "CRC mismatch: stream says {expected:#06x}, device computed {computed:#06x}"
            ),
            ConfigError::IdcodeMismatch { written, device } => write!(
                f,
                "IDCODE mismatch: stream says {written:#010x}, device is {device:#010x}"
            ),
            ConfigError::FrameLengthMismatch { written, device } => {
                write!(
                    f,
                    "FLR mismatch: stream says {written}, device needs {device}"
                )
            }
            ConfigError::BadFrameAddress(w) => write!(f, "invalid FAR value {w:#010x}"),
            ConfigError::FdriAlignment { words } => {
                write!(f, "FDRI payload of {words} words is not frame-aligned")
            }
            ConfigError::WriteWithoutWcfg => write!(f, "FDRI write without WCFG"),
            ConfigError::ReadWithoutRcfg => write!(f, "FDRO read without RCFG"),
            ConfigError::FrameOverrun => write!(f, "frame write ran past end of device"),
            ConfigError::ReadOnlyRegister(r) => write!(f, "write to read-only register {r}"),
            ConfigError::BadCommand(c) => write!(f, "unknown command code {c}"),
            ConfigError::TruncatedPayload => write!(f, "stream truncated mid-payload"),
            ConfigError::ReadOverrun {
                register,
                requested,
            } => write!(f, "read of {requested} words from register {register}"),
            ConfigError::ReadbackLength { expected, got } => {
                write!(
                    f,
                    "readback produced {got} words, request defines {expected}"
                )
            }
            ConfigError::InvalidConfiguration(msg) => {
                write!(f, "configuration is not a legal circuit: {msg}")
            }
            ConfigError::TransferFault => {
                write!(f, "configuration port transfer fault: load aborted")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ConfigError {
    /// Short stable slug naming the error family — the `category` label
    /// on the `interp_errors_total` metric.
    pub fn category(&self) -> &'static str {
        match self {
            ConfigError::Packet(_) => "packet",
            ConfigError::OrphanType2 => "orphan_type2",
            ConfigError::CrcMismatch { .. } => "crc_mismatch",
            ConfigError::IdcodeMismatch { .. } => "idcode_mismatch",
            ConfigError::FrameLengthMismatch { .. } => "frame_length_mismatch",
            ConfigError::BadFrameAddress(_) => "bad_frame_address",
            ConfigError::FdriAlignment { .. } => "fdri_alignment",
            ConfigError::WriteWithoutWcfg => "write_without_wcfg",
            ConfigError::ReadWithoutRcfg => "read_without_rcfg",
            ConfigError::FrameOverrun => "frame_overrun",
            ConfigError::ReadOnlyRegister(_) => "read_only_register",
            ConfigError::BadCommand(_) => "bad_command",
            ConfigError::TruncatedPayload => "truncated_payload",
            ConfigError::ReadOverrun { .. } => "read_overrun",
            ConfigError::ReadbackLength { .. } => "readback_length",
            ConfigError::InvalidConfiguration(_) => "invalid_configuration",
            ConfigError::TransferFault => "transfer_fault",
        }
    }
}

impl From<PacketError> for ConfigError {
    fn from(e: PacketError) -> Self {
        ConfigError::Packet(e)
    }
}

/// A [`ConfigError`] located in the stream that caused it: where the
/// offending packet started and, when the header itself decoded, what
/// packet the interpreter was executing. Produced by
/// [`Interpreter::feed_words_traced`]; the positions index the word
/// slice fed to that call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamDiagnostic {
    /// The underlying abort condition.
    pub error: ConfigError,
    /// Word index of the packet header involved (for pre-sync or header
    /// errors, of the word itself).
    pub word_offset: usize,
    /// Byte offset of that word in the big-endian byte serialization.
    pub byte_offset: usize,
    /// The decoded packet header, when header decode succeeded.
    pub packet: Option<Packet>,
}

impl std::fmt::Display for StreamDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} at byte {} (word {})",
            self.error, self.byte_offset, self.word_offset
        )?;
        if let Some(pkt) = &self.packet {
            write!(f, " in {pkt:?}")?;
        }
        Ok(())
    }
}

impl std::error::Error for StreamDiagnostic {}

/// Loading statistics, used by the board timing model and the benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Total words consumed (including pre-sync dummies).
    pub words_consumed: usize,
    /// Frames actually committed to configuration memory.
    pub frames_written: usize,
    /// Number of CRC checks passed.
    pub crc_checks: usize,
    /// Number of sync events.
    pub syncs: usize,
}

/// The configuration-logic state machine plus the configuration memory it
/// writes.
#[derive(Debug, Clone)]
pub struct Interpreter {
    mem: ConfigMemory,
    crc: Crc16,
    synced: bool,
    last_reg: Option<Register>,
    far: usize,
    cmd: Option<Command>,
    flr_ok: bool,
    ctl: u32,
    mask: u32,
    cor: u32,
    started: bool,
    readback: Vec<u32>,
    stats: LoadStats,
}

impl Interpreter {
    /// A blank device awaiting configuration.
    pub fn new(device: Device) -> Self {
        Interpreter {
            mem: ConfigMemory::new(device),
            crc: Crc16::new(),
            synced: false,
            last_reg: None,
            far: 0,
            cmd: None,
            flr_ok: false,
            ctl: 0,
            mask: 0,
            cor: 0,
            started: false,
            readback: Vec::new(),
            stats: LoadStats::default(),
        }
    }

    /// Wrap an already-configured memory (e.g. for readback of a live
    /// device).
    pub fn with_memory(mem: ConfigMemory) -> Self {
        let mut i = Interpreter::new(mem.device());
        i.mem = mem;
        i
    }

    /// The device being configured.
    pub fn device(&self) -> Device {
        self.mem.device()
    }

    /// The configuration memory in its current state.
    pub fn memory(&self) -> &ConfigMemory {
        &self.mem
    }

    /// Mutable access to the configuration memory — device-internal
    /// facilities (e.g. the CAPTURE path copying flip-flop state into
    /// the configuration plane) write through this.
    pub fn memory_mut(&mut self) -> &mut ConfigMemory {
        &mut self.mem
    }

    /// Consume the interpreter, yielding the configuration memory.
    pub fn into_memory(self) -> ConfigMemory {
        self.mem
    }

    /// Whether a `START` command has activated the design.
    pub fn started(&self) -> bool {
        self.started
    }

    /// The SelectMAP abort sequence: the packet processor drops sync,
    /// so the rest of a failed stream is ignored until the next sync
    /// word. Frames the stream already wrote stay written.
    pub fn abort(&mut self) {
        self.synced = false;
    }

    /// Loading statistics so far.
    pub fn stats(&self) -> LoadStats {
        self.stats
    }

    /// Words produced by FDRO reads since the last
    /// [`Self::take_readback`].
    pub fn take_readback(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.readback)
    }

    /// Feed a whole word stream. Stops at the first error, leaving the
    /// memory in its partially written state (as real silicon would).
    pub fn feed_words(&mut self, words: &[u32]) -> Result<(), ConfigError> {
        self.feed_words_traced(words).map_err(|d| d.error)
    }

    /// [`Self::feed_words`], reporting errors as [`StreamDiagnostic`]s
    /// that locate the offending packet in the stream.
    pub fn feed_words_traced(&mut self, words: &[u32]) -> Result<(), StreamDiagnostic> {
        // Packets are tallied locally and flushed once per feed; typed
        // errors are rare enough to pay the labeled-lookup path.
        let mut packets = 0u64;
        let res = self.feed_words_inner(words, &mut packets);
        obs::counter!("interp_packets_total").add(packets);
        if let Err(d) = &res {
            obs::global()
                .counter("interp_errors_total", &[("category", d.error.category())])
                .inc();
        }
        res
    }

    fn feed_words_inner(
        &mut self,
        words: &[u32],
        packets: &mut u64,
    ) -> Result<(), StreamDiagnostic> {
        let mut i = 0usize;
        while i < words.len() {
            let header_at = i;
            let w = words[i];
            i += 1;
            self.stats.words_consumed += 1;
            if !self.synced {
                if w == SYNC_WORD {
                    self.synced = true;
                    self.stats.syncs += 1;
                    self.last_reg = None;
                }
                continue;
            }
            let diag = |error: ConfigError, packet: Option<Packet>| StreamDiagnostic {
                error,
                word_offset: header_at,
                byte_offset: header_at * 4,
                packet,
            };
            let pkt = Packet::decode(w).map_err(|e| diag(e.into(), None))?;
            *packets += 1;
            let (op, reg, count) = match pkt {
                Packet::Type1 { op, reg, count } => {
                    self.last_reg = Some(reg);
                    (op, reg, count)
                }
                Packet::Type2 { op, count } => {
                    let reg = self
                        .last_reg
                        .ok_or_else(|| diag(ConfigError::OrphanType2, Some(pkt)))?;
                    (op, reg, count)
                }
            };
            match op {
                Op::Nop => {}
                Op::Write => {
                    if words.len() - i < count {
                        return Err(diag(ConfigError::TruncatedPayload, Some(pkt)));
                    }
                    let payload = &words[i..i + count];
                    i += count;
                    self.stats.words_consumed += count;
                    self.write(reg, payload).map_err(|e| diag(e, Some(pkt)))?;
                    // DESYNCH takes effect after its own payload.
                    if !self.synced {
                        continue;
                    }
                }
                Op::Read => {
                    self.read(reg, count).map_err(|e| diag(e, Some(pkt)))?;
                }
            }
        }
        Ok(())
    }

    /// Convenience: feed a [`crate::Bitstream`].
    pub fn feed(&mut self, bs: &crate::Bitstream) -> Result<(), ConfigError> {
        self.feed_words(bs.words())
    }

    /// Convenience: feed a [`crate::Bitstream`] with stream diagnostics.
    pub fn feed_traced(&mut self, bs: &crate::Bitstream) -> Result<(), StreamDiagnostic> {
        self.feed_words_traced(bs.words())
    }

    fn write(&mut self, reg: Register, payload: &[u32]) -> Result<(), ConfigError> {
        // CRC first: the silicon accumulates as words arrive, before the
        // register side effects.
        if crc_covered(reg) {
            self.crc.update_slice(reg, payload);
        }
        match reg {
            Register::Crc => {
                for &w in payload {
                    let computed = self.crc.value();
                    let expected = w as u16;
                    if computed != expected {
                        return Err(ConfigError::CrcMismatch { expected, computed });
                    }
                    self.crc.reset();
                    self.stats.crc_checks += 1;
                }
            }
            Register::Far => {
                for &w in payload {
                    let far = FrameAddress::from_word(w)
                        .and_then(|fa| self.mem.geometry().frame_index(fa))
                        .ok_or(ConfigError::BadFrameAddress(w))?;
                    self.far = far;
                }
            }
            Register::Fdri => {
                if self.cmd != Some(Command::Wcfg) {
                    return Err(ConfigError::WriteWithoutWcfg);
                }
                if !self.flr_ok {
                    return Err(ConfigError::FrameLengthMismatch {
                        written: 0,
                        device: self.mem.frame_words() as u32,
                    });
                }
                let fw = self.mem.frame_words();
                if !payload.len().is_multiple_of(fw) {
                    return Err(ConfigError::FdriAlignment {
                        words: payload.len(),
                    });
                }
                let frames = payload.len() / fw;
                // Last frame is the pipeline pad: committed count is
                // frames - 1 (a run of just one frame writes nothing).
                let committed = frames.saturating_sub(1);
                if self.far + committed > self.mem.frame_count() {
                    return Err(ConfigError::FrameOverrun);
                }
                for k in 0..committed {
                    self.mem
                        .frame_mut(self.far + k)
                        .copy_from_slice(&payload[k * fw..(k + 1) * fw]);
                }
                self.far += committed;
                self.stats.frames_written += committed;
            }
            Register::Cmd => {
                for &w in payload {
                    let cmd = Command::from_code(w).ok_or(ConfigError::BadCommand(w))?;
                    self.cmd = Some(cmd);
                    match cmd {
                        Command::Rcrc => self.crc.reset(),
                        Command::Start => self.started = true,
                        Command::Desynch => {
                            self.synced = false;
                        }
                        _ => {}
                    }
                }
            }
            Register::Flr => {
                for &w in payload {
                    let device = self.mem.frame_words() as u32;
                    if w != device {
                        return Err(ConfigError::FrameLengthMismatch { written: w, device });
                    }
                    self.flr_ok = true;
                }
            }
            Register::Idcode => {
                for &w in payload {
                    let device = self.mem.device().idcode();
                    if w != device {
                        return Err(ConfigError::IdcodeMismatch { written: w, device });
                    }
                }
            }
            Register::Ctl => {
                for &w in payload {
                    self.ctl = (self.ctl & !self.mask) | (w & self.mask);
                }
            }
            Register::Mask => {
                for &w in payload {
                    self.mask = w;
                }
            }
            Register::Cor => {
                for &w in payload {
                    self.cor = w;
                }
            }
            Register::Lout => {} // daisy-chain output: discarded
            Register::Stat | Register::Fdro => {
                return Err(ConfigError::ReadOnlyRegister(reg));
            }
        }
        Ok(())
    }

    fn read(&mut self, reg: Register, count: usize) -> Result<(), ConfigError> {
        match reg {
            Register::Fdro => {
                if count == 0 {
                    // Zero-count type-1 header announcing a type-2 read.
                    return Ok(());
                }
                if self.cmd != Some(Command::Rcfg) {
                    return Err(ConfigError::ReadWithoutRcfg);
                }
                let fw = self.mem.frame_words();
                if !count.is_multiple_of(fw) {
                    return Err(ConfigError::FdriAlignment { words: count });
                }
                let frames = count / fw;
                // Readback delivers one pad frame first, then real frames.
                self.readback.extend(std::iter::repeat_n(0, fw));
                let real = frames.saturating_sub(1);
                if self.far + real > self.mem.frame_count() {
                    return Err(ConfigError::FrameOverrun);
                }
                for k in 0..real {
                    self.readback
                        .extend_from_slice(self.mem.frame(self.far + k));
                }
                self.far += real;
            }
            _ => {
                if count == 0 {
                    // Zero-count type-1 header announcing a type-2 read.
                    return Ok(());
                }
                // Other registers readable: return stored values. They
                // are single-valued, so a count beyond the type-1 space
                // can only come from a corrupt or hostile type-2 header —
                // reject it rather than allocate a giant buffer.
                if count > crate::packet::TYPE1_MAX_COUNT {
                    return Err(ConfigError::ReadOverrun {
                        register: reg,
                        requested: count,
                    });
                }
                let v = match reg {
                    Register::Ctl => self.ctl,
                    Register::Cor => self.cor,
                    Register::Stat => u32::from(self.started),
                    Register::Far => self
                        .mem
                        .geometry()
                        .frame_address(self.far)
                        .map(|fa| fa.to_word())
                        .unwrap_or(0),
                    Register::Idcode => self.mem.device().idcode(),
                    _ => 0,
                };
                for _ in 0..count {
                    self.readback.push(v);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitgen::{full_bitstream, partial_bitstream, FrameRange};
    use crate::writer::BitstreamWriter;
    use virtex::BlockType;

    fn patterned_memory(d: Device, seed: u32) -> ConfigMemory {
        let mut mem = ConfigMemory::new(d);
        let n = mem.frame_count();
        let fw = mem.frame_words();
        for f in 0..n {
            for w in 0..fw {
                mem.frame_mut(f)[w] = seed
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add((f * fw + w) as u32);
            }
        }
        mem
    }

    #[test]
    fn full_roundtrip_restores_memory() {
        let mem = patterned_memory(Device::XCV50, 1);
        let bs = full_bitstream(&mem);
        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed(&bs).unwrap();
        assert_eq!(dev.memory(), &mem);
        assert!(dev.started());
        assert_eq!(dev.stats().frames_written, mem.frame_count());
        assert!(dev.stats().crc_checks >= 1);
    }

    #[test]
    fn partial_updates_only_targeted_column() {
        let base = patterned_memory(Device::XCV100, 1);
        let mut variant = base.clone();
        // Change something inside CLB column 7.
        let geom = base.geometry().clone();
        let major = geom.major_for_clb_col(7).unwrap();
        let range = FrameRange::for_column(&geom, BlockType::Clb, major).unwrap();
        for f in range.frames() {
            variant.frame_mut(f)[0] ^= 0xFFFF_0000;
        }

        // Configure with base, then apply the partial of the variant.
        let mut dev = Interpreter::new(Device::XCV100);
        dev.feed(&full_bitstream(&base)).unwrap();
        let partial = partial_bitstream(&variant, &[range]);
        dev.feed(&partial).unwrap();
        assert_eq!(dev.memory(), &variant);
    }

    #[test]
    fn crc_corruption_is_detected() {
        let mem = patterned_memory(Device::XCV50, 2);
        let bs = full_bitstream(&mem);
        let mut words = bs.words().to_vec();
        // Flip a bit deep inside the FDRI payload.
        let mid = words.len() / 2;
        words[mid] ^= 1;
        let mut dev = Interpreter::new(Device::XCV50);
        let err = dev.feed_words(&words).unwrap_err();
        assert!(matches!(err, ConfigError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn wrong_device_rejected_by_idcode() {
        let mem = ConfigMemory::new(Device::XCV50);
        let bs = full_bitstream(&mem);
        let mut dev = Interpreter::new(Device::XCV100);
        let err = dev.feed(&bs).unwrap_err();
        assert!(matches!(err, ConfigError::IdcodeMismatch { .. }), "{err}");
    }

    #[test]
    fn fdri_without_wcfg_rejected() {
        let mem = ConfigMemory::new(Device::XCV50);
        let fw = mem.frame_words();
        let mut w = BitstreamWriter::new();
        w.sync()
            .write_reg(Register::Flr, &[fw as u32])
            .write_reg(Register::Idcode, &[Device::XCV50.idcode()])
            .write_reg_auto(Register::Fdri, &vec![0u32; fw * 2]);
        let mut dev = Interpreter::new(Device::XCV50);
        let err = dev.feed(&w.finish()).unwrap_err();
        assert_eq!(err, ConfigError::WriteWithoutWcfg);
    }

    #[test]
    fn misaligned_fdri_rejected() {
        let mem = ConfigMemory::new(Device::XCV50);
        let fw = mem.frame_words();
        let mut w = BitstreamWriter::new();
        w.sync()
            .write_reg(Register::Flr, &[fw as u32])
            .command(Command::Wcfg)
            .write_reg_auto(Register::Fdri, &vec![0u32; fw + 1]);
        let mut dev = Interpreter::new(Device::XCV50);
        let err = dev.feed(&w.finish()).unwrap_err();
        assert!(matches!(err, ConfigError::FdriAlignment { .. }));
    }

    #[test]
    fn pre_sync_noise_is_ignored() {
        let mem = patterned_memory(Device::XCV50, 3);
        let bs = full_bitstream(&mem);
        let mut words = vec![0x1234_5678, 0, 0xFFFF_FFFF];
        words.extend_from_slice(bs.words());
        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed_words(&words).unwrap();
        assert_eq!(dev.memory(), &mem);
        assert_eq!(dev.stats().syncs, 1);
    }

    #[test]
    fn desynch_stops_packet_processing() {
        let mem = patterned_memory(Device::XCV50, 4);
        let bs = full_bitstream(&mem);
        let mut words = bs.words().to_vec();
        // Garbage after DESYNCH must be ignored, not parsed as packets.
        words.extend_from_slice(&[0xDEAD_BEEF, 0x0BAD_F00D]);
        let mut dev = Interpreter::new(Device::XCV50);
        dev.feed_words(&words).unwrap();
        assert_eq!(dev.memory(), &mem);
    }

    #[test]
    fn truncated_stream_reports_error() {
        let mem = patterned_memory(Device::XCV50, 5);
        let bs = full_bitstream(&mem);
        let words = &bs.words()[..bs.word_len() / 2];
        let mut dev = Interpreter::new(Device::XCV50);
        let err = dev.feed_words(words).unwrap_err();
        assert_eq!(err, ConfigError::TruncatedPayload);
    }

    #[test]
    fn stat_read_honors_word_count() {
        // Regression: STAT reads used to push exactly one word no matter
        // what the header asked for, desynchronizing the readback buffer
        // from the request by `count - 1` words.
        let mut dev = Interpreter::new(Device::XCV50);
        let words = [
            crate::packet::DUMMY_WORD,
            SYNC_WORD,
            Packet::read1(Register::Stat, 3).encode(),
        ];
        dev.feed_words(&words).unwrap();
        assert_eq!(dev.take_readback(), vec![0, 0, 0]);
    }

    #[test]
    fn register_read_with_type2_count_is_rejected() {
        // Regression: a type-2 read header targeting a single-valued
        // register used to allocate `count` words of readback buffer —
        // up to 512 MB from one corrupt 32-bit header.
        let mut dev = Interpreter::new(Device::XCV50);
        let words = [
            crate::packet::DUMMY_WORD,
            SYNC_WORD,
            Packet::read1(Register::Ctl, 0).encode(),
            Packet::Type2 {
                op: Op::Read,
                count: 1 << 26,
            }
            .encode(),
        ];
        let err = dev.feed_words(&words).unwrap_err();
        assert_eq!(
            err,
            ConfigError::ReadOverrun {
                register: Register::Ctl,
                requested: 1 << 26,
            }
        );
        assert!(dev.take_readback().is_empty());
    }

    #[test]
    fn traced_feed_locates_bad_opcode() {
        let mem = patterned_memory(Device::XCV50, 7);
        let bs = full_bitstream(&mem);
        let mut words = bs.words().to_vec();
        // Corrupt the IDCODE packet header (word 4: dummy, sync, CMD
        // header, RCRC, then the IDCODE header) into reserved opcode 3.
        words[4] = (1 << 29) | (3 << 27);
        let mut dev = Interpreter::new(Device::XCV50);
        let d = dev.feed_words_traced(&words).unwrap_err();
        assert_eq!(d.error, ConfigError::Packet(PacketError::BadOp(3)));
        assert_eq!(d.word_offset, 4);
        assert_eq!(d.byte_offset, 16);
        assert_eq!(d.packet, None);
        assert!(d.to_string().contains("byte 16"), "{d}");
    }

    #[test]
    fn traced_feed_locates_truncation_and_its_packet() {
        let mem = patterned_memory(Device::XCV50, 8);
        let bs = full_bitstream(&mem);
        let words = bs.words();
        // Find the FDRI type-2 header and cut the stream shortly after.
        let fdri2_at = words
            .iter()
            .position(|&w| matches!(Packet::decode(w), Ok(Packet::Type2 { .. })))
            .expect("full stream uses a type-2 FDRI write");
        let mut dev = Interpreter::new(Device::XCV50);
        let d = dev.feed_words_traced(&words[..fdri2_at + 10]).unwrap_err();
        assert_eq!(d.error, ConfigError::TruncatedPayload);
        assert_eq!(d.word_offset, fdri2_at);
        assert_eq!(d.byte_offset, fdri2_at * 4);
        assert!(matches!(
            d.packet,
            Some(Packet::Type2 { op: Op::Write, .. })
        ));
    }

    #[test]
    fn traced_feed_locates_crc_mismatch() {
        let mem = patterned_memory(Device::XCV50, 9);
        let bs = full_bitstream(&mem);
        let mut words = bs.words().to_vec();
        let mid = words.len() / 2;
        words[mid] ^= 1;
        let crc_hdr = Packet::write1(Register::Crc, 1).encode();
        let crc_at = words.iter().position(|&w| w == crc_hdr).unwrap();
        let mut dev = Interpreter::new(Device::XCV50);
        let d = dev.feed_words_traced(&words).unwrap_err();
        assert!(matches!(d.error, ConfigError::CrcMismatch { .. }));
        assert_eq!(d.word_offset, crc_at, "diagnostic points at the CRC packet");
    }

    #[test]
    fn readback_returns_frames() {
        let mem = patterned_memory(Device::XCV50, 6);
        let mut dev = Interpreter::with_memory(mem.clone());
        let fw = mem.frame_words();
        let mut w = BitstreamWriter::new();
        w.sync()
            .write_reg(Register::Far, &[0])
            .command(Command::Rcfg);
        // Read 3 real frames (plus the pad frame first).
        let mut words = w.finish().words().to_vec();
        words.push(Packet::read1(Register::Fdro, 4 * fw).encode());
        dev.feed_words(&words).unwrap();
        let rb = dev.take_readback();
        assert_eq!(rb.len(), 4 * fw);
        assert_eq!(&rb[fw..2 * fw], mem.frame(0));
        assert_eq!(&rb[2 * fw..3 * fw], mem.frame(1));
        assert_eq!(&rb[3 * fw..4 * fw], mem.frame(2));
    }
}
