//! The SelectMAP configuration port: the byte-wide interface Virtex
//! boards expose, with its timing model.
//!
//! SelectMAP accepts one byte per CCLK cycle. At the 50 MHz the paper-era
//! boards ran, a bitstream of *N* bytes takes *N* / 50 MHz to download —
//! the entire basis of "partial bitstreams reconfigure faster".

use bitstream::{Bitstream, ConfigError, Interpreter};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;
use virtex::Device;

/// Configuration clock frequency of the modeled port.
pub const SELECTMAP_HZ: u64 = 50_000_000;

/// A deterministic, seedable fault model for the configuration cable.
///
/// Each [`SelectMap::load`] draws from the injector's own generator, so
/// for a given `(rate, seed)` the *k*-th download always meets the same
/// fate — runs are reproducible regardless of thread interleaving as
/// long as each board keeps its own injector. Two fault flavors
/// alternate randomly:
///
/// * **dropped transfer** — the port detects the fault mid-stream and
///   aborts: nothing is committed, the load returns
///   [`ConfigError::TransferFault`], and the wasted bytes still count
///   toward the timing model (the cable was busy);
/// * **silent corruption** — the load completes "successfully" but one
///   bit of one frame the stream wrote has flipped. Only a readback
///   compare can catch this flavor, which is exactly why serving-grade
///   reconfiguration verifies every download.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rate: f64,
    rng: StdRng,
    injected: u64,
}

impl FaultInjector {
    /// An injector firing on each load with probability `rate`,
    /// deterministic in `seed`.
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate out of range");
        FaultInjector {
            rate,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// Configured fault probability per load.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Decide the fate of the next download. Consumes exactly the same
    /// generator draws whether or not a fault fires, so the *k*-th load
    /// on a given `(rate, seed)` injector always meets the same fate —
    /// the property both [`SelectMap::load`] and the fleet's virtual-
    /// time scheduler rely on to replay schedules from a seed.
    pub fn draw(&mut self) -> FaultKind {
        let rate = self.rate;
        if self.rng.gen_bool(rate) {
            self.injected += 1;
            if self.rng.gen_bool(0.5) {
                FaultKind::Drop
            } else {
                FaultKind::Corrupt
            }
        } else {
            FaultKind::Clean
        }
    }
}

/// What a [`FaultInjector`] decided for one load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The download goes through untouched.
    Clean,
    /// The transfer aborts mid-stream ([`ConfigError::TransferFault`]);
    /// nothing commits but the cable time is spent.
    Drop,
    /// The download "succeeds" with one bit of one written frame
    /// flipped — only a readback compare catches it.
    Corrupt,
}

/// A SelectMAP port wrapping the device-side packet interpreter and
/// keeping cumulative timing statistics.
#[derive(Debug, Clone)]
pub struct SelectMap {
    interp: Interpreter,
    bytes_loaded: u64,
    downloads: u64,
    fault: Option<FaultInjector>,
}

impl SelectMap {
    /// A port attached to a blank `device`.
    pub fn new(device: Device) -> Self {
        SelectMap {
            interp: Interpreter::new(device),
            bytes_loaded: 0,
            downloads: 0,
            fault: None,
        }
    }

    /// The device behind the port.
    pub fn device(&self) -> Device {
        self.interp.device()
    }

    /// Install (or clear) the port's fault injector.
    pub fn set_fault_injector(&mut self, injector: Option<FaultInjector>) {
        self.fault = injector;
    }

    /// The installed fault injector, if any.
    pub fn fault_injector(&self) -> Option<&FaultInjector> {
        self.fault.as_ref()
    }

    /// Push a bitstream through the port.
    pub fn load(&mut self, bs: &Bitstream) -> Result<(), ConfigError> {
        self.bytes_loaded += bs.byte_len() as u64;
        self.downloads += 1;
        obs::counter!("simboard_downloads_total").inc();
        obs::counter!("simboard_download_bytes_total").add(bs.byte_len() as u64);
        // The port's time is simulated (byte-per-CCLK), so the download
        // "span" carries the model's duration, not wall-clock.
        obs::record_duration("download", download_time(bs.byte_len()), &[]);
        let draw = match &mut self.fault {
            Some(f) => f.draw(),
            None => FaultKind::Clean,
        };
        match draw {
            FaultKind::Clean => {}
            FaultKind::Drop => {
                obs::counter!("simboard_faults_injected_total", "kind" => "drop").inc();
            }
            FaultKind::Corrupt => {
                obs::counter!("simboard_faults_injected_total", "kind" => "corrupt").inc();
            }
        }
        match draw {
            FaultKind::Clean => self.interp.feed(bs),
            FaultKind::Drop => Err(ConfigError::TransferFault),
            FaultKind::Corrupt => self.corrupt(|interp| interp.feed(bs)),
        }
    }

    /// Run `apply`, then flip one bit of a frame it wrote. Landing the
    /// corruption inside this load's frames guarantees a retry of the
    /// same stream heals it: the frames the load marks dirty are the
    /// victim pool. Frames already dirty before the load (written by an
    /// earlier load that failed, and not yet re-decoded by the board)
    /// stay marked either way.
    fn corrupt<T>(
        &mut self,
        apply: impl FnOnce(&mut Interpreter) -> Result<T, ConfigError>,
    ) -> Result<T, ConfigError> {
        let pending = self.interp.memory().dirty_frames();
        self.interp.memory_mut().clear_dirty();
        let applied = apply(&mut self.interp);
        let written = self.interp.memory().dirty_frames();
        let mem = self.interp.memory_mut();
        for &frame in &pending {
            mem.mark_frame_dirty(frame);
        }
        let out = applied?;
        if let Some(f) = &mut self.fault {
            if !written.is_empty() {
                let frame = written[f.rng.gen_range(0..written.len())];
                let bit = f.rng.gen_range(0..mem.geometry().frame_bits());
                let old = mem.get_bit(frame, bit);
                mem.set_bit(frame, bit, !old);
            }
        }
        Ok(out)
    }

    /// Push a compressed wire container through the port, decoding it
    /// stream-wise on the device side ([`wire::apply_streaming`]).
    ///
    /// The byte-per-CCLK cost is the *container's* length — the whole
    /// point of the wire format: fewer bytes cross the cable for the
    /// same configuration. Fault fates mirror [`Self::load`] exactly:
    /// a dropped transfer commits nothing but spends the cable time; a
    /// corrupt transfer completes and flips one bit in a written frame.
    ///
    /// On success the decoder's [`wire::ApplyStats`] come back so
    /// callers can surface `peak_buffer_words` (the device-side carry
    /// buffer high-water mark) without re-decoding the container.
    pub fn load_wire(&mut self, container: &[u8]) -> Result<wire::ApplyStats, ConfigError> {
        self.bytes_loaded += container.len() as u64;
        self.downloads += 1;
        obs::counter!("simboard_downloads_total").inc();
        obs::counter!("simboard_download_bytes_total").add(container.len() as u64);
        obs::record_duration("download", download_time(container.len()), &[]);
        let draw = match &mut self.fault {
            Some(f) => f.draw(),
            None => FaultKind::Clean,
        };
        let apply = |interp: &mut Interpreter| {
            wire::apply_streaming(interp, container).map_err(|e| match e {
                wire::ApplyError::Config(c) => c,
                wire::ApplyError::Wire(w) => {
                    ConfigError::InvalidConfiguration(format!("wire: {w}"))
                }
            })
        };
        match draw {
            FaultKind::Clean => apply(&mut self.interp),
            FaultKind::Drop => {
                obs::counter!("simboard_faults_injected_total", "kind" => "drop").inc();
                Err(ConfigError::TransferFault)
            }
            FaultKind::Corrupt => {
                obs::counter!("simboard_faults_injected_total", "kind" => "corrupt").inc();
                self.corrupt(apply)
            }
        }
    }

    /// Cumulative bytes pushed through the port.
    pub fn bytes_loaded(&self) -> u64 {
        self.bytes_loaded
    }

    /// Number of load operations.
    pub fn downloads(&self) -> u64 {
        self.downloads
    }

    /// Cumulative configuration time under the byte-per-cycle model.
    pub fn total_config_time(&self) -> Duration {
        download_time(self.bytes_loaded as usize)
    }

    /// The interpreter (device-side state).
    pub fn interpreter(&self) -> &Interpreter {
        &self.interp
    }

    /// Mutable access to the interpreter (for readback).
    pub fn interpreter_mut(&mut self) -> &mut Interpreter {
        &mut self.interp
    }
}

/// Download time for `bytes` under the SelectMAP model, in nanoseconds —
/// the integer the fleet's discrete-event virtual clock advances by.
pub fn download_ns(bytes: usize) -> u64 {
    bytes as u64 * 1_000_000_000 / SELECTMAP_HZ
}

/// Download time for `bytes` under the SelectMAP model.
pub fn download_time(bytes: usize) -> Duration {
    Duration::from_nanos(download_ns(bytes))
}

/// TCK frequency of the modeled JTAG port.
pub const JTAG_HZ: u64 = 33_000_000;

/// Download time for `bytes` over JTAG (1 bit per TCK): the slow path
/// boards fall back to, ~12x worse than SelectMAP — which is why paper-era
/// RC systems cared so much about bitstream size.
pub fn jtag_download_time(bytes: usize) -> Duration {
    Duration::from_nanos(bytes as u64 * 8 * 1_000_000_000 / JTAG_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitstream::full_bitstream;
    use virtex::ConfigMemory;

    #[test]
    fn timing_is_proportional_to_bytes() {
        assert_eq!(download_time(50_000_000), Duration::from_secs(1));
        assert_eq!(download_time(0), Duration::ZERO);
        let t1 = download_time(1000);
        let t3 = download_time(3000);
        assert_eq!(t3, t1 * 3);
        assert_eq!(download_ns(1000), download_time(1000).as_nanos() as u64);
    }

    #[test]
    fn fault_draws_are_deterministic_per_seed() {
        let fates = |seed: u64| -> Vec<FaultKind> {
            let mut f = FaultInjector::new(0.5, seed);
            (0..64).map(|_| f.draw()).collect()
        };
        assert_eq!(fates(9), fates(9), "same seed, same fate sequence");
        assert_ne!(fates(9), fates(10), "different seeds diverge");
        let mut f = FaultInjector::new(0.0, 3);
        assert!((0..32).all(|_| f.draw() == FaultKind::Clean));
        assert_eq!(f.injected(), 0);
        let mut f = FaultInjector::new(1.0, 3);
        assert!((0..32).all(|_| f.draw() != FaultKind::Clean));
        assert_eq!(f.injected(), 32);
    }

    #[test]
    fn jtag_is_slower_than_selectmap() {
        let b = 100_000;
        assert!(jtag_download_time(b) > download_time(b) * 10);
        assert_eq!(jtag_download_time(0), Duration::ZERO);
    }

    #[test]
    fn port_accumulates_stats() {
        let mem = ConfigMemory::new(Device::XCV50);
        let bs = full_bitstream(&mem);
        let mut port = SelectMap::new(Device::XCV50);
        port.load(&bs).unwrap();
        port.load(&bs).unwrap();
        assert_eq!(port.downloads(), 2);
        assert_eq!(port.bytes_loaded(), 2 * bs.byte_len() as u64);
        assert!(port.total_config_time() > Duration::ZERO);
        assert!(port.interpreter().started());
    }

    #[test]
    fn fault_injector_is_deterministic_and_heals_on_retry() {
        let mem = ConfigMemory::new(Device::XCV50);
        let bs = full_bitstream(&mem);

        // Rate 0 never fires.
        let mut clean = SelectMap::new(Device::XCV50);
        clean.set_fault_injector(Some(FaultInjector::new(0.0, 1)));
        clean.load(&bs).unwrap();
        assert_eq!(clean.fault_injector().unwrap().injected(), 0);

        // Rate 1 fires on every load; outcomes are drop or corrupt.
        let run = |seed: u64| {
            let mut port = SelectMap::new(Device::XCV50);
            port.set_fault_injector(Some(FaultInjector::new(1.0, seed)));
            let mut outcomes = Vec::new();
            for _ in 0..8 {
                outcomes.push(port.load(&bs).is_err());
            }
            (outcomes, port.interpreter().memory().clone())
        };
        let (a, mem_a) = run(42);
        let (b, mem_b) = run(42);
        assert_eq!(a, b, "same seed, same fate per load");
        assert_eq!(mem_a, mem_b);
        assert!(a.iter().any(|&e| e) || mem_a != mem, "rate-1 faults show");

        // A corrupted image differs from the truth in at most one frame,
        // and a clean retry of the same stream heals it.
        let mut port = SelectMap::new(Device::XCV50);
        port.set_fault_injector(Some(FaultInjector::new(1.0, 7)));
        while port.load(&bs).is_err() {}
        // That load "succeeded" with rate-1 faults, so it corrupted.
        assert_ne!(port.interpreter().memory(), &mem);
        assert_eq!(port.interpreter().memory().diff_frames(&mem).len(), 1);
        port.set_fault_injector(None);
        port.load(&bs).unwrap();
        assert_eq!(port.interpreter().memory(), &mem);
    }

    #[test]
    fn wire_load_lands_the_same_configuration_with_fewer_bytes() {
        let mut mem = ConfigMemory::new(Device::XCV50);
        for f in 0..8 {
            mem.frame_mut(f)[2] = 0xC0DE_0000 | f as u32;
        }
        let bs = full_bitstream(&mem);
        let enc = wire::encode(Device::XCV50, &bs, None);

        let mut plain = SelectMap::new(Device::XCV50);
        plain.load(&bs).unwrap();
        let mut wired = SelectMap::new(Device::XCV50);
        let stats = wired.load_wire(&enc.bytes).unwrap();
        assert_eq!(stats.bytes_on_wire, enc.bytes.len());
        assert!(stats.peak_buffer_words > 0, "decoder buffered something");
        assert_eq!(plain.interpreter().memory(), wired.interpreter().memory());
        assert!(
            wired.bytes_loaded() < plain.bytes_loaded(),
            "the port must be billed for container bytes, not decoded bytes"
        );

        // Fault fates mirror the plain path: a rate-1 injector either
        // drops (nothing committed) or corrupts (exactly one frame off).
        let mut faulty = SelectMap::new(Device::XCV50);
        faulty.set_fault_injector(Some(FaultInjector::new(1.0, 11)));
        match faulty.load_wire(&enc.bytes) {
            Err(ConfigError::TransferFault) => {
                assert!(!faulty.interpreter().started(), "drop commits nothing");
            }
            Err(e) => panic!("unexpected wire-load failure: {e}"),
            Ok(_) => {
                let diff = faulty
                    .interpreter()
                    .memory()
                    .diff_frames(plain.interpreter().memory());
                assert_eq!(diff.len(), 1, "corrupt flips one written frame");
            }
        }
        assert_eq!(faulty.bytes_loaded(), enc.bytes.len() as u64);

        // A garbage container is a typed configuration error.
        let mut port = SelectMap::new(Device::XCV50);
        assert!(matches!(
            port.load_wire(&[0xAB; 64]),
            Err(ConfigError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn dropped_transfer_commits_nothing_but_costs_time() {
        let mem = ConfigMemory::new(Device::XCV50);
        let bs = full_bitstream(&mem);
        let mut port = SelectMap::new(Device::XCV50);
        // Seed 0's first draw at rate 1.0 may be either flavor; scan for
        // a seed whose first fault is a drop so the assertion is stable.
        let seed = (0..64)
            .find(|&s| {
                let mut p = SelectMap::new(Device::XCV50);
                p.set_fault_injector(Some(FaultInjector::new(1.0, s)));
                p.load(&bs).is_err()
            })
            .expect("some seed drops first");
        port.set_fault_injector(Some(FaultInjector::new(1.0, seed)));
        assert!(matches!(port.load(&bs), Err(ConfigError::TransferFault)));
        assert!(!port.interpreter().started(), "nothing committed");
        assert_eq!(port.bytes_loaded(), bs.byte_len() as u64, "cable was busy");
        assert!(port.total_config_time() > Duration::ZERO);
    }

    #[test]
    fn full_download_times_match_paper_era_magnitudes() {
        // A paper-era full Virtex bitstream is hundreds of KB and loads
        // in a handful of milliseconds at 50 MHz byte-wide.
        let mem = ConfigMemory::new(Device::XCV300);
        let bs = full_bitstream(&mem);
        let t = download_time(bs.byte_len());
        assert!(t > Duration::from_micros(500), "{t:?}");
        assert!(t < Duration::from_millis(50), "{t:?}");
    }
}
