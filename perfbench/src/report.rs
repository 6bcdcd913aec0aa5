//! What one run reports: counts, correctness failures and named metrics,
//! printed as the single JSON line the benchmark contract asks for.

use std::fmt::Write as _;
use std::time::Instant;

/// One run's results.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (partials built, requests submitted).
    pub attempted: u64,
    /// Operations that failed, were refused, or failed a correctness
    /// check.
    pub failed: u64,
    /// Correctness checks that failed, one message each.
    pub check_failures: Vec<String>,
    /// `(name, value, unit)` in insertion order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Record a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Record a correctness check: `ok == false` counts one failed
    /// operation and keeps `what` for the log.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.check_failures.len() < 20 {
                self.check_failures.push(what());
            }
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.check_failures.is_empty()
    }

    /// The value of metric `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The contract's result line: `correct`, `attempted`, `failed` and
    /// `metrics` restricted to `names` (in that order). A name the run
    /// did not record reads 0 — the workload does not cross that layer.
    pub fn json_line(&self, names: &[(&str, &str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let value = self.get(name).unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Sort `samples` and read quantile `q` with the repository's exact
/// order-statistic rule.
pub fn quantile(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    obs::trace::exact_quantile(samples, q)
}

/// Mean of `samples`, in thousandths of their unit (ns → µs).
pub fn mean_milli(samples: &[u64]) -> f64 {
    samples.iter().sum::<u64>() as f64 / samples.len().max(1) as f64 / 1e3
}

/// Median of host-clock seconds.
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// CPU time this process has used on all its threads, live and ended,
/// in nanoseconds (`utime + stime` from `/proc/self/stat`, 10 ms ticks).
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let fields: Vec<u64> = s
                .rsplit_once(')')?
                .1
                .split_whitespace()
                .skip(11)
                .take(2)
                .filter_map(|f| f.parse().ok())
                .collect();
            (fields.len() == 2).then(|| (fields[0] + fields[1]) * 10_000_000)
        })
        .unwrap_or(0)
}

/// High-water resident set of this process so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent sub-seeds and drives the request
/// generators, so every input is a pure function of the workload seed.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// A sub-seed of `seed` for purpose `salt`.
pub fn derive(seed: u64, salt: u64) -> u64 {
    SplitMix(seed ^ salt.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// FNV-1a/64 over a stream of words — the outcome checksums.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Fold one value in.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }
}
