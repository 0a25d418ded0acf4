//! Host record, process memory, digests and order statistics.

use std::fmt::Write as _;

/// Where a result was measured: stamped into every result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostStamp {
    /// Logical CPUs available to the process.
    pub vcpus: usize,
    /// CPU model name from `/proc/cpuinfo` (or `unknown`).
    pub cpu_model: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: String,
    /// Git commit of the sources at build time, when they were a checkout.
    pub commit: String,
    /// Cargo build profile (`release` or `debug`).
    pub profile: String,
}

impl HostStamp {
    /// Read the stamp for this process.
    #[must_use]
    pub fn current() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            vcpus: nproc(),
            cpu_model,
            rustc: env!("E2EBENCH_RUSTC").to_owned(),
            commit: env!("E2EBENCH_COMMIT").to_owned(),
            profile: env!("E2EBENCH_PROFILE").to_owned(),
        }
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"vcpus\":{},\"cpu_model\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\",\"profile\":\"{}\"}}",
            self.vcpus,
            escape(&self.cpu_model),
            escape(&self.rustc),
            escape(&self.commit),
            escape(&self.profile)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}

/// Logical CPUs available to this process: every worker knob the
/// benchmark sets is pinned to this.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream, 128-bit, fed through `fmt::Write` so
/// large outputs are digested without being materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    hash: u128,
    len: u64,
}

impl Digest {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

    /// An empty digest.
    #[must_use]
    pub fn new() -> Self {
        Self {
            hash: Self::OFFSET,
            len: 0,
        }
    }

    /// Digest of the `Debug` rendering of `value`.
    #[must_use]
    pub fn of_debug(value: &impl std::fmt::Debug) -> Self {
        let mut d = Self::new();
        let _ = write!(d, "{value:?}");
        d
    }

    /// Feed more bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u128::from(b);
            self.hash = self.hash.wrapping_mul(Self::PRIME);
        }
        self.len += bytes.len() as u64;
    }

    /// Hex rendering with the stream length, e.g. `9f…e1/52311`.
    #[must_use]
    pub fn hex(&self) -> String {
        format!("{:032x}/{}", self.hash, self.len)
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Write for Digest {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Median of `values` (0 when empty).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_tracks_bytes_not_chunking() {
        let mut a = Digest::new();
        a.update(b"hello world");
        let mut b = Digest::new();
        let world = "world";
        let _ = write!(b, "hello {world}");
        assert_eq!(a, b);
        assert_ne!(a, Digest::of_debug(&"hello world"));
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.99) - 4.96).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }
}
