//! Host fingerprint, host probes and process memory.
//!
//! The probes make a run that lands in a slow phase of a shared host
//! visible next to its results. They are context only: no metric is ever
//! rescaled by them.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// What the run ran on.
#[derive(Clone, Debug)]
pub struct Fingerprint {
    /// CPUs this process may use.
    pub cpus: usize,
    /// Size of the last-level cache, from sysfs (0 when unknown).
    pub llc_bytes: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
}

/// Reads the fingerprint.
#[must_use]
pub fn fingerprint() -> Fingerprint {
    Fingerprint {
        cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        llc_bytes: llc_bytes(),
        rustc: rustc_version(),
    }
}

/// The largest cache of the highest level that CPU 0 reports.
fn llc_bytes() -> usize {
    let mut best = (0, 0);
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let read = |f: &str| std::fs::read_to_string(format!("{dir}/{f}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: usize = level.trim().parse().unwrap_or(0);
        if let Some(bytes) = parse_size(size.trim()) {
            best = best.max((level, bytes));
        }
    }
    best.1
}

/// Parses a sysfs cache size such as `107520K`.
fn parse_size(s: &str) -> Option<usize> {
    let (digits, scale) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * scale)
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || String::from("unknown"),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Median wall time of a fixed CPU-bound loop that touches no memory, in
/// ms: a slow host phase shows as a larger value.
#[must_use]
pub fn calib_ms() -> f64 {
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&reps)
}

/// In-process copy bandwidth, in GB/s counting bytes read plus bytes
/// written (the STREAM convention), over two buffers whose total is four
/// times the last-level cache (at least 64 MiB, at most 1 GiB). The
/// median of five copies is reported.
#[must_use]
pub fn copy_gbps(llc_bytes: usize) -> f64 {
    let half = (2 * llc_bytes).clamp(32 << 20, 512 << 20);
    let src: Vec<u8> = (0..half).map(|i| i as u8).collect();
    let mut dst = vec![1u8; half];
    let reps: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            dst.copy_from_slice(black_box(&src));
            black_box(&mut dst);
            2.0 * half as f64 / t.elapsed().as_secs_f64() / 1e9
        })
        .collect();
    median(&reps)
}

/// Peak resident set of the process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sysfs_sizes_parse() {
        assert_eq!(parse_size("48K"), Some(48 << 10));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
