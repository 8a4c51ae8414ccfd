//! Measurement helpers: exact percentiles, result fingerprints, and the
//! process's peak resident set.

use twq_tree::NodeSet;

/// The highest reported percentile must have at least this many samples
/// beyond it, or the run was too short to support it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `pct`-th percentile of ascending `sorted` samples:
/// the smallest sample with at least `pct`% of all samples at or below
/// it. Also returns how many samples lie strictly beyond its rank.
pub fn nearest_rank(sorted: &[u32], pct: usize) -> (u32, usize) {
    assert!(!sorted.is_empty(), "no samples");
    assert!(pct <= 100);
    let n = sorted.len();
    let rank = (pct * n).div_ceil(100).max(1);
    (sorted[rank - 1], n - rank)
}

/// Median of unsorted values (0 for none).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// FNV-1a over 64-bit words.
pub struct Hasher(u64);

impl Hasher {
    pub fn start() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    pub fn word(mut self, w: u64) -> Hasher {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// A result set's fingerprint: its members' document-order positions,
/// sorted and hashed. `doc_pos` is `twq_tree::order::doc_index` of the
/// tree the set came from, so the fingerprint is the same for a generated
/// tree and its parsed copy whatever their arena numbering.
pub fn fingerprint(doc_pos: &[usize], set: &NodeSet) -> u64 {
    let mut pos: Vec<usize> = set.iter().map(|u| doc_pos[u.0 as usize]).collect();
    pos.sort_unstable();
    pos.iter()
        .fold(Hasher::start().word(pos.len() as u64), |h, &p| {
            h.word(p as u64)
        })
        .finish()
}

/// Restart the kernel's peak-RSS counter (`VmHWM`) at the current RSS.
/// Returns `false` where `/proc/self/clear_refs` is unavailable, in which
/// case the peak covers the whole process lifetime.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` from `/proc/self/status`, in MiB (0 where unavailable).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
