//! Order statistics, the transcript digest, and the two host probes
//! (peak resident memory and the memory-latency canary).

use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`q` in `0..=1`).
pub fn percentile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// FNV-1a, the transcript digest: order-sensitive over everything fed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Peak resident set of this process (`VmHWM`) since the last
/// [`reset_peak_rss`], in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .expect("VmHWM missing from /proc/self/status")
}

/// Resets this process's peak resident set to its current size, so the
/// canary's 8 MiB, freed before the workload starts, is not counted.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5")
        .expect("reset VmHWM through /proc/self/clear_refs");
}

/// Three canary walks over a freshly built (then freed) canary.
pub fn canary_probes() -> Vec<f64> {
    let canary = Canary::new();
    (0..3).map(|_| canary.probe()).collect()
}

/// The noise witness: a dependent random walk over 8 MiB (one cycle
/// through 2^21 `u32` slots). Each step is a cache miss whose latency
/// tracks the host's memory-system contention, which an ALU-only loop
/// does not see.
pub struct Canary {
    next: Vec<u32>,
}

const CANARY_SLOTS: usize = 1 << 21;
const CANARY_STEPS: usize = 200_000;

impl Canary {
    pub fn new() -> Canary {
        // Sattolo's algorithm: a single cycle covering every slot. Fixed
        // seed, so the walk is the same in every run.
        let mut next: Vec<u32> = (0..CANARY_SLOTS as u32).collect();
        let mut rng = crate::rng::Rng::new(0xC0FFEE);
        for i in (1..CANARY_SLOTS).rev() {
            let j = rng.below(i as u64) as usize;
            next.swap(i, j);
        }
        Canary { next }
    }

    /// Nanoseconds per dependent step.
    pub fn probe(&self) -> f64 {
        let started = Instant::now();
        let mut at = 0u32;
        for _ in 0..CANARY_STEPS {
            at = self.next[at as usize];
        }
        std::hint::black_box(at);
        started.elapsed().as_nanos() as f64 / CANARY_STEPS as f64
    }
}

/// Sub-buckets per power of two: 256, so a bucket is 0.4% wide.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of nanosecond durations: constant memory
/// however long the run, so the benchmark's own footprint does not grow
/// with the program's speed.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() - SUB_BITS + 1;
        let sub = (v >> (octave - 1)) - SUB;
        (octave as u64 * SUB + sub) as usize
    }

    /// The half-open value range `[lo, lo + width)` of a bucket.
    fn range(b: usize) -> (f64, f64) {
        let b = b as u64;
        if b < SUB {
            return (b as f64, 1.0);
        }
        let octave = b / SUB;
        let width = (1u64 << (octave - 1)) as f64;
        ((SUB + b % SUB) as f64 * width, width)
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Hist::bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile, interpolated within its bucket.
    pub fn percentile(&self, q: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, width) = Hist::range(b);
                return lo + width * ((rank - seen) as f64 - 0.5) / c as f64;
            }
            seen += c;
        }
        unreachable!("rank within total")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hist_buckets_cover_their_values() {
        for v in [
            0u64,
            1,
            255,
            256,
            257,
            511,
            512,
            1000,
            38_000,
            150_000_000,
            (1 << 40) + 12_345,
        ] {
            let (lo, width) = Hist::range(Hist::bucket(v));
            assert!(
                lo <= v as f64 && (v as f64) < lo + width,
                "{v}: [{lo}, {})",
                lo + width
            );
            assert!(width <= (v as f64 / 256.0).max(1.0));
        }
    }

    #[test]
    fn hist_percentiles_track_the_sample() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        for q in [0.5, 0.9, 0.99] {
            let want = q * 10_000.0 * 1000.0;
            assert!((h.percentile(q) - want).abs() / want < 0.005, "p{q}");
        }
    }
}
