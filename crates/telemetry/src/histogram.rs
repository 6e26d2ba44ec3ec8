//! [`StreamingHistogram`]: a log-bucketed histogram with linear
//! sub-buckets, precise enough for streaming percentile estimation.
//!
//! One bucket per power of two is fine for shape but useless for p99
//! (a bucket spans a 2x range). This histogram subdivides every octave
//! into `2^SUB_BITS = 32` linear sub-buckets, bounding the relative
//! quantile error at 1/32 ≈ 3.1% (half that when reporting bucket
//! midpoints). Values below 32 are recorded exactly.
//!
//! Observing is O(1) with no allocation beyond amortized growth of the
//! count vector (bounded at [`BUCKETS`] entries ≈ 15 KiB), merging adds
//! counts bucket-wise — commutative and associative, so cross-thread
//! merges produce bit-identical aggregates in any fold order.

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 5;
/// Sub-buckets per octave.
const SUBS: usize = 1 << SUB_BITS;
/// Total addressable buckets (values 0..=u64::MAX).
pub const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUBS;

/// A mergeable streaming histogram of `u64` samples with quantile
/// estimation (p50/p95/p99/p999 and any other `0.0..=1.0` rank).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StreamingHistogram {
    /// Bucket counts, grown on demand up to [`BUCKETS`].
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Bucket index of `value`. Exact below `SUBS`; log-with-linear-fill
/// above.
fn bucket_of(value: u64) -> usize {
    if value < SUBS as u64 {
        return value as usize;
    }
    let h = 63 - value.leading_zeros(); // 2^h <= value < 2^(h+1)
    let sub = ((value >> (h - SUB_BITS)) as usize) & (SUBS - 1);
    (h - SUB_BITS + 1) as usize * SUBS + sub
}

/// Inclusive lower bound of bucket `b` (inverse of [`bucket_of`]).
fn bucket_lo(b: usize) -> u64 {
    if b < SUBS {
        return b as u64;
    }
    let h = (b / SUBS) as u32 + SUB_BITS - 1;
    let sub = (b % SUBS) as u64;
    (1u64 << h) | (sub << (h - SUB_BITS))
}

/// Exclusive width of bucket `b` (1 for the exact range).
fn bucket_width(b: usize) -> u64 {
    if b < SUBS {
        1
    } else {
        let h = (b / SUBS) as u32 + SUB_BITS - 1;
        1u64 << (h - SUB_BITS)
    }
}

impl StreamingHistogram {
    /// An empty histogram.
    pub fn new() -> StreamingHistogram {
        StreamingHistogram {
            counts: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let b = bucket_of(value);
        if b >= self.counts.len() {
            self.counts.resize(b + 1, 0);
        }
        self.counts[b] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one. Bucket-wise addition:
    /// `merge(a, b)` equals observing both streams into one histogram.
    pub fn merge(&mut self, other: &StreamingHistogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 when empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimate the `q`-quantile (`0.0..=1.0`): the smallest recorded
    /// value `v` such that at least `q * count` samples are `<= v`,
    /// reported as the midpoint of its bucket (exact below 32). Returns
    /// 0 when empty. The estimate is clamped to `[min, max]`, so
    /// `quantile(0.0) == min()` and `quantile(1.0) == max()`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let rank = rank.min(self.count);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let est = bucket_lo(b) + bucket_width(b) / 2;
                return est.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Non-empty `(bucket_lower_bound, count)` pairs, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (bucket_lo(b), c))
    }

    /// Cumulative `(inclusive_upper_bound, cumulative_count)` pairs for
    /// the non-empty prefix — the shape Prometheus histogram exposition
    /// wants (`le` buckets).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push((bucket_lo(b) + bucket_width(b) - 1, cum));
        }
        out
    }

    /// Compact JSON: summary stats, percentiles, and non-empty buckets
    /// keyed by their lower bound.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"p999\":{},\"buckets\":{{",
            self.count,
            self.sum,
            self.min(),
            self.max,
            self.p50(),
            self.p95(),
            self.p99(),
            self.p999(),
        );
        let mut first = true;
        for (lo, c) in self.nonzero_buckets() {
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("\"{lo}\":{c}"));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_consistent() {
        // Every bucket's lower bound maps back to that bucket, and the
        // value one-past-the-top lands in the next non-degenerate one.
        for b in 0..BUCKETS {
            let lo = bucket_lo(b);
            assert_eq!(bucket_of(lo), b, "lo of bucket {b}");
            let hi = lo + (bucket_width(b) - 1);
            assert_eq!(bucket_of(hi), b, "hi of bucket {b}");
        }
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(31), 31);
        assert_eq!(bucket_of(32), 32);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = StreamingHistogram::new();
        for v in 0..32u64 {
            h.observe(v);
        }
        for v in 0..32u64 {
            // Quantile that isolates sample v among 32 ranked samples.
            let q = (v as f64 + 1.0) / 32.0;
            assert_eq!(h.quantile(q), v);
        }
    }

    #[test]
    fn quantile_extremes_hit_min_and_max() {
        let mut h = StreamingHistogram::new();
        for v in [7, 1000, 5_000_000] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 7);
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut a = StreamingHistogram::new();
        let mut b = StreamingHistogram::new();
        let mut whole = StreamingHistogram::new();
        let mut x = 0x12345u64;
        for i in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = x >> 40;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            whole.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, whole);
        // Merge is commutative.
        let mut other = b.clone();
        other.merge(&a);
        assert_eq!(other, whole);
    }

    #[test]
    fn empty_is_calm() {
        let h = StreamingHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert!(h.to_json().contains("\"count\":0"));
    }

    #[test]
    fn json_mentions_percentiles_and_buckets() {
        let mut h = StreamingHistogram::new();
        for v in [3, 3, 900, 40_000] {
            h.observe(v);
        }
        let json = h.to_json();
        assert!(json.contains("\"p50\":"));
        assert!(json.contains("\"p999\":"));
        assert!(json.contains("\"3\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
