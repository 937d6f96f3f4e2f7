//! Order statistics and the deterministic run fingerprint.

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Nearest-rank quantile of integer samples; 0 when empty.
pub fn quantile_u64(values: &[u64], q: f64) -> u64 {
    quantile(&values.iter().map(|&v| v as f64).collect::<Vec<_>>(), q) as u64
}

/// Median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest percentile (capped at p99) that leaves at least ten of
/// `n` samples beyond it, as a fraction; `None` below eleven samples.
pub fn tail_quantile(n: usize) -> Option<f64> {
    (n > 10).then(|| (1.0 - 10.0 / n as f64).min(0.99))
}

/// FNV-1a over a stream of `u64` words: the fingerprint every repeat of
/// a workload must reproduce exactly.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    /// Mixes `words` into the fingerprint.
    pub fn mix(&mut self, words: &[u64]) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    /// The fingerprint value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(10), None);
    }
}
