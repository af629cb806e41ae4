//! Small statistics helpers: nearest-rank percentiles that refuse to
//! report a tail the sample cannot support, medians, and digests.

/// Samples that must lie strictly above a reported percentile. With
/// fewer, the estimate is one or two outliers and not a percentile.
pub const MIN_BEYOND: usize = 10;

/// A percentile as reported: the quantile actually used (the requested
/// one when supported, else the highest supported one), its value and
/// the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// Quantile reported, in (0, 1].
    pub q: f64,
    /// Value at that quantile (nearest rank).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
}

/// The `q`-quantile of `samples` by nearest rank, lowered to the
/// highest quantile that still has [`MIN_BEYOND`] samples above it.
/// `None` for an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> Option<Pct> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let wanted = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
    let highest_supported = (n - 1).saturating_sub(MIN_BEYOND);
    let idx = wanted.min(highest_supported);
    let q_used = if idx == wanted {
        q
    } else {
        (idx + 1) as f64 / n as f64
    };
    Some(Pct {
        q: q_used,
        value: sorted[idx],
        n,
    })
}

/// Median (lower middle for even counts, so the value is a real
/// sample). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[(sorted.len() - 1) / 2])
}

/// FNV-1a, 64-bit: a stable digest for request streams and reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn supported_percentile_is_reported_as_asked() {
        let p = percentile(&ramp(1000), 0.99).unwrap();
        assert_eq!(p.q, 0.99);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.n, 1000);
        // Exactly MIN_BEYOND samples lie above it.
        assert_eq!(1000 - 990, MIN_BEYOND);
    }

    #[test]
    fn unsupported_tail_falls_back_to_highest_supported() {
        let p = percentile(&ramp(500), 0.99).unwrap();
        assert_eq!(p.value, 490.0, "ten samples must lie above the value");
        assert!((p.q - 0.98).abs() < 1e-12);
        assert_eq!(p.n, 500);
        let above = ramp(500).iter().filter(|&&v| v > p.value).count();
        assert_eq!(above, MIN_BEYOND);
    }

    #[test]
    fn tiny_samples_report_their_minimum() {
        let p = percentile(&ramp(5), 0.99).unwrap();
        assert_eq!(p.value, 1.0);
        assert_eq!(p.n, 5);
        assert!(percentile(&[], 0.5).is_none());
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn digest_depends_on_every_byte() {
        let mut a = Fnv::default();
        a.write(b"abc");
        let mut b = Fnv::default();
        b.write(b"abd");
        assert_ne!(a.hex(), b.hex());
    }
}
