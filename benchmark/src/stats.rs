//! Order statistics and the FNV-1a digest.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (the default *exclusive* method), so a spread computed here is the
//! number anyone re-deriving it from a result file will get.

/// Median of `values` (mean of the two middle elements for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile. A single value is its own quartiles (the
/// exclusive method needs two points); `None` for an empty slice.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        1 => Some((v[0], v[0])),
        n => {
            let cut = |i: usize| {
                let j = (i * (n + 1) / 4).clamp(1, n - 1);
                let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((cut(1), cut(3)))
        }
    }
}

/// Interquartile range as a share of the median — the spread every
/// bound in this benchmark is compared against. 0 when the median is 0
/// or there are no values.
pub fn spread(values: &[f64]) -> f64 {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

/// 64-bit FNV-1a, the `stats_digest` hash: stable across hosts, and
/// fast enough to run over tens of megabytes outside the timed region.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Fold one integer in (little-endian bytes).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a float in by its bit pattern, so "equal" means
    /// bit-identical.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Fold a string in, length-prefixed so adjacent fields cannot run
    /// together.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[5.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn fnv_known_vectors_and_field_separation() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(
            Fnv::default().bytes(b"foobar").finish(),
            0x8594_4171_f739_67e8
        );
        let ab_c = Fnv::default().str("ab").str("c").finish();
        let a_bc = Fnv::default().str("a").str("bc").finish();
        assert_ne!(ab_c, a_bc);
    }
}
