//! Order statistics and the result line.

use std::collections::BTreeMap;

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — a tail percentile
/// resting on a handful of samples is noise, not a measurement.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 || !(q > 0.0 && q < 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// Median of `samples` (mean of the middle pair for even counts); `None`
/// when empty.  Used for repeated whole measurements (set-up times,
/// figure passes), where the ten-beyond rule of [`percentile`] does not
/// apply because each sample is itself an aggregate.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { 0.5 * (sorted[mid - 1] + sorted[mid]) })
}

/// The quantile the bulk-transfer timings take across repeated
/// operations: their fastest decile.  Host noise on a shared virtual
/// machine only ever adds time to a bulk copy, and it comes in regimes
/// lasting seconds, so the fast decile tracks what the stack costs while
/// the median tracks how long the host spent in its slow regime.  A change
/// to the stack moves every operation, the fast decile included.
pub const FAST_DECILE: f64 = 0.1;

/// Percentile `q` of each consecutive block of `block` samples (samples
/// in measurement order; a short tail block and blocks without ten
/// samples beyond `q` are dropped).
pub fn block_values(samples: &[f64], q: f64, block: usize) -> Vec<f64> {
    samples.chunks_exact(block.max(1)).filter_map(|b| percentile(b, q)).collect()
}

/// Metric values in declaration order, keyed by name, with their units.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, (f64, &'static str)>,
}

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.values.insert(name.into(), (value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|&(v, _)| v)
    }

    /// One line per metric (`name value unit`), for humans on stderr.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, (value, unit)) in &self.values {
            out.push_str(&format!("{name:<40} {value:>16.4} {unit}\n"));
        }
        out
    }

    /// The result line.  Non-finite values cannot be written as JSON
    /// numbers; they are replaced by `null` and the run is not correct.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let finite = self.values.values().all(|(v, _)| v.is_finite());
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                let v = if value.is_finite() { format!("{value:?}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            correct && finite,
            body.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(percentile(&xs, 0.99), Some(990.0));
        // p99.9 would rest on one sample.
        assert_eq!(percentile(&xs, 0.999), None);
        // 999 samples: rank 990 leaves nine beyond.
        assert_eq!(percentile(&xs[..999], 0.99), None);
        assert_eq!(percentile(&xs, 0.5), Some(500.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&xs, 1.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (0..100).map(|i| f64::from((i * 37) % 100)).collect();
        let a = percentile(&xs, 0.5);
        xs.reverse();
        assert_eq!(a, percentile(&xs, 0.5));
        assert_eq!(a, Some(49.0));
    }

    #[test]
    fn block_values_take_each_blocks_percentile() {
        // 4 blocks of 1000 and a short tail: block i holds i*1000 ..
        // i*1000+999, so its p99 is i*1000 + 989; one block carries a
        // burst of eleven huge values, which moves only that block's p99.
        let mut xs: Vec<f64> = (0..4_500).map(f64::from).collect();
        for x in &mut xs[2_989..3_000] {
            *x = 1e9;
        }
        assert_eq!(block_values(&xs, 0.99, 1000), vec![989.0, 1_989.0, 1e9, 3_989.0]);
        // The median block shrugs the burst off: mean of 1989 and 3989.
        assert_eq!(median(&block_values(&xs, 0.99, 1000)), Some(2_989.0));
        // Blocks too small for a p99 with ten samples beyond are dropped.
        assert!(block_values(&xs, 0.99, 500).is_empty());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.set("b", 2.5, "ms");
        m.set("a", 1.0, "s");
        let line = m.result_json(true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 2.5, \"unit\": \"ms\"}}}"
        );
        m.set("c", f64::NAN, "s");
        assert!(m.result_json(true, 3, 0).starts_with("{\"correct\": false"));
    }
}
