//! Order statistics and the metric table the binary prints.

use std::fmt::Write as _;

/// Nearest-rank `q`-quantile (`q` in 0..=1) of `xs`; 0 for no samples.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`; 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A uniform random sample of at most `cap` values out of a stream
/// (Algorithm R), so a run's memory does not grow with its op rate.
pub struct Reservoir {
    xs: Vec<f64>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl Reservoir {
    /// An empty reservoir holding at most `cap` values.
    pub fn new(cap: usize, seed: u64) -> Self {
        Self {
            xs: Vec::with_capacity(cap),
            cap,
            seen: 0,
            rng: seed | 1,
        }
    }

    /// Offer every value of `values`.
    pub fn extend(&mut self, values: impl IntoIterator<Item = f64>) {
        for x in values {
            self.seen += 1;
            if self.xs.len() < self.cap {
                self.xs.push(x);
                continue;
            }
            // xorshift64
            self.rng ^= self.rng << 13;
            self.rng ^= self.rng >> 7;
            self.rng ^= self.rng << 17;
            let j = self.rng % self.seen;
            if (j as usize) < self.cap {
                self.xs[j as usize] = x;
            }
        }
    }

    /// The retained values.
    pub fn values(&self) -> &[f64] {
        &self.xs
    }

    /// How many values were offered.
    pub fn seen(&self) -> usize {
        self.seen as usize
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (ops for a percentile, windows for a rate,
    /// launches for set-up, 1 for a count or a ratio of totals).
    pub samples: usize,
}

/// The ordered metric set of one run.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Add a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.0.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Value of metric `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// `{"name": {"value": v, "unit": u, "samples": n}, ...}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\", \"samples\": {}}}",
                m.name, value, m.unit, m.samples
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn reservoir_keeps_a_bounded_uniform_sample() {
        let mut r = Reservoir::new(1000, 7);
        r.extend((0..100_000).map(f64::from));
        assert_eq!(r.values().len(), 1000);
        assert_eq!(r.seen(), 100_000);
        let m = median(r.values());
        assert!((40_000.0..60_000.0).contains(&m), "median {m}");
    }
}
