//! Point-in-time copies of the registry.

/// Everything one series of a histogram knew at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Rendered series name, labels included.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observations in the histogram's rendered unit — seconds
    /// for latency histograms, raw values for count-valued histograms.
    pub sum_seconds: f64,
    /// `(le, cumulative_count)` in the histogram's rendered unit,
    /// ending with `(+Inf, count)`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Nearest-bucket-upper-bound estimate of the `q`-quantile, in
    /// seconds. Log2 buckets bound the answer within 2x — good enough
    /// for "did p99 regress by an order of magnitude".
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile_seconds(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = (self.count as f64 * q).ceil().max(1.0) as u64;
        self.buckets
            .iter()
            .find(|(_, cumulative)| *cumulative >= rank)
            .map(|(le, _)| *le)
    }
}

/// A point-in-time copy of every registered series.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// `(series name, value)`.
    pub counters: Vec<(String, u64)>,
    /// `(series name, value)`.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, summarized.
    pub histograms: Vec<HistogramSnapshot>,
}

impl TelemetrySnapshot {
    /// Looks a counter up by its rendered series name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks a gauge up by its rendered series name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks a histogram up by its rendered series name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

#[cfg(test)]
mod tests {
    use crate::metrics::ENABLED_TEST_LOCK;
    use crate::Registry;

    #[test]
    fn quantiles_bound_the_observations() {
        let _on = ENABLED_TEST_LOCK.read().unwrap();
        let r = Registry::new();
        let h = r.histogram("q_seconds", "q");
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.observe_ns(ns);
        }
        let snap = r.snapshot();
        let hist = snap.histogram("q_seconds").unwrap();
        let p50 = hist.quantile_seconds(0.5).unwrap();
        // Median observation is 400 ns; the log2 bucket bound is 512 ns.
        assert!((400e-9..=1024e-9).contains(&p50), "p50 {p50}");
        let p100 = hist.quantile_seconds(1.0).unwrap();
        assert!(p100 >= 100_000e-9);
        assert!(hist.quantile_seconds(0.0).unwrap() <= 128e-9);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let r = Registry::new();
        r.histogram("empty_seconds", "e");
        let snap = r.snapshot();
        assert_eq!(
            snap.histogram("empty_seconds")
                .unwrap()
                .quantile_seconds(0.5),
            None
        );
    }
}
