//! What-if exploration: parameter sweeps, sensitivities, and
//! voltage-scaling searches over a design.
//!
//! "The table is parameterized; that is, parameters such as bit-widths
//! and supply voltages can be varied dynamically" — these helpers are the
//! programmatic form of turning those knobs.
//!
//! Every helper compiles the sheet to a [`CompiledSheet`] once, hoists
//! the override-name resolution into one [`crate::plan::OverridePlan`]
//! per study, and runs the sheet's register program serially on the
//! caller's thread: a server already runs requests on a pool of its
//! own. Sweeps, Monte-Carlo studies and sensitivities answer totals, not
//! reports, through the batched kernel ([`CompiledSheet::batch_kernel`]):
//! points are grouped into [`BatchKernel::WIDTH`]-lane chunks, and each
//! chunk runs, across all lanes per instruction-dispatch pass, only the
//! slice of the program its changed globals reach. Sensitivities send
//! one two-point chunk per global. The timing search needs each probe's
//! rows, so it plays each probe in full through one hoisted plan.
//! Identical sweep points are deduplicated and answered from the first
//! evaluation. Results are returned in input order and, per point, are
//! bit-identical to the serial reference implementations (kept as
//! `*_serial` oracles); on failure the error reported is the one the
//! earliest point in input order produced.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use powerplay_library::Registry;
use powerplay_telemetry::Counter;
use powerplay_units::{Power, Voltage};

use crate::engine::EvaluateSheetError;
use crate::plan::{BatchKernel, CompiledSheet};
use crate::report::SheetReport;
use crate::sheet::Sheet;

/// What-if metrics, registered once in the process-global registry.
struct WhatifMetrics {
    points_total: Counter,
    memo_hits_total: Counter,
    memo_misses_total: Counter,
}

fn whatif_metrics() -> &'static WhatifMetrics {
    static METRICS: OnceLock<WhatifMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        WhatifMetrics {
            points_total: g.counter(
                "powerplay_whatif_points_total",
                "What-if work items: 8-point sweep and Monte-Carlo chunks, sensitivity globals, timing probes",
            ),
            memo_hits_total: g.counter(
                "powerplay_whatif_memo_hits_total",
                "Sweep points answered from an identical already-evaluated point",
            ),
            memo_misses_total: g.counter(
                "powerplay_whatif_memo_misses_total",
                "Sweep points that had to be evaluated",
            ),
        }
    })
}

/// Plays `points`, each a values slice aligned with `kernel`'s override
/// names, through the kernel in [`BatchKernel::WIDTH`]-point chunks and
/// returns their totals in order, or the first error in that order.
fn batched_totals<P: AsRef<[f64]>>(
    kernel: &mut BatchKernel<'_>,
    points: &[P],
) -> Result<Vec<Power>, EvaluateSheetError> {
    let chunks = points.chunks(BatchKernel::WIDTH);
    whatif_metrics().points_total.add(chunks.len() as u64);
    let mut totals = Vec::with_capacity(points.len());
    for chunk in chunks {
        for total in kernel.replay_chunk(chunk) {
            totals.push(total?);
        }
    }
    Ok(totals)
}

/// Evaluates the design once per value of `global`, returning
/// `(value, total power)` pairs. Points are evaluated through the
/// batched kernel from one compiled plan; the result order (and every
/// total in it) is identical to [`sweep_global_serial`].
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the first failing value in
/// input order.
///
/// ```
/// use powerplay_library::builtin::ucb_library;
/// use powerplay_sheet::{whatif, Sheet};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = ucb_library();
/// let mut sheet = Sheet::new("s");
/// sheet.set_global("vdd", "1.5")?;
/// sheet.set_global("f", "2MHz")?;
/// sheet.add_element_row("M", "ucb/multiplier", [])?;
/// let curve = whatif::sweep_global(&sheet, &lib, "vdd", &[1.0, 2.0, 3.0])?;
/// assert!(curve[2].1 > curve[0].1);
/// # Ok(())
/// # }
/// ```
pub fn sweep_global(
    sheet: &Sheet,
    registry: &Registry,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, Power)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    sweep_compiled(&plan, global, values)
}

/// [`sweep_global`] over an already compiled plan — what the web app's
/// sweep endpoint uses so repeated sweeps of the same design skip
/// recompilation.
///
/// The override-name resolution is hoisted into one
/// [`crate::plan::OverridePlan`] for the whole sweep, duplicate values
/// are evaluated once (cross-point memoization, counted in
/// `powerplay_whatif_memo_*`), and the rest run through the batched
/// kernel in [`BatchKernel::WIDTH`]-point chunks.
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the first failing value in
/// input order.
pub fn sweep_compiled(
    plan: &CompiledSheet,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, Power)>, EvaluateSheetError> {
    let metrics = whatif_metrics();
    let override_plan = plan.override_plan(&[global]);

    // Deduplicate points by exact bit pattern; duplicates are answered
    // from the first occurrence's total (identical to evaluating them —
    // replay is a pure function of the override tuple). Unique points
    // keep first-occurrence order, so the first failing unique point is
    // the first failing value in input order.
    let mut slot_by_bits: BTreeMap<u64, usize> = BTreeMap::new();
    let mut unique: Vec<[f64; 1]> = Vec::new();
    let mut slot_of: Vec<usize> = Vec::with_capacity(values.len());
    for &value in values {
        match slot_by_bits.get(&value.to_bits()) {
            Some(&slot) => {
                metrics.memo_hits_total.inc();
                slot_of.push(slot);
            }
            None => {
                metrics.memo_misses_total.inc();
                slot_by_bits.insert(value.to_bits(), unique.len());
                slot_of.push(unique.len());
                unique.push([value]);
            }
        }
    }

    let totals = batched_totals(&mut plan.batch_kernel(&override_plan), &unique)?;
    Ok(values
        .iter()
        .zip(slot_of)
        .map(|(&value, slot)| (value, totals[slot]))
        .collect())
}

/// Serial reference implementation of [`sweep_global`]: clone the sheet,
/// mutate the global, re-play — once per value. Kept as the oracle the
/// batched path is tested against.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sweep_global_serial(
    sheet: &Sheet,
    registry: &Registry,
    global: &str,
    values: &[f64],
) -> Result<Vec<(f64, SheetReport)>, EvaluateSheetError> {
    let mut results = Vec::with_capacity(values.len());
    for &value in values {
        let mut variant = sheet.clone();
        variant.set_global_value(global, value);
        results.push((value, variant.play(registry)?));
    }
    Ok(results)
}

/// Relative sensitivity of total power to each global:
/// `S_x = (∂P/P) / (∂x/x)` by central differences with ±1% perturbation.
///
/// Sorted by descending magnitude — the "where should effort go" view
/// that the paper motivates ("identify both the major power consumers
/// and the point of diminishing returns"). NaN sensitivities (a design
/// whose power overflows) sort last.
///
/// Globals whose value is zero are skipped (no relative perturbation
/// exists).
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sensitivities(
    sheet: &Sheet,
    registry: &Registry,
) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    sensitivities_compiled(&plan)
}

/// [`sensitivities`] over an already compiled plan — what the web app's
/// sensitivities endpoint uses so repeated analyses of a cached design
/// skip recompilation.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn sensitivities_compiled(
    plan: &CompiledSheet,
) -> Result<Vec<(String, f64)>, EvaluateSheetError> {
    let base = plan.play()?;
    let p0 = base.total_power().value();
    let probes = base
        .globals()
        .iter()
        .filter(|(_, value)| *value != 0.0 && p0 != 0.0);
    let mut out = Vec::new();
    for (name, value) in probes {
        // One two-point chunk per global, through a kernel that runs
        // only the slice of the program this global reaches.
        let h = 0.01 * value;
        let override_plan = plan.override_plan(&[name.as_str()]);
        let mut kernel = plan.batch_kernel(&override_plan);
        let totals = batched_totals(&mut kernel, &[[value + h], [value - h]])?;
        let dp_dx = (totals[0].value() - totals[1].value()) / (2.0 * h);
        out.push((name.clone(), dp_dx * value / p0));
    }
    out.sort_by(|a, b| nan_last(-a.1.abs(), -b.1.abs()));
    Ok(out)
}

/// Finds the lowest supply in `[vdd_min, vdd_max]` at which every row's
/// modeled delay still fits one period of that row's access rate, and
/// returns it with the resulting report.
///
/// The search is a bisection of 60 rounds, each a full play through one
/// hoisted override plan: each round probes the bracket's midpoint and
/// keeps the half between the highest failing and lowest passing
/// supply, so the answer depends only on the design and the bounds.
///
/// Rows without delay models are unconstrained. Returns `None` when even
/// `vdd_max` fails timing.
///
/// # Errors
///
/// Returns the [`EvaluateSheetError`] of the first failing probe.
pub fn min_vdd_meeting_timing(
    sheet: &Sheet,
    registry: &Registry,
    vdd_min: Voltage,
    vdd_max: Voltage,
) -> Result<Option<(Voltage, SheetReport)>, EvaluateSheetError> {
    let plan = CompiledSheet::compile(sheet, registry);
    let override_plan = plan.override_plan(&["vdd"]);
    let probe = |vdd: f64| -> Result<(bool, SheetReport), EvaluateSheetError> {
        let report = plan.play_with_plan(&override_plan, &[vdd])?;
        let ok = report
            .rows()
            .iter()
            .all(|row| match (row.delay(), row.rate()) {
                (Some(delay), Some(rate)) if rate > 0.0 => delay.value() <= 1.0 / rate,
                _ => true,
            });
        Ok((ok, report))
    };

    let (ok_max, report_max) = probe(vdd_max.value())?;
    if !ok_max {
        return Ok(None);
    }
    let (ok_min, report_min) = probe(vdd_min.value())?;
    if ok_min {
        return Ok(Some((Voltage::new(vdd_min.value()), report_min)));
    }

    let mut lo = vdd_min.value();
    let mut hi = vdd_max.value();
    let mut best = (hi, report_max);
    // Timing degrades monotonically as the supply drops, so a passing
    // midpoint bounds the answer from above and a failing one from
    // below.
    for _ in 0..60 {
        let step = (hi - lo) / 2.0;
        if step == 0.0 {
            break;
        }
        let mid = lo + step;
        whatif_metrics().points_total.inc();
        let (ok, report) = probe(mid)?;
        if ok {
            hi = mid;
            best = (hi, report);
        } else {
            lo = mid;
        }
    }
    Ok(Some((Voltage::new(best.0), best.1)))
}

/// The power saved by the best voltage scaling, relative to operating at
/// `vdd_nominal`: `(P_nominal, P_scaled, vdd_scaled)`.
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
pub fn voltage_scaling_gain(
    sheet: &Sheet,
    registry: &Registry,
    vdd_nominal: Voltage,
) -> Result<Option<(Power, Power, Voltage)>, EvaluateSheetError> {
    let p_nominal = CompiledSheet::compile(sheet, registry)
        .play_with(&[("vdd", vdd_nominal.value())])?
        .total_power();
    match min_vdd_meeting_timing(sheet, registry, Voltage::new(0.75), vdd_nominal)? {
        None => Ok(None),
        Some((vdd, report)) => Ok(Some((p_nominal, report.total_power(), vdd))),
    }
}

/// Summary statistics of a Monte-Carlo power study.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloSummary {
    /// Sampled totals, sorted ascending (NaN totals last).
    pub samples: Vec<f64>,
}

impl MonteCarloSummary {
    /// The `q`-quantile (0..=1) by nearest-rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Power {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let idx = ((self.samples.len() - 1) as f64 * q).round() as usize;
        Power::new(self.samples[idx])
    }

    /// The median total.
    pub fn median(&self) -> Power {
        self.quantile(0.5)
    }

    /// The `[p10, p90]` spread as a ratio — the "how uncertain is this
    /// estimate" number a reviewer asks for.
    pub fn spread(&self) -> f64 {
        self.quantile(0.9) / self.quantile(0.1)
    }
}

/// Monte-Carlo uncertainty analysis: every listed global is perturbed by
/// an independent uniform factor in `[1-rel, 1+rel]` per trial, and the
/// resulting total-power distribution summarized.
///
/// Early-stage coefficients and parameters are guesses; this quantifies
/// how much the bottom line moves when they wobble — the quantitative
/// form of the paper's "as accurate as possible *given the current state
/// of a design*".
///
/// # Errors
///
/// Returns the first [`EvaluateSheetError`] encountered.
///
/// # Panics
///
/// Panics if `trials` is zero or `rel` is not in `(0, 1)`.
pub fn monte_carlo(
    sheet: &Sheet,
    registry: &Registry,
    globals: &[&str],
    rel: f64,
    trials: usize,
    seed: u64,
) -> Result<MonteCarloSummary, EvaluateSheetError> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    assert!(trials > 0, "need at least one trial");
    assert!(
        rel > 0.0 && rel < 1.0,
        "relative perturbation must be in (0, 1)"
    );
    let plan = CompiledSheet::compile(sheet, registry);
    let base = plan.play()?;
    // Globals absent from the report draw nothing; resolve the present
    // set once so every trial perturbs the same names and one hoisted
    // override plan covers the whole study.
    let present: Vec<(&str, f64)> = globals
        .iter()
        .filter_map(|name| base.global(name).map(|value| (*name, value)))
        .collect();
    let names: Vec<&str> = present.iter().map(|(name, _)| *name).collect();
    let override_plan = plan.override_plan(&names);
    // A name listed twice draws twice and its later value wins, as in
    // `play_with`: each draw lands in its name's slot of the plan.
    let slots: Vec<usize> = names
        .iter()
        .map(|name| override_plan.names().iter().position(|n| n == name))
        .map(|slot| slot.expect("the plan lists every present name"))
        .collect();
    // Draw every trial's perturbations first, then evaluate them in
    // chunks: the RNG stream (and so the sampled distribution for a
    // given seed) is independent of the chunking.
    let mut rng = StdRng::seed_from_u64(seed);
    let trial_values: Vec<Vec<f64>> = (0..trials)
        .map(|_| {
            let mut point = vec![0.0; override_plan.names().len()];
            for ((_, value), &slot) in present.iter().zip(&slots) {
                let factor: f64 = rng.gen_range(1.0 - rel..1.0 + rel);
                point[slot] = value * factor;
            }
            point
        })
        .collect();
    let mut samples: Vec<f64> =
        batched_totals(&mut plan.batch_kernel(&override_plan), &trial_values)?
            .into_iter()
            .map(Power::value)
            .collect();
    samples.sort_by(|a, b| nan_last(*a, *b));
    Ok(MonteCarloSummary { samples })
}

/// Orders numbers by [`f64::total_cmp`] and every NaN after them,
/// whatever its sign: an overflowing design yields NaN powers, which
/// must not panic a sort.
fn nan_last(a: f64, b: f64) -> std::cmp::Ordering {
    a.is_nan().cmp(&b.is_nan()).then(a.total_cmp(&b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerplay_library::builtin::ucb_library;

    fn sheet() -> Sheet {
        let mut s = Sheet::new("s");
        s.set_global("vdd", "3.3").unwrap();
        s.set_global("f", "2MHz").unwrap();
        s.add_element_row("Mem", "ucb/sram", [("words", "2048"), ("bits", "8")])
            .unwrap();
        s.add_element_row("Mult", "ucb/multiplier", [("bw_a", "8"), ("bw_b", "8")])
            .unwrap();
        s
    }

    #[test]
    fn vdd_sweep_is_quadratic_for_full_rail() {
        let lib = ucb_library();
        let curve = sweep_global(&sheet(), &lib, "vdd", &[1.0, 2.0, 4.0]).unwrap();
        let p: Vec<f64> = curve.iter().map(|(_, total)| total.value()).collect();
        assert!((p[1] / p[0] - 4.0).abs() < 1e-9);
        assert!((p[2] / p[1] - 4.0).abs() < 1e-9);
    }

    #[test]
    fn frequency_sweep_is_linear() {
        let lib = ucb_library();
        let curve = sweep_global(&sheet(), &lib, "f", &[1e6, 2e6, 4e6]).unwrap();
        let p: Vec<f64> = curve.iter().map(|(_, total)| total.value()).collect();
        assert!((p[1] / p[0] - 2.0).abs() < 1e-9);
        assert!((p[2] / p[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sensitivities_rank_vdd_over_f() {
        let lib = ucb_library();
        let sens = sensitivities(&sheet(), &lib).unwrap();
        let get = |name: &str| sens.iter().find(|(n, _)| n == name).map(|(_, s)| *s);
        // Full-rail design: S_vdd = 2 (quadratic), S_f = 1 (linear).
        assert!((get("vdd").unwrap() - 2.0).abs() < 1e-3);
        assert!((get("f").unwrap() - 1.0).abs() < 1e-3);
        // Sorted by magnitude: vdd first.
        assert_eq!(sens[0].0, "vdd");
    }

    #[test]
    fn min_vdd_meets_timing_and_saves_power() {
        let lib = ucb_library();
        let result = min_vdd_meeting_timing(&sheet(), &lib, Voltage::new(0.75), Voltage::new(3.3))
            .unwrap()
            .expect("2 MHz timing must be reachable");
        let (vdd, report) = result;
        assert!(vdd.value() < 3.3);
        // All rows meet timing at the found supply.
        for row in report.rows() {
            if let (Some(d), Some(r)) = (row.delay(), row.rate()) {
                assert!(d.value() <= 1.0 / r, "{} misses timing", row.name());
            }
        }
        // And scaling gains power quadratically-ish.
        let (p_nom, p_scaled, _) = voltage_scaling_gain(&sheet(), &lib, Voltage::new(3.3))
            .unwrap()
            .unwrap();
        assert!(p_scaled.value() < p_nom.value() / 2.0);
    }

    #[test]
    fn unreachable_timing_returns_none() {
        let lib = ucb_library();
        let mut fast = sheet();
        fast.set_global("f", "200MHz").unwrap(); // SRAM can't cycle at 5 ns here
        let result =
            min_vdd_meeting_timing(&fast, &lib, Voltage::new(0.75), Voltage::new(3.3)).unwrap();
        assert!(result.is_none());
    }

    #[test]
    fn monte_carlo_brackets_the_nominal() {
        let lib = ucb_library();
        let s = sheet();
        let nominal = s.play(&lib).unwrap().total_power().value();
        let mc = monte_carlo(&s, &lib, &["vdd", "f"], 0.1, 200, 42).unwrap();
        assert_eq!(mc.samples.len(), 200);
        // The nominal sits inside the sampled distribution.
        assert!(mc.quantile(0.0).value() < nominal);
        assert!(mc.quantile(1.0).value() > nominal);
        let median = mc.median().value();
        assert!((median / nominal - 1.0).abs() < 0.1, "median {median}");
        // ±10% on vdd (quadratic) and f (linear) gives a finite, modest
        // spread.
        let spread = mc.spread();
        assert!(spread > 1.1 && spread < 2.5, "spread {spread:.2}");
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed() {
        let lib = ucb_library();
        let s = sheet();
        let a = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 7).unwrap();
        let b = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 7).unwrap();
        assert_eq!(a, b);
        let c = monte_carlo(&s, &lib, &["vdd"], 0.2, 50, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn monte_carlo_wider_uncertainty_wider_spread() {
        let lib = ucb_library();
        let s = sheet();
        let narrow = monte_carlo(&s, &lib, &["vdd"], 0.05, 150, 1).unwrap();
        let wide = monte_carlo(&s, &lib, &["vdd"], 0.3, 150, 1).unwrap();
        assert!(wide.spread() > narrow.spread());
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn bad_quantile_panics() {
        let summary = MonteCarloSummary { samples: vec![1.0] };
        let _ = summary.quantile(1.5);
    }

    /// `(value, total bits)` per point of a sweep, or of the serial
    /// oracle's reports: f64 `==` cannot tell +0.0 from −0.0.
    fn total_bits(curve: &[(f64, Power)]) -> Vec<(f64, u64)> {
        curve
            .iter()
            .map(|(v, p)| (*v, p.value().to_bits()))
            .collect()
    }

    fn report_bits(curve: &[(f64, SheetReport)]) -> Vec<(f64, u64)> {
        curve
            .iter()
            .map(|(v, r)| (*v, r.total_power().value().to_bits()))
            .collect()
    }

    #[test]
    fn sweep_preserves_other_globals() {
        let lib = ucb_library();
        let s = sheet();
        let curve = sweep_global(&s, &lib, "vdd", &[1.5]).unwrap();
        let mut at_vdd = s.clone();
        at_vdd.set_global_value("vdd", 1.5);
        let played = at_vdd.play(&lib).unwrap();
        assert_eq!(played.global("f"), Some(2e6));
        assert_eq!(
            curve[0].1.value().to_bits(),
            played.total_power().value().to_bits()
        );
    }

    #[test]
    fn batched_sweep_matches_serial_bit_for_bit() {
        let lib = ucb_library();
        let s = sheet();
        let values: Vec<f64> = (0..100).map(|i| 0.9 + 0.025 * i as f64).collect();
        let batched = sweep_global(&s, &lib, "vdd", &values).unwrap();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap();
        assert_eq!(total_bits(&batched), report_bits(&serial));
    }

    #[test]
    fn sweep_reports_first_failing_value_in_input_order() {
        let lib = ucb_library();
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2MHz").unwrap();
        // A negative supply drives the wire's switched capacitance
        // negative, which the element rejects — so failures depend on
        // the swept value, and each failing value carries a distinct
        // error payload.
        s.add_element_row("W", "ucb/wire", [("length_mm", "vdd")])
            .unwrap();
        let values = [1.0, -4.0, -9.0];
        let batched = sweep_global(&s, &lib, "vdd", &values).unwrap_err();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap_err();
        assert_eq!(batched, serial);
    }

    #[test]
    fn sweep_memoizes_duplicate_points() {
        let lib = ucb_library();
        let s = sheet();
        let plan = CompiledSheet::compile(&s, &lib);
        let metrics = whatif_metrics();
        let hits_before = metrics.memo_hits_total.get();
        // 2.0 appears three times; the duplicates must be memo hits and
        // the output must still match the straightforward sweep.
        let values = [1.0, 2.0, 2.0, 3.0, 2.0];
        let memoized = sweep_compiled(&plan, "vdd", &values).unwrap();
        assert!(metrics.memo_hits_total.get() >= hits_before + 2);
        let reference = sweep_global_serial(&s, &lib, "vdd", &values).unwrap();
        assert_eq!(total_bits(&memoized), report_bits(&reference));
    }

    #[test]
    fn sweep_memoized_error_is_shared_across_duplicates() {
        let lib = ucb_library();
        let mut s = Sheet::new("s");
        s.set_global("vdd", "1.5").unwrap();
        s.set_global("f", "2MHz").unwrap();
        s.add_element_row("W", "ucb/wire", [("length_mm", "vdd")])
            .unwrap();
        // The duplicate failing point must surface the same error the
        // serial oracle reports for the earliest failure in input order.
        let values = [1.0, -4.0, -4.0, -9.0];
        let plan = CompiledSheet::compile(&s, &lib);
        let memoized = sweep_compiled(&plan, "vdd", &values).unwrap_err();
        let serial = sweep_global_serial(&s, &lib, "vdd", &values).unwrap_err();
        assert_eq!(memoized, serial);
    }

    #[test]
    fn compiled_sweep_reuses_one_plan() {
        let lib = ucb_library();
        let s = sheet();
        let plan = CompiledSheet::compile(&s, &lib);
        let a = sweep_compiled(&plan, "vdd", &[1.0, 2.0]).unwrap();
        let b = sweep_global(&s, &lib, "vdd", &[1.0, 2.0]).unwrap();
        assert_eq!(total_bits(&a), total_bits(&b));
    }
}
