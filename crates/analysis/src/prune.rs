//! Bound-guided what-if pruning.
//!
//! A constrained sweep wants only the points whose total power lands
//! inside a window. The analyzer can often *prove* a whole segment of
//! sweep values lands outside it — those points are skipped without a
//! replay, and the skip is sound: the proof covers every concrete
//! play in the segment, and pruning only happens when the analysis
//! also proves no play in the segment can fail (so the concrete
//! sweep's error semantics are preserved). Surviving points go
//! through [`whatif::sweep_compiled`] unchanged, so their totals are
//! bit-identical to an unconstrained sweep's.

use powerplay_library::Registry;
use powerplay_sheet::{whatif, CompiledSheet, EvaluateSheetError, Sheet, SheetReport};
use powerplay_units::{Power, Voltage};

use crate::analyzer::{analysis_metrics, analyze_with_ranges};
use crate::bounds::SheetBounds;
use crate::interval::Interval;

/// A window total power must land in: `min_w <= P <= max_w`, either
/// side optional.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerConstraint {
    /// Lower bound, watts (inclusive).
    pub min_w: Option<f64>,
    /// Upper bound, watts (inclusive).
    pub max_w: Option<f64>,
}

impl PowerConstraint {
    /// Only an upper bound: `P <= max_w`.
    #[must_use]
    pub fn at_most(max_w: f64) -> PowerConstraint {
        PowerConstraint {
            min_w: None,
            max_w: Some(max_w),
        }
    }

    /// Only a lower bound: `P >= min_w`.
    #[must_use]
    pub fn at_least(min_w: f64) -> PowerConstraint {
        PowerConstraint {
            min_w: Some(min_w),
            max_w: None,
        }
    }

    /// True when a concrete total power satisfies the window.
    #[must_use]
    pub fn admits(&self, power: f64) -> bool {
        self.min_w.is_none_or(|m| power >= m) && self.max_w.is_none_or(|m| power <= m)
    }

    /// True when the proven interval lies entirely outside the window
    /// (every play in it would be rejected). NaN-reachability defeats
    /// the proof.
    #[must_use]
    pub fn excludes(&self, iv: &Interval) -> bool {
        if iv.nan || iv.is_numeric_empty() {
            return false;
        }
        self.min_w.is_some_and(|m| iv.hi < m) || self.max_w.is_some_and(|m| iv.lo > m)
    }

    /// True when the proven interval lies entirely inside the window.
    #[must_use]
    pub fn contains(&self, iv: &Interval) -> bool {
        if iv.nan || iv.is_numeric_empty() {
            return false;
        }
        self.min_w.is_none_or(|m| iv.lo >= m) && self.max_w.is_none_or(|m| iv.hi <= m)
    }
}

/// What happened to one sweep point.
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// Skipped: the proven total-power interval for its segment lies
    /// outside the constraint.
    Pruned(Interval),
    /// Replayed; the total is bit-identical to an unconstrained sweep's
    /// at this value.
    Played(Power),
}

/// The result of a constrained, bound-pruned sweep.
#[derive(Debug, Clone)]
pub struct ConstrainedSweep {
    /// One outcome per input value, in input order.
    pub outcomes: Vec<(f64, PointOutcome)>,
    /// Points skipped by proof.
    pub pruned: usize,
    /// Points actually replayed.
    pub played: usize,
    /// Abstract analyses performed during segment bisection.
    pub analyses: usize,
}

impl ConstrainedSweep {
    /// The played points that satisfy the constraint, in input order —
    /// the sweep's useful output.
    #[must_use]
    pub fn admitted(&self, constraint: &PowerConstraint) -> Vec<(f64, Power)> {
        self.outcomes
            .iter()
            .filter_map(|(v, o)| match o {
                PointOutcome::Played(p) if constraint.admits(p.value()) => Some((*v, *p)),
                _ => None,
            })
            .collect()
    }
}

/// Segment verdicts from the bisection.
enum SegmentPlan {
    PruneAll(Interval),
    PlayAll,
}

/// Sweeps `global` over `values`, skipping points the analyzer proves
/// outside `constraint`.
///
/// # Errors
///
/// Exactly the errors [`whatif::sweep_compiled`] reports on the
/// surviving points. Pruned points are proven unable to fail, so the
/// first error (in input order) is unchanged from an unconstrained
/// sweep.
pub fn sweep_constrained(
    plan: &CompiledSheet,
    global: &str,
    values: &[f64],
    constraint: &PowerConstraint,
) -> Result<ConstrainedSweep, EvaluateSheetError> {
    let metrics = analysis_metrics();
    let mut plans: Vec<Option<SegmentPlan>> = Vec::new();
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut analyses = 0usize;

    // Bisect index segments; each analysis covers the segment's value
    // hull, so unordered sweeps still work.
    let mut stack: Vec<(usize, usize)> = if values.is_empty() {
        Vec::new()
    } else {
        vec![(0, values.len())]
    };
    while let Some((a, b)) = stack.pop() {
        let seg = &values[a..b];
        let lo = seg.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = seg.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let verdict = if lo.is_nan() || hi.is_nan() || lo > hi {
            // NaN sweep values admit no range proof; play them.
            Some(SegmentPlan::PlayAll)
        } else {
            analyses += 1;
            match analyze_with_ranges(plan, &[(global.to_string(), Interval::new(lo, hi))]) {
                Ok(bounds) if !bounds.may_fail && constraint.excludes(&bounds.total_power) => {
                    Some(SegmentPlan::PruneAll(bounds.total_power))
                }
                Ok(bounds) if !bounds.may_fail && constraint.contains(&bounds.total_power) => {
                    // Provably inside: no deeper analysis can prune
                    // anything, stop bisecting.
                    Some(SegmentPlan::PlayAll)
                }
                _ if b - a == 1 => Some(SegmentPlan::PlayAll),
                _ => None,
            }
        };
        match verdict {
            Some(p) => {
                spans.push((a, b));
                plans.push(Some(p));
            }
            None => {
                let mid = a + (b - a) / 2;
                stack.push((mid, b));
                stack.push((a, mid));
            }
        }
    }

    // Survivors keep input order for the replay.
    let mut keep = vec![false; values.len()];
    let mut pruned_iv: Vec<Option<Interval>> = vec![None; values.len()];
    for ((a, b), p) in spans.iter().zip(&plans) {
        match p.as_ref().expect("every span planned") {
            SegmentPlan::PlayAll => keep[*a..*b].iter_mut().for_each(|k| *k = true),
            SegmentPlan::PruneAll(iv) => {
                for slot in &mut pruned_iv[*a..*b] {
                    *slot = Some(*iv);
                }
            }
        }
    }

    let survivors: Vec<f64> = values
        .iter()
        .zip(&keep)
        .filter_map(|(v, k)| k.then_some(*v))
        .collect();
    let played = survivors.len();
    let pruned = values.len() - played;

    metrics.sweep_points_pruned_total.add(pruned as u64);
    metrics.sweep_points_played_total.add(played as u64);
    if pruned > 0 {
        metrics.prunes_total.inc();
    }

    let mut totals = whatif::sweep_compiled(plan, global, &survivors)?.into_iter();
    let outcomes = values
        .iter()
        .zip(&keep)
        .enumerate()
        .map(|(i, (&v, &k))| {
            let outcome = if k {
                let (_, total) = totals.next().expect("one total per survivor");
                PointOutcome::Played(total)
            } else {
                PointOutcome::Pruned(pruned_iv[i].expect("pruned points carry their proof"))
            };
            (v, outcome)
        })
        .collect();

    Ok(ConstrainedSweep {
        outcomes,
        pruned,
        played,
        analyses,
    })
}

/// Timing verdicts the bounds can prove at one operating point.
fn provably_meets_timing(bounds: &SheetBounds) -> bool {
    !bounds.may_fail
        && bounds.rows.iter().all(|r| match (&r.delay, &r.rate) {
            (Some(delay), Some(rate)) => {
                if delay.nan || rate.nan || delay.is_numeric_empty() || rate.is_numeric_empty() {
                    false
                } else if rate.hi <= 0.0 {
                    // No positive rate reachable: the concrete check
                    // skips the row.
                    true
                } else {
                    delay.hi <= 1.0 / rate.hi
                }
            }
            _ => true,
        })
}

fn provably_violates_timing(bounds: &SheetBounds) -> bool {
    !bounds.may_fail
        && bounds.rows.iter().any(|r| match (&r.delay, &r.rate) {
            (Some(delay), Some(rate)) => {
                !delay.nan
                    && !rate.nan
                    && !delay.is_numeric_empty()
                    && !rate.is_numeric_empty()
                    && rate.lo > 0.0
                    && delay.lo > 1.0 / rate.lo
            }
            _ => false,
        })
}

/// [`whatif::min_vdd_meeting_timing`] seeded by proven bounds: the
/// bracket is first narrowed by abstract analyses at probe supplies
/// (no replays), then the concrete bisection runs on the narrowed
/// bracket.
///
/// When the analyzer cannot prove anything (or some play in the
/// bracket can fail), the bracket is left untouched and this is
/// exactly the unseeded search.
///
/// # Errors
///
/// Those of [`whatif::min_vdd_meeting_timing`] on the (possibly
/// narrowed) bracket.
pub fn min_vdd_meeting_timing_seeded(
    sheet: &Sheet,
    registry: &Registry,
    vdd_min: Voltage,
    vdd_max: Voltage,
) -> Result<Option<(Voltage, SheetReport)>, EvaluateSheetError> {
    let metrics = analysis_metrics();
    let plan = CompiledSheet::compile(sheet, registry);
    let probe =
        |vdd: f64| analyze_with_ranges(&plan, &[("vdd".to_string(), Interval::point(vdd))]).ok();

    let mut lo = vdd_min.value();
    let mut hi = vdd_max.value();

    // The ceiling provably failing means the whole search fails —
    // settled without a single replay.
    if let Some(bounds) = probe(hi) {
        if provably_violates_timing(&bounds) {
            metrics.minvdd_narrowed_total.inc();
            return Ok(None);
        }
    }

    let mut narrowed = false;
    for _ in 0..6 {
        let mid = lo + (hi - lo) / 2.0;
        if mid <= lo || mid >= hi {
            break;
        }
        match probe(mid) {
            Some(bounds) if provably_meets_timing(&bounds) => {
                hi = mid;
                narrowed = true;
            }
            Some(bounds) if provably_violates_timing(&bounds) => {
                lo = mid;
                narrowed = true;
            }
            _ => break,
        }
    }
    if narrowed {
        metrics.minvdd_narrowed_total.inc();
    }

    whatif::min_vdd_meeting_timing(sheet, registry, Voltage::new(lo), Voltage::new(hi))
}
