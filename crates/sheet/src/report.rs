//! Evaluation results and their text-table rendering (the terminal
//! analogue of the paper's Figure 2 / Figure 5 spreadsheet pages).

use std::fmt;
use std::sync::Arc;

use powerplay_library::Evaluation;
use powerplay_units::{format, Area, Energy, Power, Time};

/// The evaluated result of one row.
///
/// Name-like fields are shared `Arc<str>` handles: compiled plans intern
/// them once, so building a report per play costs reference-count bumps
/// rather than string allocations.
#[derive(Debug, Clone, PartialEq)]
pub struct RowReport {
    name: Arc<str>,
    ident: Arc<str>,
    element: Option<Arc<str>>,
    params: Vec<(Arc<str>, f64)>,
    rate: Option<f64>,
    doc_link: Option<Arc<str>>,
    power: Power,
    energy_per_op: Option<Energy>,
    area: Option<Area>,
    delay: Option<Time>,
    /// Shared, not boxed: sub-sheet trees can be large (the InfoPad's
    /// Custom Hardware nests the whole Figure 3 decoder), and an `Arc`
    /// makes cloning a row report a reference-count bump instead of a
    /// deep copy.
    sub: Option<Arc<SheetReport>>,
}

impl RowReport {
    pub(crate) fn for_element(
        name: Arc<str>,
        ident: Arc<str>,
        element: Arc<str>,
        params: Vec<(Arc<str>, f64)>,
        rate: Option<f64>,
        doc_link: Option<Arc<str>>,
        eval: Evaluation,
    ) -> RowReport {
        RowReport {
            name,
            ident,
            element: Some(element),
            params,
            rate,
            doc_link,
            power: eval.power,
            energy_per_op: eval.energy_per_op,
            area: eval.area,
            delay: eval.delay,
            sub: None,
        }
    }

    /// Assembles an element-row report from already-computed quantities
    /// — the bytecode replay path, which carries register values rather
    /// than a library [`Evaluation`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_values(
        name: Arc<str>,
        ident: Arc<str>,
        element: Option<Arc<str>>,
        params: Vec<(Arc<str>, f64)>,
        rate: Option<f64>,
        doc_link: Option<Arc<str>>,
        power: Power,
        energy_per_op: Option<Energy>,
        area: Option<Area>,
        delay: Option<Time>,
    ) -> RowReport {
        RowReport {
            name,
            ident,
            element,
            params,
            rate,
            doc_link,
            power,
            energy_per_op,
            area,
            delay,
            sub: None,
        }
    }

    pub(crate) fn for_subsheet(
        name: Arc<str>,
        ident: Arc<str>,
        params: Vec<(Arc<str>, f64)>,
        doc_link: Option<Arc<str>>,
        sub: SheetReport,
    ) -> RowReport {
        RowReport {
            name,
            ident,
            element: None,
            params,
            rate: None,
            doc_link,
            power: sub.total_power(),
            energy_per_op: None,
            area: sub.total_area(),
            delay: None,
            sub: Some(Arc::new(sub)),
        }
    }

    /// The row's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The `P_<ident>` reference identifier.
    pub fn ident(&self) -> &str {
        &self.ident
    }

    /// The library element path, or `None` for sub-sheet rows.
    pub fn element(&self) -> Option<&str> {
        self.element.as_deref()
    }

    /// Resolved parameter values shown in the spreadsheet's second column.
    pub fn params(&self) -> &[(Arc<str>, f64)] {
        &self.params
    }

    /// The row's access rate in hertz, when it has one.
    pub fn rate(&self) -> Option<f64> {
        self.rate
    }

    /// Documentation hyperlink, when set.
    pub fn doc_link(&self) -> Option<&str> {
        self.doc_link.as_deref()
    }

    /// The row's total power.
    pub fn power(&self) -> Power {
        self.power
    }

    /// Dynamic energy per access, when capacitive.
    pub fn energy_per_op(&self) -> Option<Energy> {
        self.energy_per_op
    }

    /// Estimated area, when modeled.
    pub fn area(&self) -> Option<Area> {
        self.area
    }

    /// Estimated delay, when modeled.
    pub fn delay(&self) -> Option<Time> {
        self.delay
    }

    /// The nested report for sub-sheet rows (drill-down hyperlink target).
    pub fn sub_report(&self) -> Option<&SheetReport> {
        self.sub.as_deref()
    }
}

/// The identity every total folds from: −0.0, the additive identity of
/// IEEE addition (`x + −0.0` is `x` for every `x`, +0.0 included), so an
/// empty total is −0.0. Reports, the register program, the sweep kernel
/// and the interval analyzer all fold from here, which keeps their
/// totals equal bit for bit.
pub const SUM_IDENTITY: f64 = -0.0;

/// Sums `terms` in order from [`SUM_IDENTITY`].
pub(crate) fn fold_sum(terms: impl Iterator<Item = f64>) -> f64 {
    terms.fold(SUM_IDENTITY, |acc, term| acc + term)
}

/// The evaluated result of a whole sheet.
#[derive(Debug, Clone, PartialEq)]
pub struct SheetReport {
    name: Arc<str>,
    globals: Vec<(String, f64)>,
    rows: Vec<RowReport>,
}

impl SheetReport {
    pub(crate) fn new(
        name: Arc<str>,
        globals: Vec<(String, f64)>,
        rows: Vec<RowReport>,
    ) -> SheetReport {
        SheetReport {
            name,
            globals,
            rows,
        }
    }

    /// The sheet's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolved global parameter values, in declaration order.
    pub fn globals(&self) -> &[(String, f64)] {
        &self.globals
    }

    /// One resolved global by name.
    pub fn global(&self, name: &str) -> Option<f64> {
        self.globals
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Row results, in display order.
    pub fn rows(&self) -> &[RowReport] {
        &self.rows
    }

    /// One row result by display name.
    pub fn row(&self, name: &str) -> Option<&RowReport> {
        self.rows.iter().find(|r| r.name() == name)
    }

    /// Total power: the sum of all row powers in row order, starting
    /// from −0.0 (the total of a sheet without rows).
    pub fn total_power(&self) -> Power {
        Power::new(fold_sum(self.rows.iter().map(|r| r.power.value())))
    }

    /// Total area over rows that model area; `None` when none do.
    pub fn total_area(&self) -> Option<Area> {
        let mut areas = self.rows.iter().filter_map(|r| r.area).peekable();
        areas.peek()?;
        Some(Area::new(fold_sum(areas.map(Area::value))))
    }

    /// The slowest delay-modeled row — the design's critical path at this
    /// operating point (timing analysis is the paper's "also used for
    /// area and timing" companion to the power column).
    pub fn critical_path(&self) -> Option<(&str, Time)> {
        self.rows
            .iter()
            .filter_map(|r| r.delay().map(|d| (r.name(), d)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite delays"))
    }

    /// Rows whose modeled delay exceeds their own access period —
    /// the designs that won't work at this supply/rate, listed as
    /// `(name, delay, period)`.
    pub fn timing_violations(&self) -> Vec<(&str, Time, Time)> {
        self.rows
            .iter()
            .filter_map(|r| match (r.delay(), r.rate()) {
                (Some(delay), Some(rate)) if rate > 0.0 => {
                    let period = Time::new(1.0 / rate);
                    (delay > period).then_some((r.name(), delay, period))
                }
                _ => None,
            })
            .collect()
    }

    /// True when every delay-modeled row meets its access period.
    pub fn meets_timing(&self) -> bool {
        self.timing_violations().is_empty()
    }

    /// Each row's share of total power, `(name, fraction)`, largest first
    /// — the "identify the major power consumers" view.
    pub fn breakdown(&self) -> Vec<(String, f64)> {
        let total = self.total_power().value();
        let mut shares: Vec<(String, f64)> = self
            .rows
            .iter()
            .map(|r| {
                let share = if total > 0.0 {
                    r.power().value() / total
                } else {
                    0.0
                };
                (r.name().to_owned(), share)
            })
            .collect();
        shares.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite shares"));
        shares
    }
}

impl fmt::Display for SheetReport {
    /// Renders the Figure 2 / Figure 5-style summary table.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} summary", self.name)?;
        writeln!(f, "{}", "=".repeat(self.name.len() + 8))?;
        for (name, value) in &self.globals {
            writeln!(f, "  {name} = {value}")?;
        }
        writeln!(
            f,
            "{:<22} {:<34} {:>12} {:>12} {:>7}",
            "Name", "Parameters", "Energy/op", "Power", "%"
        )?;
        let total = self.total_power();
        for row in &self.rows {
            let params = row
                .params()
                .iter()
                .map(|(n, v)| format!("{n}={v}"))
                .collect::<Vec<_>>()
                .join(" ");
            let energy = row
                .energy_per_op()
                .map(|e| e.to_string())
                .unwrap_or_else(|| "-".to_owned());
            let share = if total.value() > 0.0 {
                // A −0.0 row (an empty sub-sheet) has a −0.0 share; it
                // prints as 0.0%, like any other zero.
                let share = row.power().value() / total.value();
                format::percent(if share == 0.0 { 0.0 } else { share })
            } else {
                "-".to_owned()
            };
            let marker = if row.sub_report().is_some() { ">" } else { " " };
            writeln!(
                f,
                "{marker}{:<21} {:<34} {:>12} {:>12} {:>7}",
                row.name(),
                params,
                energy,
                row.power().to_string(),
                share,
            )?;
        }
        writeln!(
            f,
            "{:<22} {:<34} {:>12} {:>12} {:>7}",
            "TOTAL",
            "",
            "",
            total.to_string(),
            "100.0%"
        )?;
        if let Some(area) = self.total_area() {
            writeln!(f, "total area: {:.2} mm2", area.value() * 1e6)?;
        }
        if let Some((name, delay)) = self.critical_path() {
            let verdict = if self.meets_timing() {
                "meets timing"
            } else {
                "TIMING VIOLATION"
            };
            writeln!(f, "critical path: {name} at {delay} ({verdict})")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sheet;
    use powerplay_library::builtin::ucb_library;

    fn sample_report() -> SheetReport {
        let lib = ucb_library();
        let mut sheet = Sheet::new("Demo");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Big", "ucb/multiplier", [("bw_a", "16"), ("bw_b", "16")])
            .unwrap();
        sheet
            .add_element_row("Small", "ucb/register", [("bits", "4")])
            .unwrap();
        sheet.play(&lib).unwrap()
    }

    #[test]
    fn breakdown_sorted_descending() {
        let report = sample_report();
        let breakdown = report.breakdown();
        assert_eq!(breakdown[0].0, "Big");
        assert!(breakdown[0].1 > breakdown[1].1);
        let sum: f64 = breakdown.iter().map(|(_, s)| s).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn display_renders_table() {
        let report = sample_report();
        let text = report.to_string();
        assert!(text.contains("Demo summary"));
        assert!(text.contains("vdd = 1.5"));
        assert!(text.contains("Big"));
        assert!(text.contains("TOTAL"));
        assert!(text.contains("100.0%"));
        // Area column appears because builtin elements model area.
        assert!(text.contains("total area"));
    }

    #[test]
    fn global_lookup() {
        let report = sample_report();
        assert_eq!(report.global("vdd"), Some(1.5));
        assert_eq!(report.global("f"), Some(2e6));
        assert_eq!(report.global("nope"), None);
    }

    #[test]
    fn critical_path_and_timing() {
        let lib = ucb_library();
        let mut sheet = Sheet::new("T");
        sheet.set_global("vdd", "1.5").unwrap();
        sheet.set_global("f", "2MHz").unwrap();
        sheet
            .add_element_row("Mem", "ucb/sram", [("words", "4096"), ("bits", "6")])
            .unwrap();
        sheet.add_element_row("Reg", "ucb/register", []).unwrap();
        let report = sheet.play(&lib).unwrap();
        // The SRAM is the slowest modeled row.
        let (name, delay) = report.critical_path().unwrap();
        assert_eq!(name, "Mem");
        assert!(delay.value() > 0.0);
        assert!(report.meets_timing(), "2 MHz is easy at 1.5 V");
        assert!(report.to_string().contains("meets timing"));

        // Starve the supply until timing fails.
        let mut slow = sheet.clone();
        slow.set_global("vdd", "0.75").unwrap();
        slow.set_global("f", "50MHz").unwrap();
        let report = slow.play(&lib).unwrap();
        assert!(!report.meets_timing());
        let violations = report.timing_violations();
        assert!(violations.iter().any(|(n, d, p)| *n == "Mem" && d > p));
        assert!(report.to_string().contains("TIMING VIOLATION"));
    }

    #[test]
    fn empty_report_display() {
        let report = SheetReport::new("Empty".into(), vec![], vec![]);
        let text = report.to_string();
        assert!(text.contains("Empty summary"));
        assert!(text.contains("TOTAL"));
        assert_eq!(report.total_area(), None);
        assert!(report.breakdown().is_empty());
    }
}
