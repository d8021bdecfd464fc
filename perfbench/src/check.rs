//! Reference results for the output checks. Every reference is a fresh
//! in-process `CompiledSheet::compile` plus `play_with` of the same
//! sheet — never the server's cached plan, delta replay or batch
//! kernel, which are what the benchmark times.

use powerplay_json::Json;
use powerplay_library::Registry;
use powerplay_sheet::{CompiledSheet, Sheet, SheetReport};

pub fn compile(design: &Json, registry: &Registry) -> Result<CompiledSheet, String> {
    let sheet = Sheet::from_json(design).map_err(|e| format!("reference decode: {e}"))?;
    Ok(CompiledSheet::compile(&sheet, registry))
}

pub fn play(plan: &CompiledSheet, overrides: &[(&str, f64)]) -> Result<SheetReport, String> {
    plan.play_with(overrides)
        .map_err(|e| format!("reference play: {e}"))
}

fn bits(json: &Json, what: &str) -> Result<u64, String> {
    json.as_f64()
        .map(f64::to_bits)
        .ok_or_else(|| format!("{what} is not a number"))
}

/// Checks a `{total_w, rows: [{name, power_w}]}` report bit for bit.
pub fn same_report(what: &str, reference: &SheetReport, got: &Json) -> Result<(), String> {
    let total = reference.total_power().value();
    if bits(&got["total_w"], "total_w")? != total.to_bits() {
        return Err(format!(
            "{what}: total {} W, reference {total} W",
            got["total_w"].as_f64().unwrap_or(f64::NAN)
        ));
    }
    let rows = got["rows"].as_array().ok_or(format!("{what}: no rows"))?;
    if rows.len() != reference.rows().len() {
        return Err(format!(
            "{what}: {} rows, reference {}",
            rows.len(),
            reference.rows().len()
        ));
    }
    for (row, want) in rows.iter().zip(reference.rows()) {
        if row["name"].as_str() != Some(want.name())
            || bits(&row["power_w"], "power_w")? != want.power().value().to_bits()
        {
            return Err(format!(
                "{what}: row `{}` differs from the reference",
                want.name()
            ));
        }
    }
    Ok(())
}

pub fn same_total(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: total {got} W, reference {want} W"))
    }
}

/// FNV-1a over a report's row names and the bit patterns of its total
/// and row powers: two reports fingerprint alike only if they agree bit
/// for bit. Lets a run keep 8 bytes per answer instead of the answer.
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Fingerprint {
        Fingerprint::new()
    }
}

impl Fingerprint {
    pub fn new() -> Fingerprint {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn value(&mut self, v: f64) {
        self.bytes(&v.to_bits().to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Fingerprint of a `{total_w, rows: [{name, power_w}]}` answer.
pub fn answer_print(got: &Json) -> Result<u64, String> {
    let mut f = Fingerprint::new();
    f.value(got["total_w"].as_f64().ok_or("report without total_w")?);
    for row in got["rows"].as_array().ok_or("report without rows")? {
        f.bytes(row["name"].as_str().ok_or("row without name")?.as_bytes());
        f.value(row["power_w"].as_f64().ok_or("row without power_w")?);
    }
    Ok(f.finish())
}

/// The same fingerprint of a reference report.
pub fn reference_print(report: &SheetReport) -> u64 {
    let mut f = Fingerprint::new();
    f.value(report.total_power().value());
    for row in report.rows() {
        f.bytes(row.name().as_bytes());
        f.value(row.power().value());
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn an_answer_fingerprints_like_its_reference() {
        let design = gen::tiled_design(4, "d", [1, 1, 1]);
        let plan = compile(&design.json, &powerplay_library::builtin::ucb_library()).unwrap();
        let report = play(&plan, &[]).unwrap();
        let rows: Json = report
            .rows()
            .iter()
            .map(|r| {
                Json::object([
                    ("name", Json::from(r.name())),
                    ("power_w", Json::from(r.power().value())),
                ])
            })
            .collect();
        let answer = Json::object([
            ("total_w", Json::from(report.total_power().value())),
            ("rows", rows),
        ]);
        // Through the program's encoder and the benchmark's reader.
        let read = crate::jsonread::parse(&answer.to_string()).unwrap();
        same_report("answer", &report, &read).unwrap();
        assert_eq!(answer_print(&read).unwrap(), reference_print(&report));
        let other = play(&plan, &[("vdd", 2.5)]).unwrap();
        assert_ne!(reference_print(&other), reference_print(&report));
    }
}
