//! Seeded input generators: hierarchical designs tiled from the paper's
//! sheets, a Liberty library in the idiom of the test fixture, designs
//! built from its cells, and the edit and sweep-value sequences.
//!
//! Every generator draws from its own [`Rng`] stream, and the shape of
//! what it builds (row counts, tile mix, cell count) is fixed: the seed
//! moves values and orders only, so the work per operation is the same
//! for every seed.

use powerplay_json::Json;

use crate::jsonread;
use crate::rng::Rng;

/// The paper's designs as checked in under `examples/designs/`.
pub const PAPER: [(&str, &str); 3] = [
    (
        "infopad",
        include_str!("../../examples/designs/infopad.json"),
    ),
    (
        "luminance_direct_lut",
        include_str!("../../examples/designs/luminance_direct_lut.json"),
    ),
    (
        "luminance_grouped_lut",
        include_str!("../../examples/designs/luminance_grouped_lut.json"),
    ),
];

/// Reference totals of the paper designs, as recorded with full
/// precision in `BENCH_engine_latency.json`.
pub const PAPER_TOTALS_W: [f64; 3] = [
    10.900274049578124,
    0.0007068071250000001,
    0.00013901737500000003,
];

pub fn paper_design(index: usize) -> Json {
    jsonread::parse(PAPER[index].1).expect("example designs are valid JSON")
}

/// One numeric element binding the edit generator may change.
#[derive(Debug, Clone)]
pub struct Leaf {
    /// Row indices from the top sheet down through sub-sheets.
    path: Vec<usize>,
    binding: usize,
    base: f64,
}

/// A generated design document with what the edit generator needs.
#[derive(Clone)]
pub struct Design {
    pub name: String,
    pub json: Json,
    /// Rows at every level, sub-sheet rows included.
    pub rows: usize,
    pub leaves: Vec<Leaf>,
}

impl Design {
    pub fn body(&self) -> String {
        self.json.to_string()
    }
}

fn count_rows(sheet: &Json) -> usize {
    sheet["rows"].as_array().map_or(0, |rows| {
        rows.iter()
            .map(|r| {
                1 + if r["kind"].as_str() == Some("subsheet") {
                    count_rows(&r["sheet"])
                } else {
                    0
                }
            })
            .sum()
    })
}

fn member_mut<'a>(json: &'a mut Json, key: &str) -> &'a mut Json {
    match json {
        Json::Object(members) => {
            &mut members
                .iter_mut()
                .find(|(k, _)| k == key)
                .unwrap_or_else(|| panic!("generated JSON has `{key}`"))
                .1
        }
        _ => panic!("generated JSON is an object"),
    }
}

fn item_mut(json: &mut Json, index: usize) -> &mut Json {
    match json {
        Json::Array(items) => &mut items[index],
        _ => panic!("generated JSON is an array"),
    }
}

/// Formats a perturbed value: integers stay integers (word and bit
/// counts), fractions keep four significant digits.
fn format_value(base: f64, factor: f64) -> String {
    if base >= 2.0 && base.fract() == 0.0 {
        format!("{}", ((base * factor).round()).max(1.0))
    } else if base < 1.0 {
        // Duty cycles and efficiencies stay inside (0, 1).
        format!("{:.4}", (base * factor).clamp(0.01, 0.95))
    } else {
        format!("{:.4}", base * factor)
    }
}

/// Perturbs every plain-number element binding in `sheet` (recursively)
/// and records it as an editable leaf.
fn perturb(sheet: &mut Json, rng: &mut Rng, path: &mut Vec<usize>, leaves: &mut Vec<Leaf>) {
    let rows = member_mut(sheet, "rows");
    let Json::Array(rows) = rows else { return };
    for (i, row) in rows.iter_mut().enumerate() {
        path.push(i);
        if row["kind"].as_str() == Some("subsheet") {
            perturb(member_mut(row, "sheet"), rng, path, leaves);
        } else if let Json::Array(bindings) = member_mut(row, "bindings") {
            for (b, binding) in bindings.iter_mut().enumerate() {
                let Some(base) = binding["formula"]
                    .as_str()
                    .and_then(|f| f.parse::<f64>().ok())
                else {
                    continue;
                };
                binding.set(
                    "formula",
                    Json::from(format_value(base, rng.range(0.5, 2.0))),
                );
                leaves.push(Leaf {
                    path: path.clone(),
                    binding: b,
                    base,
                });
            }
        }
        path.pop();
    }
}

fn global(name: &str, formula: String) -> Json {
    Json::object([("name", Json::from(name)), ("formula", Json::from(formula))])
}

/// A hierarchical design tiled from the paper's sheets: one sub-sheet
/// row per tile, holding a copy of a paper design's rows with perturbed
/// bindings and without its own globals, so the top-level `vdd`, `f`
/// and `radio_duty` reach every tile. `tiles[i]` counts the tiles taken
/// from paper design `i`; the seed shuffles their order.
pub fn tiled_design(seed: u64, name: &str, tiles: [usize; 3]) -> Design {
    let mut rng = Rng::fork(seed, name);
    let mut kinds: Vec<usize> = (0..3)
        .flat_map(|i| std::iter::repeat_n(i, tiles[i]))
        .collect();
    rng.shuffle(&mut kinds);
    let mut leaves = Vec::new();
    let mut rows = Vec::new();
    for (t, &kind) in kinds.iter().enumerate() {
        let mut sheet = paper_design(kind);
        let title = format!("T{t:02} {}", PAPER[kind].0);
        sheet.set("name", Json::from(title.as_str()));
        sheet.set("globals", Json::array([]));
        perturb(&mut sheet, &mut rng, &mut vec![t], &mut leaves);
        rows.push(Json::object([
            ("name", Json::from(title.as_str())),
            ("kind", Json::from("subsheet")),
            ("sheet", sheet),
            ("bindings", Json::array([])),
        ]));
    }
    let json = Json::object([
        ("name", Json::from(name)),
        (
            "globals",
            Json::array([
                global("vdd", format!("{:.3}", rng.range(1.2, 2.5))),
                global("f", format!("{}", (rng.range(1.0, 4.0) * 1e6).round())),
                global("radio_duty", format!("{:.3}", rng.range(0.2, 0.8))),
            ]),
        ),
        ("rows", Json::Array(rows)),
    ]);
    Design {
        name: name.to_owned(),
        rows: count_rows(&json),
        json,
        leaves,
    }
}

/// One seeded edit of a design: which value changed, for the record.
#[derive(Clone)]
pub enum Edit {
    Leaf { leaf: usize, formula: String },
    Global { name: &'static str, formula: String },
}

/// Applies `edit` to the design document in place.
pub fn apply_edit(design: &mut Design, edit: &Edit) {
    match edit {
        Edit::Leaf { leaf, formula } => {
            let leaf = &design.leaves[*leaf];
            let mut node = &mut design.json;
            for &i in &leaf.path {
                node = item_mut(member_mut(node, "rows"), i);
                if node["kind"].as_str() == Some("subsheet") {
                    node = member_mut(node, "sheet");
                }
            }
            let binding = item_mut(member_mut(node, "bindings"), leaf.binding);
            binding.set("formula", Json::from(formula.as_str()));
        }
        Edit::Global { name, formula } => {
            let Json::Array(globals) = member_mut(&mut design.json, "globals") else {
                panic!("generated design has globals");
            };
            let slot = globals
                .iter_mut()
                .find(|g| g["name"].as_str() == Some(name))
                .expect("generated design defines the edited global");
            slot.set("formula", Json::from(formula.as_str()));
        }
    }
}

/// The editor's seeded sequence: a single leaf binding three times in
/// four, a top-level global once in four. Values are drawn afresh from
/// each binding's original value, so they never drift out of range.
pub struct EditGen {
    rng: Rng,
}

impl EditGen {
    pub fn new(seed: u64) -> EditGen {
        EditGen {
            rng: Rng::fork(seed, "edits"),
        }
    }

    pub fn next(&mut self, design: &Design) -> Edit {
        if self.rng.below(4) < 3 {
            let leaf = self.rng.below(design.leaves.len());
            let factor = self.rng.range(0.5, 2.0);
            Edit::Leaf {
                leaf,
                formula: format_value(design.leaves[leaf].base, factor),
            }
        } else {
            match self.rng.below(3) {
                0 => Edit::Global {
                    name: "vdd",
                    formula: format!("{:.3}", self.rng.range(1.0, 3.3)),
                },
                1 => Edit::Global {
                    name: "f",
                    formula: format!("{}", (self.rng.range(1.0, 4.0) * 1e6).round()),
                },
                _ => Edit::Global {
                    name: "radio_duty",
                    formula: format!("{:.3}", self.rng.range(0.1, 0.9)),
                },
            }
        }
    }
}

/// Distinct supply voltages for the sweeps over one design: a seeded
/// pool, from which each sweep takes [`SWEEP_POINTS`] different values
/// in a seeded order. Reusing a bounded pool lets the checks memoise
/// their reference plays; the server keeps no sweep results between
/// requests, so reuse saves it nothing.
pub const SWEEP_POINTS: usize = 64;
const SWEEP_POOL: usize = 128;

pub struct SweepGen {
    rng: Rng,
    pool: Vec<f64>,
}

impl SweepGen {
    pub fn new(seed: u64, design: &str) -> SweepGen {
        let mut rng = Rng::fork(seed, &format!("sweep {design}"));
        let mut pool: Vec<f64> = Vec::with_capacity(SWEEP_POOL);
        while pool.len() < SWEEP_POOL {
            // Millivolt steps between 0.9 V and 3.3 V, all distinct.
            let v = (rng.range(900.0, 3300.0)).round() / 1000.0;
            if !pool.contains(&v) {
                pool.push(v);
            }
        }
        SweepGen { rng, pool }
    }

    pub fn next(&mut self) -> Vec<f64> {
        let mut pool = self.pool.clone();
        self.rng.shuffle(&mut pool);
        pool.truncate(SWEEP_POINTS);
        pool
    }
}

// --- Liberty ---------------------------------------------------------------

/// The library name every generated import uses, so each import is a
/// new revision of the same document.
pub const LIB_NAME: &str = "benchlib";

/// How a cell keeps state, which decides its extra pins and groups.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Combinational,
    Flop,
    Latch,
}

/// A cell archetype in the idiom of `tests/fixtures/gscl45nm_mini.lib`.
struct Archetype {
    stem: &'static str,
    inputs: &'static [&'static str],
    area: f64,
    leakage_nw: f64,
    energy: f64,
    kind: Kind,
}

const fn arch(
    stem: &'static str,
    inputs: &'static [&'static str],
    area: f64,
    leakage_nw: f64,
    energy: f64,
    kind: Kind,
) -> Archetype {
    Archetype {
        stem,
        inputs,
        area,
        leakage_nw,
        energy,
        kind,
    }
}

const ARCHETYPES: [Archetype; 9] = [
    arch("INVX", &["A"], 1.08, 18.2, 0.0022, Kind::Combinational),
    arch(
        "NAND2X",
        &["A", "B"],
        1.44,
        25.1,
        0.0030,
        Kind::Combinational,
    ),
    arch(
        "NOR2X",
        &["A", "B"],
        1.44,
        23.8,
        0.0033,
        Kind::Combinational,
    ),
    arch(
        "AND2X",
        &["A", "B"],
        1.80,
        28.9,
        0.0045,
        Kind::Combinational,
    ),
    arch("OR2X", &["A", "B"], 1.80, 27.5, 0.0046, Kind::Combinational),
    arch(
        "XOR2X",
        &["A", "B"],
        2.88,
        41.3,
        0.0063,
        Kind::Combinational,
    ),
    arch("BUFX", &["A"], 1.80, 30.4, 0.0053, Kind::Combinational),
    arch("DFFPOSX", &["D"], 5.76, 84.7, 0.0110, Kind::Flop),
    arch("LATCHX", &["D"], 3.60, 52.9, 0.0070, Kind::Latch),
];

/// Names of the `cells` mappable cells, in library order.
pub fn cell_names(cells: usize) -> Vec<String> {
    (0..cells)
        .map(|i| format!("{}{}_{:03}", ARCHETYPES[i % 9].stem, 1 + (i / 9) % 4, i))
        .collect()
}

fn table(out: &mut String, kind: &str, base: f64, rng: &mut Rng) {
    let row = |k: f64, rng: &mut Rng| {
        (0..3)
            .map(|j| {
                format!(
                    "{:.5}",
                    base * k * (1.0 + 0.25 * j as f64) * rng.range(0.9, 1.1)
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    };
    let rows: Vec<String> = [1.0, 1.1, 1.35].iter().map(|&k| row(k, rng)).collect();
    out.push_str(&format!(
        "                {kind} (power_3x3) {{\n                    values (\"{}\", \\\n                            \"{}\", \\\n                            \"{}\");\n                }}\n",
        rows[0], rows[1], rows[2]
    ));
}

/// A Liberty source with `cells` mappable cells plus one powerless
/// filler (which the importer must skip with W119), every value scaled
/// by a seeded factor. Each call draws new values from `rng`.
pub fn liberty(rng: &mut Rng, cells: usize) -> String {
    let mut out = format!(
        "/* {LIB_NAME}: generated in the idiom of gscl45nm_mini.lib */\n\
library ({LIB_NAME}) {{\n    delay_model : table_lookup;\n    time_unit : \"1ns\";\n    \
voltage_unit : \"1V\";\n    current_unit : \"1mA\";\n    leakage_power_unit : \"1nW\";\n    \
capacitive_load_unit (1, pf);\n    nom_voltage : 1.1;\n    operating_conditions (typical) {{\n        \
process : 1.0;\n        temperature : 27.0;\n        voltage : 1.1;\n    }}\n    \
default_operating_conditions : typical;\n    lu_table_template (power_3x3) {{\n        \
variable_1 : input_net_transition;\n        variable_2 : total_output_net_capacitance;\n        \
index_1 (\"0.02, 0.20, 0.60\");\n        index_2 (\"0.005, 0.05, 0.20\");\n    }}\n"
    );
    for (i, name) in cell_names(cells).iter().enumerate() {
        let a = &ARCHETYPES[i % 9];
        let drive = 1.0 + ((i / 9) % 4) as f64 * 0.6;
        let k = rng.range(0.8, 1.25) * drive;
        out.push_str(&format!(
            "    cell ({name}) {{\n        area : {:.3};\n        cell_leakage_power : {:.2};\n",
            a.area * drive,
            a.leakage_nw * k
        ));
        match a.kind {
            Kind::Flop => {
                out.push_str("        ff (IQ, IQN) { next_state : \"D\"; clocked_on : \"CLK\"; }\n")
            }
            Kind::Latch => {
                out.push_str("        latch (IQ, IQN) { data_in : \"D\"; enable : \"EN\"; }\n")
            }
            Kind::Combinational => {}
        }
        for pin in a.inputs {
            out.push_str(&format!(
                "        pin ({pin}) {{ direction : input; capacitance : {:.5}; }}\n",
                0.0035 * k * rng.range(0.9, 1.1)
            ));
        }
        // Sequential cells draw their internal power on the clock or
        // enable pin, as the fixture's DFF and latch do.
        let related = match a.kind {
            Kind::Flop => {
                out.push_str(&format!(
                    "        pin (CLK) {{ direction : input; capacitance : {:.5}; }}\n",
                    0.0042 * k
                ));
                "CLK"
            }
            Kind::Latch => {
                out.push_str(&format!(
                    "        pin (EN) {{ direction : input; capacitance : {:.5}; }}\n",
                    0.0031 * k
                ));
                "EN"
            }
            Kind::Combinational => a.inputs[0],
        };
        out.push_str(&format!(
            "        pin (Y) {{\n            direction : output;\n            internal_power () {{\n                related_pin : \"{related}\";\n"
        ));
        let energy = a.energy;
        table(&mut out, "rise_power", energy * k, rng);
        table(&mut out, "fall_power", energy * k * 0.92, rng);
        out.push_str("            }\n        }\n    }\n");
    }
    out.push_str("    cell (FILL1) {\n        area : 0.36;\n    }\n}\n");
    out
}

/// A hierarchical design over the generated cells: `blocks` sub-sheets
/// of `per_block` cell rows each, every row an imported element with a
/// seeded switching activity.
pub fn cell_design(
    seed: u64,
    name: &str,
    cells: &[String],
    blocks: usize,
    per_block: usize,
) -> Design {
    let mut rng = Rng::fork(seed, name);
    let mut rows = Vec::new();
    let mut leaves = Vec::new();
    for b in 0..blocks {
        let block_rows: Vec<Json> = (0..per_block)
            .map(|r| {
                let cell = &cells[rng.below(cells.len())];
                let activity = rng.range(0.05, 0.5);
                leaves.push(Leaf {
                    path: vec![b, r],
                    binding: 0,
                    base: activity,
                });
                Json::object([
                    ("name", Json::from(format!("U{r:02} {cell}"))),
                    ("kind", Json::from("element")),
                    ("element", Json::from(format!("{LIB_NAME}/{cell}"))),
                    (
                        "bindings",
                        Json::array([Json::object([
                            ("param", Json::from("activity")),
                            ("formula", Json::from(format!("{activity:.4}"))),
                        ])]),
                    ),
                ])
            })
            .collect();
        let title = format!("Block {b:02}");
        rows.push(Json::object([
            ("name", Json::from(title.as_str())),
            ("kind", Json::from("subsheet")),
            (
                "sheet",
                Json::object([
                    ("name", Json::from(title.as_str())),
                    ("globals", Json::array([])),
                    ("rows", Json::Array(block_rows)),
                ]),
            ),
            ("bindings", Json::array([])),
        ]));
    }
    let json = Json::object([
        ("name", Json::from(name)),
        (
            "globals",
            Json::array([
                global("vdd", "1.1".to_owned()),
                global("f", format!("{}", (rng.range(2.0, 8.0) * 1e8).round())),
            ]),
        ),
        ("rows", Json::Array(rows)),
    ]);
    Design {
        name: name.to_owned(),
        rows: count_rows(&json),
        json,
        leaves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_move_values_not_shapes() {
        let a = tiled_design(1, "d", [4, 3, 3]);
        let b = tiled_design(2, "d", [4, 3, 3]);
        assert_eq!(a.rows, b.rows);
        assert_eq!(a.leaves.len(), b.leaves.len());
        assert_ne!(a.body(), b.body());
        assert_eq!(a.body(), tiled_design(1, "d", [4, 3, 3]).body());
        let lib = |seed| liberty(&mut Rng::fork(seed, "liberty"), 12);
        assert_eq!(lib(1), lib(1));
        assert_ne!(lib(1), lib(2));
    }

    #[test]
    fn generated_library_imports_every_cell_but_the_filler() {
        let import = powerplay_liberty::import_str(&liberty(&mut Rng::new(3), 18), "test");
        assert!(!import.report.has_errors());
        assert_eq!((import.cells_parsed, import.cells_mapped), (19, 18));
        let names: Vec<String> = import
            .elements
            .iter()
            .map(|e| e.name().to_owned())
            .collect();
        let want: Vec<String> = cell_names(18)
            .iter()
            .map(|c| format!("{LIB_NAME}/{c}"))
            .collect();
        assert_eq!(names, want);
    }

    #[test]
    fn sweeps_take_distinct_points() {
        let mut sweeps = SweepGen::new(5, "d");
        let mut points = sweeps.next();
        points.sort_by(f64::total_cmp);
        points.dedup();
        assert_eq!(points.len(), SWEEP_POINTS);
    }
}
