//! The PowerPlay design spreadsheet.
//!
//! A design is a hierarchical [`Sheet`]: an ordered list of *global
//! parameters* (supply voltage, pixel rate, bit-widths…) and *rows*, each
//! instantiating a library element, an inline model, or a nested
//! sub-sheet. Pressing *Play* ([`Sheet::play`]) evaluates everything —
//! globals first, then rows in dependency order — and produces a
//! [`SheetReport`] that renders as the text analogue of the paper's
//! Figure 2 / Figure 5 spreadsheets.
//!
//! The engine supports the paper's headline features:
//!
//! * **parameter inheritance** — sub-sheets see their ancestors' globals
//!   through lexically chained scopes, shadowable per row;
//! * **intermodel interaction** — a row's parameter may reference another
//!   row's computed power as `P_<row>` (the DC-DC converter's load);
//!   the engine orders rows by those dependencies and rejects cycles;
//! * **macro lumping** — [`Sheet::to_macro`] collapses a whole sub-design
//!   into a single reusable `LibraryElement` by exact polynomial
//!   extraction of its EQ 1 components;
//! * **what-if exploration** — [`whatif`] sweeps any global and reports
//!   sensitivities.
//!
//! ```
//! use powerplay_library::builtin::ucb_library;
//! use powerplay_sheet::Sheet;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lib = ucb_library();
//! let mut sheet = Sheet::new("demo");
//! sheet.set_global("vdd", "1.5")?;
//! sheet.set_global("f", "2MHz")?;
//! sheet.add_element_row("Datapath", "ucb/multiplier", [("bw_a", "8"), ("bw_b", "8")])?;
//! sheet.add_element_row("Pipeline", "ucb/register", [("bits", "16")])?;
//! let report = sheet.play(&lib)?;
//! assert_eq!(report.rows().len(), 2);
//! assert!(report.total_power().value() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod compare;
pub mod paths;

mod bytecode;
mod engine;
mod json_io;
mod macros;
mod plan;
mod report;
mod row;
mod sheet;
pub mod whatif;

pub use bytecode::{Backend, Formula, Names, Pure, WalkedRow};
pub use engine::{toposort, EvaluateSheetError};
pub use json_io::DecodeSheetError;
pub use macros::LumpMacroError;
pub use plan::{
    BatchKernel, CompiledSheet, GlobalView, OverridePlan, RowKindView, RowView, RowsView,
};
pub use report::{RowReport, SheetReport, SUM_IDENTITY};
pub use row::{Row, RowModel};
pub use sheet::Sheet;
