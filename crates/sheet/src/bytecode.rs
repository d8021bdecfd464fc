//! The bytecode replay engine: a sheet lowered to a register machine.
//!
//! [`super::plan::CompiledSheet`] already amortizes graph analysis, but
//! a tree walker would still resolve every variable reference through a
//! `HashMap` scope chain on every play — per-reference hashing on the
//! hottest path in the system. This module lowers the compiled row
//! structure (sub-sheets inlined) into one flat [`Program`]: a
//! contiguous array of [`Instr`] whose operands are `u32` register slots
//! resolved at compile time. Replay is a tight interpreter loop over a
//! single `f64` register file — zero hashing, zero string comparison,
//! zero `Arc` cloning per instruction. Every play and sweep runs a
//! program; the tree walker
//! ([`super::plan::CompiledSheet::play_with_tree`]) is the test oracle.
//!
//! # One walk, two back ends
//!
//! Lowering is one walk over the compiled sheet that makes every decision
//! of the sheet's semantics: scope layers (parameter defaults, then
//! bindings in order), each element's formula order and the EQ 1
//! template with its `vdd`/`f` traps, sub-sheet inlining, the `P_`/`A_`
//! publication rule and the nesting of errors. What it does with each
//! value is a [`Backend`]'s: the register back end folds, value-numbers
//! and emits the instructions of a fragment or a prologue, and the
//! interval analyzer (`powerplay-analysis`) computes an abstract value.
//! [`CompiledSheet::walk`] runs the whole walk of a play — globals, then
//! rows — for such a back end, so the analyzer's bounds follow the
//! evaluation rules the program runs, with no copy of them.
//!
//! # Fragments and the link
//!
//! Each top-level row is lowered on its own into a [`Fragment`]: its
//! code, constants, report recipe and error templates over
//! fragment-local registers, numbered through the fragment's own
//! value-number table. A name the row does not bind — a top-level
//! global, an appended override name, the `P_`/`A_` of a row earlier in
//! plan order — is a fragment *input*. The fragment records every such
//! name and whether it was found, because presence changes the code: an
//! absent name traps, and `vdd` and `f` pick the template's branch.
//! [`Program::link`] walks the rows in plan order and joins their
//! fragments: each input maps to its register in the program, each
//! constant to one pool deduplicated by bit pattern, and each pure
//! instruction passes through one value-number table for the whole
//! program. A fragment is reused — by the next revision's compile
//! ([`super::plan::CompiledSheet::compile_from`]) or by a program that
//! appends override names — wherever every name it recorded resolves the
//! same way; otherwise the row is lowered again for that program. A
//! fresh compile is the same link with nothing to reuse.
//!
//! The linked program is exactly the one a single lowering of all rows
//! through one table would emit: the link makes the same decisions in
//! the same order. A hit in a fragment's own table is a hit in the
//! program's table (its operands map to the same values), constants are
//! deduplicated by bits in both, and an operation whose operands became
//! constants only in the program (an input bound to a folded row power)
//! folds there through the interpreter's arithmetic, as it would have in
//! one lowering. A `Check` of such a constant that passes the guard is
//! dropped, as lowering drops it; every other check and trap is kept in
//! order. A constant gets a pool register only when an instruction or a
//! report recipe first reads it, so fold intermediates and shadowed
//! parameter defaults take no register. The program keeps no copy of
//! what the fragments hold: reports and errors are rebuilt through each
//! row's fragment and a table mapping its recipe slots to registers.
//!
//! # Bit-for-bit fidelity
//!
//! The lowering is an exact transcription of the tree walker's
//! evaluation order and arithmetic:
//!
//! * arithmetic dispatches through the same [`apply_binary`] /
//!   [`Builtin::apply1`] / [`Builtin::apply2`] the tree walker uses;
//! * every error the tree walker can raise is either **static** —
//!   unknown variables/functions, wrong arities, missing elements,
//!   nested structural errors, all decidable at lowering time — and
//!   becomes a [`Instr::Trap`] placed exactly where tree-walk evaluation
//!   order would first hit it, or **value-dependent** — non-finite /
//!   negative formula results ([`Instr::Check`]) and the static-only
//!   missing-`vdd` case ([`Instr::TrapIf`]) — and is tested at replay
//!   time against the same predicate;
//! * overrides never re-bind a lowered name: an override either
//!   retargets a declared top-level global, whose register the play's
//!   [`Prologue`] writes, or appends a new global. A set of override
//!   names that appends globals gets its own program, lowered with one
//!   more top-level register per appended name, so a lookup that would
//!   trap or default without the name resolves exactly as the scope
//!   chain resolves it (see [`crate::OverridePlan`]).
//!
//! # The prologue
//!
//! Globals are register code too: each override plan lowers the globals
//! it does not override, in its own order, into a [`Prologue`] over input
//! registers that hold the override values. A play runs the prologue,
//! copies each global into the program's registers `0..`, and runs the
//! program. A global formula fails only on a name, so a failing plan has
//! no prologue but its error, and a prologue never traps. A literal or an
//! alias costs no instruction.
//!
//! # Value numbering
//!
//! Each value is computed once per program. Every pure instruction
//! (`Neg`, `Bin`, `Call1`, `Call2`, `Sel`) goes through a table that
//! maps the operation and its operands to the value already computed;
//! only a miss emits code. A fragment's table covers its row and the
//! sub-sheets inlined in it, and the link's table the whole program.
//! Operations on constants fold at compile time through the
//! interpreter's own arithmetic, and a formula whose value is a constant
//! that passes the physical-value guard gets no `Check`. Checks and
//! traps are never merged, dropped or moved otherwise, and pure
//! instructions cannot trap, so every play still raises the tree
//! walker's first error.
//!
//! The program is in SSA form: each register is written by at most one
//! instruction, placed before every instruction that reads it, so a row
//! may read a register an earlier row's span wrote. The register code
//! is therefore the record of what depends on what, the template's
//! hidden reads of `vdd` and `f` included. The globals a sweep changes
//! are the ones its prologue's inputs reach ([`Prologue::reached`]),
//! and the sweep runs the slice of the program those globals reach
//! ([`Program::sweep_slice`]); both answers come from one forward pass
//! over register code ([`reach`]). The slice holds every instruction
//! that reads a changed global's register, or a register a kept
//! instruction writes. A register outside the slice is a function
//! of constants and unchanged globals only, so it holds the baseline
//! play's value in every lane; a register inside it is written in the
//! same pass before any kept instruction reads it. A baseline play that
//! succeeded ran the whole program, so the program holds no `Trap` and
//! every `Check` or `TrapIf` outside the slice read values that passed;
//! the first check to fail in slice order is the first in program
//! order.
//!
//! # Batching
//!
//! [`Program::exec_batch`] evaluates the same instruction for [`WIDTH`] sweep,
//! Monte-Carlo or sensitivity points per dispatch over a lane image:
//! one `[f64; WIDTH]` array per register, so each arithmetic instruction
//! is one fixed-width loop the compiler can vectorize. Per-lane trap
//! state keeps error reporting identical to serial replays.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use powerplay_expr::{apply_binary, BinaryOp, Builtin, EvalError, Expr};
use powerplay_library::{EvaluateElementError, LibraryElement};
use powerplay_telemetry::{Counter, Histogram};
use powerplay_units::{Area, Energy, Power, Time};

use crate::engine::EvaluateSheetError;
use crate::plan::{
    CompiledGlobal, CompiledRow, CompiledRowKind, CompiledSheet, OverridePlan, OverridePlanInner,
    RowView, RowsPlan,
};
use crate::report::{fold_sum, RowReport, SheetReport, SUM_IDENTITY};

const FRAGMENTS_HELP: &str = "Top-level rows linked into a register program, by whether the \
     row's fragment was reused or lowered";

/// Bytecode-engine metrics, registered once in the process-global
/// registry. All series register together on first use so a scrape
/// after any bytecode replay sees the whole family.
pub(crate) struct BytecodeMetrics {
    /// `powerplay_sheet_bytecode_instrs_total`.
    pub(crate) instrs_total: Counter,
    /// `powerplay_sheet_bytecode_replay_seconds`.
    pub(crate) replay_seconds: Histogram,
    /// `powerplay_sheet_bytecode_batch_width`.
    pub(crate) batch_width: Histogram,
    /// `powerplay_sheet_fragments_total{outcome="reused"}`.
    fragments_reused: Counter,
    /// `powerplay_sheet_fragments_total{outcome="lowered"}`.
    fragments_lowered: Counter,
}

pub(crate) fn bytecode_metrics() -> &'static BytecodeMetrics {
    static METRICS: OnceLock<BytecodeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let g = powerplay_telemetry::global();
        BytecodeMetrics {
            instrs_total: g.counter(
                "powerplay_sheet_bytecode_instrs_total",
                "Bytecode instructions executed (batched lanes counted individually)",
            ),
            replay_seconds: g.histogram(
                "powerplay_sheet_bytecode_replay_seconds",
                "Time per full bytecode replay of a compiled plan",
            ),
            batch_width: g.value_histogram(
                "powerplay_sheet_bytecode_batch_width",
                "Lanes evaluated per batched bytecode dispatch pass",
            ),
            fragments_reused: g.counter_with(
                "powerplay_sheet_fragments_total",
                &[("outcome", "reused")],
                FRAGMENTS_HELP,
            ),
            fragments_lowered: g.counter_with(
                "powerplay_sheet_fragments_total",
                &[("outcome", "lowered")],
                FRAGMENTS_HELP,
            ),
        }
    })
}

/// Lanes per batched dispatch: wide enough to amortize dispatch and
/// fill SIMD registers, small enough to keep a sweep's lane image in
/// cache.
pub(crate) const WIDTH: usize = 8;

/// One register across the lanes of a batched pass.
pub(crate) type Lanes = [f64; WIDTH];

/// One register-machine instruction. Operands are indices into the
/// `f64` register file; there is no constant operand form — constants
/// live in the pool ([`Program::init`]) and are memcpy'd into the file
/// when a replay seeds it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    /// `regs[dst] = -regs[a]`.
    Neg { dst: u32, a: u32 },
    /// `regs[dst] = apply_binary(op, regs[a], regs[b])`.
    Bin {
        op: BinaryOp,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = f.apply1(regs[a])`.
    Call1 { f: Builtin, dst: u32, a: u32 },
    /// `regs[dst] = f.apply2(regs[a], regs[b])`.
    Call2 {
        f: Builtin,
        dst: u32,
        a: u32,
        b: u32,
    },
    /// `regs[dst] = if regs[cond] != 0.0 { regs[a] } else { regs[b] }` —
    /// the eager `if` builtin and the static-only power gate.
    Sel { dst: u32, cond: u32, a: u32, b: u32 },
    /// Element formula guard: trap with `errors[err]` when `regs[src]`
    /// is non-finite or negative (carrying the offending value).
    Check { src: u32, err: u32 },
    /// Trap with `errors[err]` when `regs[cond] != 0.0` — the
    /// static-only element whose `vdd` is unbound but whose current may
    /// evaluate to zero.
    TrapIf { cond: u32, err: u32 },
    /// Unconditional trap with `errors[err]`: a statically-decided
    /// error, placed where tree-walk order first reaches it.
    Trap { err: u32 },
}

impl Instr {
    /// The register the instruction writes, if it writes one.
    fn dst(self) -> Option<u32> {
        match self {
            Instr::Neg { dst, .. }
            | Instr::Bin { dst, .. }
            | Instr::Call1 { dst, .. }
            | Instr::Call2 { dst, .. }
            | Instr::Sel { dst, .. } => Some(dst),
            Instr::Check { .. } | Instr::TrapIf { .. } | Instr::Trap { .. } => None,
        }
    }

    /// A pure instruction as its operation and destination; `None` for
    /// checks and traps.
    fn pure(self) -> Option<(Pure, u32)> {
        Some(match self {
            Instr::Neg { dst, a } => (Pure::Neg(a), dst),
            Instr::Bin { op, dst, a, b } => (Pure::Bin(op, a, b), dst),
            Instr::Call1 { f, dst, a } => (Pure::Call1(f, a), dst),
            Instr::Call2 { f, dst, a, b } => (Pure::Call2(f, a, b), dst),
            Instr::Sel { dst, cond, a, b } => (Pure::Sel(cond, a, b), dst),
            Instr::Check { .. } | Instr::TrapIf { .. } | Instr::Trap { .. } => return None,
        })
    }

    /// Calls `f` on each register the instruction reads.
    fn for_each_read(self, mut f: impl FnMut(u32)) {
        match self {
            Instr::Neg { a, .. } | Instr::Call1 { a, .. } => f(a),
            Instr::Bin { a, b, .. } | Instr::Call2 { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::Sel { cond, a, b, .. } => {
                f(cond);
                f(a);
                f(b);
            }
            Instr::Check { src, .. } => f(src),
            Instr::TrapIf { cond, .. } => f(cond),
            Instr::Trap { .. } => {}
        }
    }

    /// Whether the instruction reads a register `set` marks.
    fn reads_any(self, set: &[bool]) -> bool {
        let mut any = false;
        self.for_each_read(|slot| any |= set[slot as usize]);
        any
    }
}

/// A pure operation over value handles: what a [`Backend`] computes,
/// and, as a pure instruction without its destination, the key of a
/// value-number table. A fragment's operands are its local registers;
/// the link's are value numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pure {
    /// `-a`.
    Neg(u32),
    /// `a op b`.
    Bin(BinaryOp, u32, u32),
    /// A one-argument builtin.
    Call1(Builtin, u32),
    /// A two-argument builtin.
    Call2(Builtin, u32, u32),
    /// `(cond, a, b)`: `a` when `cond` is nonzero, else `b` — the eager
    /// `if` builtin and the static-only power gate.
    Sel(u32, u32, u32),
}

impl Pure {
    fn instr(self, dst: u32) -> Instr {
        match self {
            Pure::Neg(a) => Instr::Neg { dst, a },
            Pure::Bin(op, a, b) => Instr::Bin { op, dst, a, b },
            Pure::Call1(f, a) => Instr::Call1 { f, dst, a },
            Pure::Call2(f, a, b) => Instr::Call2 { f, dst, a, b },
            Pure::Sel(cond, a, b) => Instr::Sel { dst, cond, a, b },
        }
    }

    /// The operation over operands `f` maps.
    fn map(self, mut f: impl FnMut(u32) -> u32) -> Pure {
        match self {
            Pure::Neg(a) => Pure::Neg(f(a)),
            Pure::Bin(op, a, b) => Pure::Bin(op, f(a), f(b)),
            Pure::Call1(g, a) => Pure::Call1(g, f(a)),
            Pure::Call2(g, a, b) => Pure::Call2(g, f(a), f(b)),
            Pure::Sel(cond, a, b) => Pure::Sel(f(cond), f(a), f(b)),
        }
    }

    /// The value at lowering time when the operands it reads are
    /// constants (`k` gives an operand's constant value), computed with
    /// the interpreter's arithmetic.
    fn fold(self, k: impl Fn(u32) -> Option<f64>) -> Option<f64> {
        Some(match self {
            Pure::Neg(a) => -k(a)?,
            Pure::Bin(op, a, b) => apply_binary(op, k(a)?, k(b)?),
            Pure::Call1(f, a) => f.apply1(k(a)?),
            Pure::Call2(f, a, b) => f.apply2(k(a)?, k(b)?),
            Pure::Sel(cond, a, b) => k(if k(cond)? != 0.0 { a } else { b })?,
        })
    }
}

/// The element formula guard: finite and not negative (−0.0 passes).
fn is_physical(v: f64) -> bool {
    v.is_finite() && v >= 0.0
}

/// A trap raised by the interpreter: which error template, and the
/// runtime value for [`ErrTemplate::BadValue`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct TrapHit {
    err: u32,
    value: f64,
}

/// An error template referenced by trap instructions. `Fixed` errors
/// are fully built at lowering time; `BadValue` needs the runtime value
/// spliced in (and re-wrapped through the sub-sheet nesting chain).
#[derive(Debug, Clone)]
enum ErrTemplate {
    Fixed(EvaluateSheetError),
    BadValue {
        /// Enclosing sub-sheet row names, outermost first.
        nest: Vec<Arc<str>>,
        row: Arc<str>,
        formula: &'static str,
    },
}

/// How to rebuild one row's [`RowReport`] from the register file.
#[derive(Debug, Clone)]
pub(crate) struct RowRecipe {
    name: Arc<str>,
    ident: Arc<str>,
    doc_link: Option<Arc<str>>,
    element: Option<Arc<str>>,
    /// Report parameter columns: name → final slot (default or last
    /// binding for element rows, binding order for sub-sheet rows).
    params: Vec<(Arc<str>, u32)>,
    /// The `f` access rate visible to the row, when resolvable.
    rate: Option<u32>,
    /// The row's power (element total, or a sub-sheet's power fold).
    power: u32,
    energy: Option<u32>,
    area: Option<u32>,
    delay: Option<u32>,
    sub: Option<Box<SheetRecipe>>,
}

impl RowRecipe {
    /// Visits every slot the recipe reads, sub-sheet levels included.
    fn slots_mut(&mut self, f: &mut impl FnMut(&mut u32)) {
        for (_, slot) in &mut self.params {
            f(slot);
        }
        for slot in [
            &mut self.rate,
            &mut self.energy,
            &mut self.area,
            &mut self.delay,
        ]
        .into_iter()
        .flatten()
        {
            f(slot);
        }
        f(&mut self.power);
        if let Some(sub) = &mut self.sub {
            for (_, slot) in &mut sub.globals {
                f(slot);
            }
            for row in &mut sub.rows {
                row.slots_mut(f);
            }
        }
    }
}

/// Report recipe for one (inlined) sub-sheet level.
#[derive(Debug, Clone)]
pub(crate) struct SheetRecipe {
    name: Arc<str>,
    /// Resolved globals in declaration order: name → slot.
    globals: Vec<(Arc<str>, u32)>,
    rows: Vec<RowRecipe>,
}

/// One top-level row lowered on its own, over fragment-local registers
/// and with its own value-number table: the unit a compile reuses and
/// [`Program::link`] joins.
#[derive(Debug)]
pub(crate) struct Fragment {
    code: Box<[Instr]>,
    /// Local registers: the inputs, the constants and the registers the
    /// code writes.
    regs: u32,
    /// The constants, by local register.
    consts: Box<[(u32, f64)]>,
    /// Every name the row resolved outside itself, in first-lookup
    /// order, with the input register of each one found and `None` for
    /// each one absent. Presence changes the code (an absent name traps,
    /// and `vdd` and `f` pick the template's branch), so the fragment
    /// fits a program only where each name resolves the same way.
    lookups: Box<[(Arc<str>, Option<u32>)]>,
    /// The report recipe. Its slots index `outputs`, not registers.
    recipe: RowRecipe,
    /// The local registers the recipe reads, one per recipe slot.
    outputs: Box<[u32]>,
    errors: Box<[ErrTemplate]>,
    /// Lowering hit a static error: the code ends in its trap, and the
    /// row publishes no `P_`/`A_` name.
    poisoned: bool,
    /// Sub-sheet rows lowered inside the row, for the rows-evaluated
    /// counter.
    nested_rows: u64,
}

/// One top-level row's place in a linked program.
#[derive(Debug)]
struct LinkedRow {
    fragment: Arc<Fragment>,
    /// The program register of each recipe slot (aligned with
    /// [`Fragment::outputs`]).
    regs: Box<[u32]>,
    /// The `[start, end)` code span that evaluates the row.
    span: (u32, u32),
    /// The program's error index of the fragment's first template.
    err_base: u32,
    /// The row's power register.
    power: u32,
}

/// A compiled sheet linked into one flat register-machine program.
#[derive(Debug)]
pub(crate) struct Program {
    code: Box<[Instr]>,
    /// The register file's initial image: constants pre-placed, all
    /// other slots zero. A replay memcpys this, then seeds globals.
    init: Box<[f64]>,
    /// Which slots hold constants (their value is `init[slot]`); `init`
    /// alone cannot tell a constant 0 from a temporary.
    is_const: Box<[bool]>,
    /// Top-level global names: the declared ones in declaration order,
    /// then the appended override names. Global `i` lives in register
    /// `i`.
    globals: Vec<Arc<str>>,
    /// Per top-level row, in declaration order. Linking follows plan
    /// order, so executing spans in plan order is executing the program
    /// in order.
    rows: Vec<LinkedRow>,
    /// Rows at every level, for the rows-evaluated counter.
    rows_total: u64,
}

/// The walk stops lowering the current row once it meets a trap every
/// play raises and its back end does not go on: everything after it is
/// dead code.
struct Poisoned;

type Lower<T> = Result<T, Poisoned>;

/// The compile-time mirror of the runtime scope chain: one name→handle
/// layer per `Scope` level the tree walker would chain.
struct Env {
    layers: Vec<HashMap<Arc<str>, u32>>,
}

impl Env {
    fn new() -> Env {
        Env { layers: Vec::new() }
    }

    fn push_layer(&mut self) -> usize {
        self.layers.push(HashMap::new());
        self.layers.len() - 1
    }

    fn truncate(&mut self, depth: usize) {
        self.layers.truncate(depth);
    }

    fn depth(&self) -> usize {
        self.layers.len()
    }

    fn insert_top(&mut self, name: Arc<str>, slot: u32) {
        self.layers
            .last_mut()
            .expect("env has a layer")
            .insert(name, slot);
    }

    fn insert_at(&mut self, layer: usize, name: Arc<str>, slot: u32) {
        self.layers[layer].insert(name, slot);
    }

    fn lookup(&self, name: &str) -> Option<u32> {
        self.layers
            .iter()
            .rev()
            .find_map(|layer| layer.get(name).copied())
    }
}

/// What the lowering walk does with the values it meets. The walk makes
/// every decision about order and scope; a back end decides what a
/// value is. Values are `u32` handles the back end hands out: local
/// registers for the register back end, abstract values for the
/// interval analyzer (`powerplay-analysis`), dimensions for the linter
/// (`powerplay-lint`). A back end may keep what the walk shows it of the
/// plan, which lives for `'p`.
pub trait Backend<'p> {
    /// The handle of the constant `value`.
    fn konst(&mut self, value: f64) -> u32;

    /// The handle of `name` outside the walk's own scope layers — a name
    /// the current top-level row does not bind, or an override name —
    /// or `None` when the name is absent.
    fn input(&mut self, name: &str) -> Option<u32>;

    /// The handle of a pure operation's value. `node` is the formula
    /// node the operation comes from: `None` for the EQ 1 template's and
    /// the totals' arithmetic.
    fn pure(&mut self, op: Pure, node: Option<&Expr>) -> u32;

    /// The handle of a model formula's value past the physical-value
    /// guard (finite and not negative), where a play fails on any other
    /// value. `formula` names the formula, `row` its row and `nest` the
    /// enclosing sub-sheet rows, outermost first.
    fn check(
        &mut self,
        value: u32,
        nest: &[Arc<str>],
        row: &Arc<str>,
        formula: &'static str,
    ) -> u32;

    /// A play raises `err` here when `cond` is nonzero. Returns `false`
    /// when every play does, which ends the walk with `err`.
    fn trap_if(&mut self, cond: u32, err: &EvaluateSheetError) -> bool;

    /// Every play that gets here raises `err`. Returns the handle the
    /// walk goes on with in place of what failed, or `None` (by default)
    /// to end the walk with `err`.
    fn trap(&mut self, _err: &EvaluateSheetError) -> Option<u32> {
        None
    }

    /// The walk enters `sheet`: the top-level sheet, or the sub-sheet of
    /// the rows `nest`, outermost first. Its globals come next.
    fn sheet(&mut self, _nest: &[Arc<str>], _sheet: &'p CompiledSheet) {}

    /// The walk enters row `index` (declaration order) of the sheet
    /// inside the rows `nest`.
    fn enter_row(&mut self, _nest: &[Arc<str>], _index: usize, _row: RowView<'p>) {}

    /// Names the formula `expr` the walk lowers next, inside the
    /// sub-sheet rows `nest`, outermost first, where `names` are in
    /// scope. Returns the handle a global or a binding binds its name to
    /// in place of its formula's value, if any.
    fn formula(
        &mut self,
        _nest: &[Arc<str>],
        _formula: Formula<'_>,
        _expr: &Expr,
        _names: Names<'_>,
    ) -> Option<u32> {
        None
    }

    /// Marks entry into an arm of an `if` whose condition is `cond`: the
    /// then arm when `then`, else the else arm.
    fn enter_arm(&mut self, _cond: u32, _then: bool) {}

    /// Marks exit from the `if` arm entered last.
    fn exit_arm(&mut self) {}

    /// The row `name` inside the sub-sheet rows `nest` is lowered, with
    /// power `power`.
    fn row(&mut self, _nest: &[Arc<str>], _name: &str, _power: u32) {}
}

/// The names in scope where the walk lowers a formula: the handle each
/// resolves to through the sheet's globals and the enclosing rows'
/// parameters, bindings and published `P_`/`A_` names.
pub type Names<'a> = &'a dyn Fn(&str) -> Option<u32>;

/// A formula the walk lowers, as diagnostics name it.
#[derive(Debug, Clone, Copy)]
pub enum Formula<'a> {
    /// A global's formula, by the global's name.
    Global(&'a str),
    /// A row's binding of `param`.
    Binding { row: &'a str, param: &'a str },
    /// One of a row's element model formulas (`cap_full`, `area`, …).
    Model { row: &'a str, formula: &'static str },
}

/// One top-level row as [`CompiledSheet::walk`] lowered it: its names
/// and the handles of its report's values.
#[derive(Debug, Clone)]
pub struct WalkedRow {
    pub name: Arc<str>,
    pub ident: Arc<str>,
    pub power: u32,
    pub area: Option<u32>,
    pub delay: Option<u32>,
    /// The `f` access rate the row sees, when it resolves.
    pub rate: Option<u32>,
}

/// What lowering an element row yields: slots for each report column.
struct ElemSlots {
    power: u32,
    energy: Option<u32>,
    area: Option<u32>,
    delay: Option<u32>,
}

/// The register back end: folds, value-numbers and emits the code of
/// one fragment or prologue over local registers.
struct Regs<'o> {
    code: Vec<Instr>,
    /// Per local register: its value, when it is a constant. Constants
    /// fold at lowering time through the interpreter's arithmetic.
    const_val: Vec<Option<f64>>,
    /// Constant pool dedup: f64 bit pattern → slot.
    konsts: HashMap<u64, u32>,
    /// The value-number table: each pure operation already lowered →
    /// the register holding its value.
    values: HashMap<Pure, u32>,
    errors: Vec<ErrTemplate>,
    /// Resolves a name the walk does not bind in the program the code is
    /// lowered for: the program's own copy of the name when it is found.
    outside: &'o Outside<'o>,
    lookups: Vec<(Arc<str>, Option<u32>)>,
}

impl<'o> Regs<'o> {
    fn new(outside: &'o Outside<'o>) -> Regs<'o> {
        Regs {
            code: Vec::new(),
            const_val: Vec::new(),
            konsts: HashMap::new(),
            values: HashMap::new(),
            errors: Vec::new(),
            outside,
            lookups: Vec::new(),
        }
    }

    /// Allocates a fresh register (unknown value).
    fn reg(&mut self) -> u32 {
        self.const_val.push(None);
        (self.const_val.len() - 1) as u32
    }

    fn push_err(&mut self, template: ErrTemplate) -> u32 {
        self.errors.push(template);
        (self.errors.len() - 1) as u32
    }
}

impl Backend<'_> for Regs<'_> {
    /// A slot holding `value` in the constant pool (deduplicated by bit
    /// pattern, so `0.0` and `-0.0` keep distinct slots).
    fn konst(&mut self, value: f64) -> u32 {
        let const_val = &mut self.const_val;
        *self.konsts.entry(value.to_bits()).or_insert_with(|| {
            const_val.push(Some(value));
            (const_val.len() - 1) as u32
        })
    }

    /// A found name becomes an input register. Every lookup is recorded,
    /// found or not.
    fn input(&mut self, name: &str) -> Option<u32> {
        if let Some((_, slot)) = self.lookups.iter().find(|(n, _)| **n == *name) {
            return *slot;
        }
        let (name, slot) = match (self.outside)(name) {
            Some(found) => (found, Some(self.reg())),
            None => (Arc::from(name), None),
        };
        self.lookups.push((name, slot));
        slot
    }

    /// A constant when the operands `op` reads are constants; else the
    /// register of an identical earlier operation; else a fresh
    /// register, written by an instruction emitted here.
    fn pure(&mut self, op: Pure, _node: Option<&Expr>) -> u32 {
        if let Some(value) = op.fold(|s| self.const_val[s as usize]) {
            return self.konst(value);
        }
        match self.values.entry(op) {
            Entry::Occupied(slot) => *slot.get(),
            Entry::Vacant(entry) => {
                let dst = self.const_val.len() as u32;
                self.const_val.push(None);
                self.code.push(op.instr(dst));
                *entry.insert(dst)
            }
        }
    }

    /// A constant that passes the guard passes it on every play; one
    /// that fails keeps its check, which traps where the tree walker
    /// fails.
    fn check(
        &mut self,
        slot: u32,
        nest: &[Arc<str>],
        row: &Arc<str>,
        formula: &'static str,
    ) -> u32 {
        if self.const_val[slot as usize].is_some_and(is_physical) {
            return slot;
        }
        let err = self.push_err(ErrTemplate::BadValue {
            nest: nest.to_vec(),
            row: row.clone(),
            formula,
        });
        self.code.push(Instr::Check { src: slot, err });
        slot
    }

    fn trap_if(&mut self, cond: u32, err: &EvaluateSheetError) -> bool {
        let err = self.push_err(ErrTemplate::Fixed(err.clone()));
        self.code.push(Instr::TrapIf { cond, err });
        true
    }

    /// The trap ends the row's code: nothing after it runs.
    fn trap(&mut self, err: &EvaluateSheetError) -> Option<u32> {
        let err = self.push_err(ErrTemplate::Fixed(err.clone()));
        self.code.push(Instr::Trap { err });
        None
    }
}

/// The lowering walk: a sheet's formulas in the tree walker's evaluation
/// order, each value handed to the back end `B`.
struct Lowerer<'b, B> {
    b: &'b mut B,
    /// Enclosing sub-sheet row names, outermost first.
    nest: Vec<Arc<str>>,
    rows_total: u64,
    /// The error of the trap that ended the current row.
    trapped: Option<EvaluateSheetError>,
}

impl<'b, 'p, B: Backend<'p>> Lowerer<'b, B> {
    fn new(b: &'b mut B) -> Lowerer<'b, B> {
        Lowerer {
            b,
            nest: Vec::new(),
            rows_total: 0,
            trapped: None,
        }
    }

    /// Resolves `name` through the walk's scope layers, then outside
    /// them through the back end.
    fn lookup(&mut self, env: &Env, name: &str) -> Option<u32> {
        env.lookup(name).or_else(|| self.b.input(name))
    }

    /// Template and totals arithmetic: a pure operation from no formula
    /// node.
    fn bin(&mut self, op: BinaryOp, a: u32, b: u32) -> u32 {
        self.b.pure(Pure::Bin(op, a, b), None)
    }

    /// Wraps `err` in the `Nested` chain of the current sub-sheet
    /// nesting, innermost wrap first — exactly the order the recursive
    /// tree walker applies on the way out.
    fn wrap_nested(&self, mut err: EvaluateSheetError) -> EvaluateSheetError {
        for row in self.nest.iter().rev() {
            err = EvaluateSheetError::Nested {
                row: row.to_string(),
                source: Box::new(err),
            };
        }
        err
    }

    /// A statically-decided error: every play that gets here raises it.
    /// The walk goes on with the back end's stand-in, if it hands one
    /// back; otherwise the rest of the current row is dead.
    fn trap(&mut self, err: EvaluateSheetError) -> Lower<u32> {
        let err = self.wrap_nested(err);
        let standin = self.b.trap(&err);
        standin.ok_or_else(|| {
            self.trapped = Some(err);
            Poisoned
        })
    }

    /// The error of the trap that ended the walk.
    fn error(&mut self) -> EvaluateSheetError {
        self.trapped.take().expect("a poisoned walk met a trap")
    }

    /// Lowers one expression, returning the handle of its value.
    /// Traversal order mirrors [`Expr::eval`] exactly, so the *first*
    /// statically-decided error in tree-walk order is the one trapped.
    fn lower_expr(
        &mut self,
        expr: &Expr,
        env: &Env,
        wrap: &dyn Fn(EvalError) -> EvaluateSheetError,
    ) -> Lower<u32> {
        use powerplay_expr::UnaryOp;
        match expr {
            Expr::Number(n) => Ok(self.b.konst(*n)),
            Expr::Variable(name) => match self.lookup(env, name) {
                Some(slot) => Ok(slot),
                None => self.trap(wrap(EvalError::UnknownVariable(name.clone()))),
            },
            Expr::Unary(UnaryOp::Neg, inner) => {
                let a = self.lower_expr(inner, env, wrap)?;
                Ok(self.b.pure(Pure::Neg(a), Some(expr)))
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.lower_expr(lhs, env, wrap)?;
                let b = self.lower_expr(rhs, env, wrap)?;
                Ok(self.b.pure(Pure::Bin(*op, a, b), Some(expr)))
            }
            Expr::Call(name, args) => {
                let Some(builtin) = Builtin::lookup(name).filter(|b| b.arity() == args.len())
                else {
                    let err = match Builtin::lookup(name) {
                        None => EvalError::UnknownFunction(name.clone()),
                        Some(builtin) => EvalError::WrongArity {
                            function: name.clone(),
                            expected: builtin.arity(),
                            found: args.len(),
                        },
                    };
                    // A back end that goes on past the trap meets the
                    // traps in the arguments too.
                    let standin = self.trap(wrap(err))?;
                    for arg in args {
                        self.lower_expr(arg, env, wrap)?;
                    }
                    return Ok(standin);
                };
                let arity = builtin.arity();
                // The eager `if` lowers both arms after its condition.
                let mut slots = [0u32; 3];
                for (k, arg) in args.iter().enumerate() {
                    let arm = builtin == Builtin::If && k > 0;
                    if arm {
                        self.b.enter_arm(slots[0], k == 1);
                    }
                    let slot = self.lower_expr(arg, env, wrap);
                    if arm {
                        self.b.exit_arm();
                    }
                    slots[k] = slot?;
                }
                let [a, b, c] = slots;
                Ok(self.b.pure(
                    match arity {
                        1 => Pure::Call1(builtin, a),
                        2 => Pure::Call2(builtin, a, b),
                        _ => Pure::Sel(a, b, c),
                    },
                    Some(expr),
                ))
            }
        }
    }

    /// Lowers one element model formula plus its physical-value guard —
    /// the bytecode form of the tree walker's `eval_formula` closure.
    fn lower_formula(
        &mut self,
        row_name: &Arc<str>,
        formula: &'static str,
        expr: &Expr,
        env: &Env,
    ) -> Lower<u32> {
        let model = Formula::Model {
            row: row_name,
            formula,
        };
        self.b
            .formula(&self.nest, model, expr, &|name| env.lookup(name));
        let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Element {
            row: row_name.to_string(),
            source: EvaluateElementError::Eval { formula, source },
        })?;
        Ok(self.b.check(slot, &self.nest, row_name, formula))
    }

    /// Looks up a reserved operating-point name, trapping with
    /// `MissingOperatingPoint` (wrapped as an `Element` error) when it
    /// is not statically bound — the capacitive-element case where the
    /// tree walker errors unconditionally.
    fn lookup_or_trap(&mut self, row_name: &Arc<str>, var: &'static str, env: &Env) -> Lower<u32> {
        match self.lookup(env, var) {
            Some(slot) => Ok(slot),
            None => self.trap(EvaluateSheetError::Element {
                row: row_name.to_string(),
                source: EvaluateElementError::MissingOperatingPoint(var),
            }),
        }
    }

    /// Lowers one element row body: the exact sequence of
    /// `LibraryElement::evaluate`, formula by formula, fold by fold.
    fn lower_element(
        &mut self,
        row_name: &Arc<str>,
        element: &LibraryElement,
        env: &Env,
    ) -> Lower<ElemSlots> {
        let model = element.model();
        // Switched-capacitance terms, in push order: (cap slot, swing
        // slot or None for full-rail).
        let mut switched: Vec<(u32, Option<u32>)> = Vec::new();
        if let Some(e) = &model.cap_full {
            let cap = self.lower_formula(row_name, "cap_full", e, env)?;
            switched.push((cap, None));
        }
        if let Some((cap_e, swing_e)) = &model.cap_partial {
            let cap = self.lower_formula(row_name, "cap_partial", cap_e, env)?;
            let swing = self.lower_formula(row_name, "cap_partial swing", swing_e, env)?;
            switched.push((cap, Some(swing)));
        }
        let zero = self.b.konst(0.0);
        // `components.static_current += Current::new(v)` from ZERO.
        let static_i = match &model.static_current {
            Some(e) => {
                let raw = self.lower_formula(row_name, "static_current", e, env)?;
                Some(self.bin(BinaryOp::Add, zero, raw))
            }
            None => None,
        };
        let i_eff = static_i.unwrap_or(zero);

        let mut power = zero; // Power::ZERO
        let mut energy = None;
        if !switched.is_empty() {
            // Capacitive template: `vdd` and `f` are required; a
            // missing one is a static, unconditional error.
            let vdd = self.lookup_or_trap(row_name, "vdd", env)?;
            let freq = self.lookup_or_trap(row_name, "f", env)?;
            let e_slot = self.lower_energy_fold(&switched, vdd, zero);
            let contrib = self.lower_power_template(e_slot, freq, vdd, i_eff);
            // `power += components.power(op)` from Power::ZERO.
            power = self.bin(BinaryOp::Add, zero, contrib);
            energy = Some(e_slot);
        } else if static_i.is_some() {
            // Static-only template: whether the template contributes at
            // all depends on the *runtime* current. The tree walker only
            // requires `vdd` (and reads `f` with a 0.0 default) when the
            // current is non-zero, so an unbound `vdd` traps behind the
            // same condition, and the contribution is gated by `Sel`.
            let cond = self.bin(BinaryOp::Ne, i_eff, zero);
            let vdd = match self.lookup(env, "vdd") {
                Some(slot) => slot,
                None => {
                    let err = self.wrap_nested(EvaluateSheetError::Element {
                        row: row_name.to_string(),
                        source: EvaluateElementError::MissingOperatingPoint("vdd"),
                    });
                    if !self.b.trap_if(cond, &err) {
                        self.trapped = Some(err);
                        return Err(Poisoned);
                    }
                    zero
                }
            };
            // `scope.get("f").unwrap_or(0.0)`.
            let freq = self.lookup(env, "f").unwrap_or(zero);
            let contrib = self.lower_power_template(zero, freq, vdd, i_eff);
            let summed = self.bin(BinaryOp::Add, zero, contrib);
            power = self.b.pure(Pure::Sel(cond, summed, zero), None);
        }

        if let Some(e) = &model.power_direct {
            let direct = self.lower_formula(row_name, "power_direct", e, env)?;
            power = self.bin(BinaryOp::Add, power, direct);
        }
        let area = match &model.area {
            Some(e) => Some(self.lower_formula(row_name, "area", e, env)?),
            None => None,
        };
        let delay = match &model.delay {
            Some(e) => Some(self.lower_formula(row_name, "delay", e, env)?),
            None => None,
        };
        Ok(ElemSlots {
            power,
            energy,
            area,
            delay,
        })
    }

    /// `Σ cap_i · swing_i · vdd` as the tree walker folds it: a plain
    /// f64 left fold from 0.0 in push order, each term `(cap * swing) *
    /// vdd` (full-rail terms swing at `vdd`).
    fn lower_energy_fold(&mut self, switched: &[(u32, Option<u32>)], vdd: u32, zero: u32) -> u32 {
        let mut acc = zero;
        for &(cap, swing) in switched {
            let sw = swing.unwrap_or(vdd);
            let t1 = self.bin(BinaryOp::Mul, cap, sw);
            let t2 = self.bin(BinaryOp::Mul, t1, vdd);
            acc = self.bin(BinaryOp::Add, acc, t2);
        }
        acc
    }

    /// EQ 1 at the operating point, in the exact operand order of
    /// `PowerComponents::power`: `energy * f + vdd * i`.
    fn lower_power_template(&mut self, energy: u32, freq: u32, vdd: u32, i_eff: u32) -> u32 {
        let dynamic = self.bin(BinaryOp::Mul, energy, freq);
        let leak = self.bin(BinaryOp::Mul, vdd, i_eff);
        self.bin(BinaryOp::Add, dynamic, leak)
    }

    /// Lowers one row (element or inlined sub-sheet). Scope layers the
    /// row pushes are unwound even when lowering poisons.
    fn lower_row(&mut self, env: &mut Env, row: &'p CompiledRow) -> Lower<RowRecipe> {
        let depth = env.depth();
        let result = self.lower_row_inner(env, row);
        env.truncate(depth);
        if let Ok(recipe) = &result {
            self.b.row(&self.nest, &row.name, recipe.power);
        }
        result
    }

    fn lower_row_inner(&mut self, env: &mut Env, row: &'p CompiledRow) -> Lower<RowRecipe> {
        // Element resolution errors precede binding errors, matching the
        // uncompiled engine. A back end that goes on lowers the bindings
        // and takes its stand-in as the row's power and area.
        let missing = match &row.kind {
            CompiledRowKind::Missing { path } => {
                Some(self.trap(EvaluateSheetError::UnknownElement {
                    row: row.name.to_string(),
                    element: path.clone(),
                })?)
            }
            _ => None,
        };

        // Parameter defaults first, so bindings can shadow and reference
        // them (e.g. `bits = words / 4`).
        env.push_layer();
        for (name, default) in &row.params {
            let slot = self.b.konst(*default);
            env.insert_top(name.clone(), slot);
        }
        for (param, expr) in &row.bindings {
            let binding = Formula::Binding {
                row: &row.name,
                param,
            };
            let bound = self
                .b
                .formula(&self.nest, binding, expr, &|name| env.lookup(name));
            let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Binding {
                row: row.name.to_string(),
                param: param.to_string(),
                source,
            })?;
            env.insert_top(param.clone(), bound.unwrap_or(slot));
        }

        match &row.kind {
            CompiledRowKind::SubSheet(sub) => {
                // Report parameters resolve against the row's own scope;
                // capture them before the sub-sheet pushes layers that
                // could shadow binding names.
                let params: Vec<(Arc<str>, u32)> = row
                    .bindings
                    .iter()
                    .filter_map(|(name, _)| self.lookup(env, name).map(|slot| (name.clone(), slot)))
                    .collect();
                self.nest.push(row.name.clone());
                let lowered = self.lower_subsheet(env, sub);
                self.nest.pop();
                let (sheet, power, area) = lowered?;
                Ok(RowRecipe {
                    name: row.name.clone(),
                    ident: row.ident.clone(),
                    doc_link: row.doc_link.clone(),
                    element: None,
                    params,
                    rate: None,
                    power,
                    energy: None,
                    area,
                    delay: None,
                    sub: Some(Box::new(sheet)),
                })
            }
            CompiledRowKind::Element(element) => {
                let slots = self.lower_element(&row.name, element, env)?;
                let params: Vec<(Arc<str>, u32)> = row
                    .params
                    .iter()
                    .filter_map(|(name, _)| self.lookup(env, name).map(|slot| (name.clone(), slot)))
                    .collect();
                Ok(RowRecipe {
                    name: row.name.clone(),
                    ident: row.ident.clone(),
                    doc_link: row.doc_link.clone(),
                    element: row.element_name.clone(),
                    params,
                    rate: self.lookup(env, "f"),
                    power: slots.power,
                    energy: slots.energy,
                    area: slots.area,
                    delay: slots.delay,
                    sub: None,
                })
            }
            CompiledRowKind::Missing { .. } => {
                let standin = missing.expect("a missing element trapped above");
                let mut recipe = self.placeholder(row);
                (recipe.power, recipe.area) = (standin, Some(standin));
                Ok(recipe)
            }
        }
    }

    /// Lowers the declared globals `order` lists, in that order, into a
    /// new scope layer; returns each one's handle by declaration index
    /// ([`NO_REG`] for the globals `order` skips). Each of `errors`, the
    /// findings that fail these globals, traps first; past them every
    /// global reads as the stand-in until its own formula is lowered.
    fn lower_globals(
        &mut self,
        env: &mut Env,
        globals: &[CompiledGlobal],
        errors: &[EvaluateSheetError],
        order: impl Iterator<Item = usize> + Clone,
    ) -> Lower<Vec<u32>> {
        env.push_layer();
        for err in errors {
            let standin = self.trap(err.clone())?;
            for k in order.clone() {
                env.insert_top(globals[k].name.clone(), standin);
            }
        }
        let mut regs = vec![NO_REG; globals.len()];
        for k in order {
            let g = &globals[k];
            let bound = self
                .b
                .formula(&self.nest, Formula::Global(&g.name), &g.expr, &|name| {
                    env.lookup(name)
                });
            let wrap = |source| EvaluateSheetError::Global {
                name: g.name.to_string(),
                source,
            };
            let value = self.lower_expr(&g.expr, env, &wrap)?;
            regs[k] = bound.unwrap_or(value);
            env.insert_top(g.name.clone(), regs[k]);
        }
        Ok(regs)
    }

    /// Lowers the top-level globals of the plan that overrides `names`:
    /// each name binds an input, and every declared global the plan does
    /// not override is lowered from its formula, in the plan's order.
    /// Returns each global's handle, declared then appended.
    fn lower_top_globals(
        &mut self,
        env: &mut Env,
        globals: &[CompiledGlobal],
        names: &[String],
        plan: &OverridePlanInner,
    ) -> Lower<Vec<u32>> {
        env.push_layer();
        let mut inputs = Vec::with_capacity(names.len());
        for name in names {
            let input = self.b.input(name).expect("an override name is an input");
            env.insert_top(Arc::from(name.as_str()), input);
            inputs.push(input);
        }
        let computed = plan.order.iter().copied();
        let computed = computed.filter(|&k| k < globals.len() && plan.global_slot[k].is_none());
        let mut values = self.lower_globals(env, globals, &plan.errors, computed)?;
        for (value, &slot) in values.iter_mut().zip(&plan.global_slot) {
            if let Some(slot) = slot {
                *value = inputs[slot];
            }
        }
        values.extend(plan.appended.iter().map(|&slot| inputs[slot]));
        Ok(values)
    }

    /// Lowers the rows of one sheet level in plan order over a new power
    /// layer, each row publishing its outputs to the rows after it;
    /// returns their recipes in declaration order. Each structural
    /// finding traps first.
    fn lower_rows(&mut self, env: &mut Env, plan: &'p RowsPlan) -> Lower<Vec<RowRecipe>> {
        for err in &plan.errors {
            self.trap(err.clone())?;
        }
        let power_layer = env.push_layer();
        self.rows_total += plan.order.len() as u64;
        let mut rows: Vec<Option<RowRecipe>> = vec![None; plan.rows.len()];
        for &i in &plan.order {
            let row = &plan.rows[i];
            self.b.enter_row(&self.nest, i, RowView { row });
            let rec = self.lower_row(env, row)?;
            publish(row, rec.power, rec.area, |name, slot| {
                env.insert_at(power_layer, name.clone(), slot);
            });
            rows[i] = Some(rec);
        }
        Ok(rows
            .into_iter()
            .map(|r| r.expect("plan order covers every row"))
            .collect())
    }

    /// Inlines a nested sheet: globals lowered in the sub-sheet's base
    /// evaluation order, rows in its plan order, totals folded exactly
    /// as the report sums them. `self.nest` already includes the
    /// enclosing row, so traps raised in here nest correctly.
    fn lower_subsheet(
        &mut self,
        env: &mut Env,
        sub: &'p CompiledSheet,
    ) -> Lower<(SheetRecipe, u32, Option<u32>)> {
        self.b.sheet(&self.nest, sub);
        let plan = &sub.base.inner;
        let order = plan.order.iter().copied();
        let regs = self.lower_globals(env, &sub.globals, &plan.errors, order)?;
        let globals = sub
            .globals
            .iter()
            .map(|g| g.name.clone())
            .zip(regs)
            .collect();
        let rows = self.lower_rows(env, &sub.structure)?;
        let (power, area) = self.lower_totals(&rows);
        let recipe = SheetRecipe {
            name: sub.name.clone(),
            globals,
            rows,
        };
        Ok((recipe, power, area))
    }

    /// `total_power` / `total_area` folds in row declaration order — the
    /// same fold from [`SUM_IDENTITY`] the report performs (`total_area`
    /// only over rows that have one, `None` when no row does).
    fn lower_totals(&mut self, rows: &[RowRecipe]) -> (u32, Option<u32>) {
        let identity = self.b.konst(SUM_IDENTITY);
        let mut power = identity;
        for rec in rows {
            power = self.bin(BinaryOp::Add, power, rec.power);
        }
        let with_area: Vec<u32> = rows.iter().filter_map(|r| r.area).collect();
        let area = if with_area.is_empty() {
            None
        } else {
            let mut acc = identity;
            for slot in with_area {
                acc = self.bin(BinaryOp::Add, acc, slot);
            }
            Some(acc)
        };
        (power, area)
    }

    /// The recipe for a poisoned top-level row: its code ends in the
    /// trap, so replay can never reach the recipe — it only keeps the
    /// decl-indexed tables dense.
    fn placeholder(&mut self, row: &CompiledRow) -> RowRecipe {
        RowRecipe {
            name: row.name.clone(),
            ident: row.ident.clone(),
            doc_link: row.doc_link.clone(),
            element: row.element_name.clone(),
            params: Vec::new(),
            rate: None,
            power: self.b.konst(0.0),
            energy: None,
            area: None,
            delay: None,
            sub: None,
        }
    }
}

/// The publication rule: a row with an ident binds `P_<ident>` to its
/// power and, when it models area, `A_<ident>` to its area, for the rows
/// after it in plan order.
fn publish<'r>(
    row: &'r CompiledRow,
    power: u32,
    area: Option<u32>,
    mut bind: impl FnMut(&'r Arc<str>, u32),
) {
    if let Some(pref) = &row.power_ref {
        bind(pref, power);
    }
    if let (Some(aref), Some(area)) = (&row.area_ref, area) {
        bind(aref, area);
    }
}

impl CompiledSheet {
    /// Runs the lowering walk a play's code comes from with `backend` in
    /// place of the register back end, in the order a play through
    /// `plan` meets each error: `plan`'s global findings, its globals
    /// (override names as inputs), the rows' structural findings, then
    /// the rows in plan order, each reading the globals and the
    /// `P_`/`A_` names of the rows before it. A back end that goes on
    /// past a trap ([`Backend::trap`]) sees every formula of the sheet.
    /// Returns the top-level rows in declaration order.
    ///
    /// # Errors
    ///
    /// The error of the trap that ended the walk: a global finding, a
    /// structural one, or a row's statically-decided error (or one the
    /// back end proves certain at [`Backend::trap_if`]).
    pub fn walk<'p, B: Backend<'p>>(
        &'p self,
        plan: &OverridePlan,
        backend: &mut B,
    ) -> Result<Vec<WalkedRow>, EvaluateSheetError> {
        assert_eq!(
            plan.plan_id, self.id,
            "override plan built for a different compiled sheet"
        );
        backend.sheet(&[], self);
        let mut lw = Lowerer::new(backend);
        let mut env = Env::new();
        let walked = lw
            .lower_top_globals(&mut env, &self.globals, &plan.names, &plan.inner)
            .and_then(|_| lw.lower_rows(&mut env, &self.structure));
        let Ok(rows) = walked else {
            return Err(lw.error());
        };
        Ok(rows
            .into_iter()
            .map(|rec| WalkedRow {
                name: rec.name,
                ident: rec.ident,
                power: rec.power,
                area: rec.area,
                delay: rec.delay,
                rate: rec.rate,
            })
            .collect())
    }
}

impl Fragment {
    /// Lowers one top-level row on its own. `outside` resolves the
    /// names the row does not bind in the program the fragment is
    /// lowered for.
    pub(crate) fn lower(row: &CompiledRow, outside: &Outside<'_>) -> Fragment {
        let mut regs = Regs::new(outside);
        let mut lw = Lowerer::new(&mut regs);
        let mut env = Env::new();
        let (mut recipe, poisoned) = match lw.lower_row(&mut env, row) {
            Ok(recipe) => (recipe, false),
            // The trap emitted on poisoning *is* the rest of the row's
            // code: replay reports the same first error the tree walker
            // would, and nothing downstream of it ever executes.
            Err(Poisoned) => (lw.placeholder(row), true),
        };
        let nested_rows = lw.rows_total;
        // Number the recipe's slots densely, so a linked program maps
        // each to its register in one small table.
        let mut outputs: Vec<u32> = Vec::new();
        let mut index = vec![NO_REG; regs.const_val.len()];
        recipe.slots_mut(&mut |slot| {
            let at = &mut index[*slot as usize];
            if *at == NO_REG {
                *at = outputs.len() as u32;
                outputs.push(*slot);
            }
            *slot = *at;
        });
        // Keep the constants the code or the recipe reads; the rest
        // (fold intermediates, shadowed defaults) never reach a program.
        let mut read = vec![false; regs.const_val.len()];
        for instr in &regs.code {
            instr.for_each_read(|slot| read[slot as usize] = true);
        }
        for &slot in &outputs {
            read[slot as usize] = true;
        }
        let consts = regs.const_val.iter().zip(read).enumerate();
        Fragment {
            regs: regs.const_val.len() as u32,
            consts: consts
                .filter_map(|(slot, (value, read))| Some((slot as u32, (*value).filter(|_| read)?)))
                .collect(),
            code: regs.code.into(),
            lookups: regs.lookups.into(),
            recipe,
            outputs: outputs.into(),
            errors: regs.errors.into(),
            poisoned,
            nested_rows,
        }
    }

    /// Whether every name the fragment looked up outside its row
    /// resolves the same way (found or absent) under `outside`.
    fn fits(&self, outside: &Outside<'_>) -> bool {
        self.lookups
            .iter()
            .all(|(name, slot)| outside(name).is_some() == slot.is_some())
    }
}

/// A value number of the link with no register yet: a constant that no
/// instruction or recipe has read.
const NO_REG: u32 = u32::MAX;

/// Resolves a name a row does not bind — a top-level global, an
/// appended override name, the `P_`/`A_` of a row earlier in plan order
/// — to the program's copy of the name, or `None` when it is absent.
type Outside<'a> = dyn Fn(&str) -> Option<Arc<str>> + 'a;

/// An override plan's top-level globals as register code of their own,
/// run before the row program: from the override values in its input
/// registers it computes every global the plan does not override.
#[derive(Debug, Clone)]
pub(crate) struct Prologue {
    /// Pure instructions only: a global formula fails only on a name.
    pub(crate) code: Box<[Instr]>,
    /// The initial image: the inputs (zero), constants, temporaries.
    pub(crate) init: Box<[f64]>,
    /// Input registers `0..inputs`, one per override name, in order.
    pub(crate) inputs: usize,
    /// Per top-level global, declared then appended: its register.
    pub(crate) outputs: Box<[u32]>,
}

impl Prologue {
    /// Lowers the globals of the plan that overrides `names`: each name
    /// binds an input register, and every declared global the plan does
    /// not override is lowered from its formula, in the plan's order.
    ///
    /// # Errors
    ///
    /// The first global error in the tree walker's order, as
    /// [`EvaluateSheetError::Global`]: every play with the plan raises it.
    pub(crate) fn lower(
        globals: &[CompiledGlobal],
        names: &[String],
        plan: &OverridePlanInner,
    ) -> Result<Prologue, EvaluateSheetError> {
        // The override names are the only names found outside the
        // globals; the first lookups give them registers `0..`.
        let is_name = |name: &str| names.iter().any(|n| n == name).then(|| Arc::from(name));
        let mut regs = Regs::new(&is_name);
        let mut lw = Lowerer::new(&mut regs);
        let outputs = match lw.lower_top_globals(&mut Env::new(), globals, names, plan) {
            Ok(outputs) => outputs,
            Err(Poisoned) => return Err(lw.error()),
        };
        Ok(Prologue {
            code: regs.code.into(),
            init: regs.const_val.iter().map(|v| v.unwrap_or(0.0)).collect(),
            inputs: names.len(),
            outputs: outputs.into(),
        })
    }

    /// Which top-level globals the inputs reach: a forward pass over the
    /// code from the input registers.
    pub(crate) fn reached(&self) -> Vec<bool> {
        let mut reached = vec![false; self.init.len()];
        reached[..self.inputs].fill(true);
        reach(&self.code, &mut reached);
        self.outputs
            .iter()
            .map(|&reg| reached[reg as usize])
            .collect()
    }

    /// Appends a base plan's prologue to a listing: each declared
    /// global's formula and its register. With no inputs, every global
    /// folds to a constant, so the prologue has no code.
    fn list(&self, out: &mut String, globals: &[CompiledGlobal]) {
        let (instrs, regs) = (self.code.len(), self.init.len());
        let _ = writeln!(out, "prologue: {instrs} instrs, {regs} regs");
        for (g, &reg) in globals.iter().zip(self.outputs.iter()) {
            let (source, value) = (g.expr.to_string(), self.init[reg as usize]);
            let _ = writeln!(out, "  {:<16} = {source:<24} r{reg}={value}", g.name);
        }
    }
}

/// The link's registers. Value numbers stand for values; registers are
/// allocated for the values the program holds: globals and temporaries
/// when they are written, constants on their first read by an
/// instruction or a recipe.
struct Pool {
    init: Vec<f64>,
    is_const: Vec<bool>,
    /// Per value number: its register, or [`NO_REG`].
    reg_of: Vec<u32>,
    /// Per value number: its value when it is a constant.
    const_of: Vec<Option<f64>>,
}

impl Pool {
    /// A fresh value written at run time (a global or a temporary),
    /// with its register.
    fn written(&mut self) -> u32 {
        self.reg_of.push(self.init.len() as u32);
        self.const_of.push(None);
        self.init.push(0.0);
        self.is_const.push(false);
        (self.reg_of.len() - 1) as u32
    }

    /// A new constant value, with no register yet.
    fn constant(&mut self, value: f64) -> u32 {
        self.reg_of.push(NO_REG);
        self.const_of.push(Some(value));
        (self.reg_of.len() - 1) as u32
    }

    /// The register holding value `vn`, placing a constant in the pool
    /// on its first read.
    fn reg(&mut self, vn: u32) -> u32 {
        let v = vn as usize;
        if self.reg_of[v] == NO_REG {
            self.reg_of[v] = self.init.len() as u32;
            self.init
                .push(self.const_of[v].expect("only constants lack a register"));
            self.is_const.push(true);
        }
        self.reg_of[v]
    }
}

/// Joins fragments into one program through one value-number table.
struct Linker {
    code: Vec<Instr>,
    pool: Pool,
    /// Constant dedup: f64 bit pattern → value number.
    konsts: HashMap<u64, u32>,
    /// Each pure operation over value numbers already linked → the
    /// value number of its result.
    values: HashMap<Pure, u32>,
    /// Error templates of the fragments linked so far.
    errors: u32,
}

impl Linker {
    /// The value number of the constant `value`, deduplicated by bit
    /// pattern.
    fn konst(&mut self, value: f64) -> u32 {
        let pool = &mut self.pool;
        *self
            .konsts
            .entry(value.to_bits())
            .or_insert_with(|| pool.constant(value))
    }

    /// The register back end's `pure` over value numbers: the folded
    /// constant, else an identical earlier operation's value, else a new
    /// value written by an instruction emitted here.
    fn pure(&mut self, op: Pure) -> u32 {
        if let Some(value) = op.fold(|v| self.pool.const_of[v as usize]) {
            return self.konst(value);
        }
        match self.values.entry(op) {
            Entry::Occupied(vn) => *vn.get(),
            Entry::Vacant(entry) => {
                let pool = &mut self.pool;
                let instr = op.map(|v| pool.reg(v));
                let vn = pool.written();
                self.code.push(instr.instr(pool.reg_of[vn as usize]));
                *entry.insert(vn)
            }
        }
    }

    /// Appends one fragment: inputs mapped through `names`, constants
    /// into the shared pool, pure instructions through the value-number
    /// table, checks and traps kept in order (a check of a constant that
    /// passes the guard is dropped, as lowering drops it). Returns the
    /// row's place and the value numbers of its power and area.
    fn link(
        &mut self,
        fragment: &Arc<Fragment>,
        names: &HashMap<&str, (u32, &Arc<str>)>,
    ) -> (LinkedRow, u32, Option<u32>) {
        let mut vn = vec![NO_REG; fragment.regs as usize];
        for &(slot, value) in fragment.consts.iter() {
            vn[slot as usize] = self.konst(value);
        }
        for (name, slot) in fragment.lookups.iter() {
            if let Some(slot) = slot {
                vn[*slot as usize] = names[&**name].0;
            }
        }
        let start = self.code.len() as u32;
        let err_base = self.errors;
        for &instr in fragment.code.iter() {
            match instr {
                Instr::Check { src, err } => {
                    let src = vn[src as usize];
                    if self.pool.const_of[src as usize].is_some_and(is_physical) {
                        continue;
                    }
                    let src = self.pool.reg(src);
                    self.code.push(Instr::Check {
                        src,
                        err: err_base + err,
                    });
                }
                Instr::TrapIf { cond, err } => {
                    let cond = self.pool.reg(vn[cond as usize]);
                    self.code.push(Instr::TrapIf {
                        cond,
                        err: err_base + err,
                    });
                }
                Instr::Trap { err } => self.code.push(Instr::Trap {
                    err: err_base + err,
                }),
                pure => {
                    let (op, dst) = pure.pure().expect("checks and traps matched above");
                    vn[dst as usize] = self.pure(op.map(|local| vn[local as usize]));
                }
            }
        }
        self.errors += fragment.errors.len() as u32;
        let regs: Box<[u32]> = fragment
            .outputs
            .iter()
            .map(|&local| self.pool.reg(vn[local as usize]))
            .collect();
        let output = |slot: u32| vn[fragment.outputs[slot as usize] as usize];
        let recipe = &fragment.recipe;
        let row = LinkedRow {
            fragment: Arc::clone(fragment),
            span: (start, self.code.len() as u32),
            err_base,
            power: regs[recipe.power as usize],
            regs,
        };
        (row, output(recipe.power), recipe.area.map(output))
    }
}

impl Program {
    /// Links a compiled sheet, whose rows compiled to `rows_plan`, into
    /// one flat program. `appended` lists the override names that
    /// append globals, in the order the resolved-globals vector lists
    /// them. `seeds` offers a fragment per row (declaration index),
    /// used when every name it looked up resolves the same way here;
    /// any other row is lowered now.
    pub(crate) fn link(
        plan: &CompiledSheet,
        rows_plan: &RowsPlan,
        appended: &[&str],
        seeds: &[Option<Arc<Fragment>>],
    ) -> Program {
        let metrics = bytecode_metrics();
        let mut lk = Linker {
            code: Vec::new(),
            pool: Pool {
                init: Vec::new(),
                is_const: Vec::new(),
                reg_of: Vec::new(),
                const_of: Vec::new(),
            },
            konsts: HashMap::new(),
            values: HashMap::new(),
            errors: 0,
        };
        // Top-level globals, declared then appended: registers 0..,
        // each written per play from the plan's prologue.
        let globals: Vec<Arc<str>> = plan
            .globals
            .iter()
            .map(|g| g.name.clone())
            .chain(appended.iter().map(|&name| Arc::from(name)))
            .collect();
        // The names a row resolves outside itself: the globals, then the
        // `P_`/`A_` names of rows linked so far, which shadow them.
        let mut names: HashMap<&str, (u32, &Arc<str>)> = HashMap::new();
        for name in &globals {
            let vn = lk.pool.written();
            names.insert(name, (vn, name));
        }
        let mut rows: Vec<Option<LinkedRow>> = (0..rows_plan.rows.len()).map(|_| None).collect();
        let mut rows_total = rows_plan.order.len() as u64;
        for &i in &rows_plan.order {
            let row = &rows_plan.rows[i];
            let outside = |name: &str| names.get(name).map(|&(_, name)| Arc::clone(name));
            let fragment = match seeds.get(i).and_then(Option::as_ref) {
                Some(seed) if seed.fits(&outside) => {
                    metrics.fragments_reused.inc();
                    Arc::clone(seed)
                }
                _ => {
                    metrics.fragments_lowered.inc();
                    Arc::new(Fragment::lower(row, &outside))
                }
            };
            rows_total += fragment.nested_rows;
            let (linked, power, area) = lk.link(&fragment, &names);
            if !fragment.poisoned {
                publish(row, power, area, |name, vn| {
                    names.insert(name, (vn, name));
                });
            }
            rows[i] = Some(linked);
        }
        drop(names);
        debug_assert!(
            is_ssa(&lk.code, globals.len(), &lk.pool.is_const),
            "a register is written twice, or a global or constant is written"
        );
        Program {
            code: lk.code.into(),
            init: lk.pool.init.into(),
            is_const: lk.pool.is_const.into(),
            globals,
            rows: rows
                .into_iter()
                .map(|r| r.expect("plan order covers every row"))
                .collect(),
            rows_total,
        }
    }

    /// Each top-level row's fragment, in declaration order: what a
    /// program with other global names, or the next revision's compile,
    /// offers [`Program::link`] as seeds.
    pub(crate) fn fragments(&self) -> impl Iterator<Item = &Arc<Fragment>> {
        self.rows.iter().map(|row| &row.fragment)
    }

    /// The initial image: constants in place, all working slots zero.
    pub(crate) fn init(&self) -> &[f64] {
        &self.init
    }

    /// Runs `code` over one register file, up to its first trap.
    fn exec(code: &[Instr], regs: &mut [f64]) -> Result<(), TrapHit> {
        for instr in code {
            match *instr {
                Instr::Neg { dst, a } => regs[dst as usize] = -regs[a as usize],
                Instr::Bin { op, dst, a, b } => {
                    regs[dst as usize] = apply_binary(op, regs[a as usize], regs[b as usize]);
                }
                Instr::Call1 { f, dst, a } => regs[dst as usize] = f.apply1(regs[a as usize]),
                Instr::Call2 { f, dst, a, b } => {
                    regs[dst as usize] = f.apply2(regs[a as usize], regs[b as usize]);
                }
                Instr::Sel { dst, cond, a, b } => {
                    regs[dst as usize] = if regs[cond as usize] != 0.0 {
                        regs[a as usize]
                    } else {
                        regs[b as usize]
                    };
                }
                Instr::Check { src, err } => {
                    let v = regs[src as usize];
                    if !is_physical(v) {
                        return Err(TrapHit { err, value: v });
                    }
                }
                Instr::TrapIf { cond, err } => {
                    if regs[cond as usize] != 0.0 {
                        return Err(TrapHit { err, value: 0.0 });
                    }
                }
                Instr::Trap { err } => return Err(TrapHit { err, value: 0.0 }),
            }
        }
        Ok(())
    }

    /// Runs `code` over the [`WIDTH`] lanes of a lane image
    /// at once: one dispatch per instruction drives every lane, and each
    /// arithmetic instruction is a fixed-width loop over two or three
    /// `[f64; WIDTH]` arrays the compiler can vectorize. A trapped lane
    /// records its *first* trap in `errs[l]` and is skipped by later trap
    /// checks; arithmetic still runs in trapped lanes (the results are
    /// never observed), which keeps every lane loop branch-free.
    pub(crate) fn exec_batch(
        code: &[Instr],
        regs: &mut [Lanes],
        errs: &mut [Option<TrapHit>; WIDTH],
    ) {
        for instr in code {
            match *instr {
                Instr::Neg { dst, a } => regs[dst as usize] = regs[a as usize].map(|x| -x),
                Instr::Bin { op, dst, a, b } => {
                    let (a, b) = (regs[a as usize], regs[b as usize]);
                    // Hoist the operator dispatch out of the lane loop
                    // for the four hot arithmetic ops.
                    regs[dst as usize] = match op {
                        BinaryOp::Add => lanes(|l| a[l] + b[l]),
                        BinaryOp::Sub => lanes(|l| a[l] - b[l]),
                        BinaryOp::Mul => lanes(|l| a[l] * b[l]),
                        BinaryOp::Div => lanes(|l| a[l] / b[l]),
                        _ => lanes(|l| apply_binary(op, a[l], b[l])),
                    };
                }
                Instr::Call1 { f, dst, a } => {
                    regs[dst as usize] = regs[a as usize].map(|x| f.apply1(x))
                }
                Instr::Call2 { f, dst, a, b } => {
                    let (a, b) = (regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = lanes(|l| f.apply2(a[l], b[l]));
                }
                Instr::Sel { dst, cond, a, b } => {
                    let (c, a, b) = (regs[cond as usize], regs[a as usize], regs[b as usize]);
                    regs[dst as usize] = lanes(|l| if c[l] != 0.0 { a[l] } else { b[l] });
                }
                Instr::Check { src, err } => {
                    for (e, &v) in errs.iter_mut().zip(&regs[src as usize]) {
                        if !is_physical(v) && e.is_none() {
                            *e = Some(TrapHit { err, value: v });
                        }
                    }
                }
                Instr::TrapIf { cond, err } => {
                    for (e, &c) in errs.iter_mut().zip(&regs[cond as usize]) {
                        if c != 0.0 && e.is_none() {
                            *e = Some(TrapHit { err, value: 0.0 });
                        }
                    }
                }
                Instr::Trap { err } => {
                    for e in errs.iter_mut().filter(|e| e.is_none()) {
                        *e = Some(TrapHit { err, value: 0.0 });
                    }
                }
            }
        }
    }

    /// The instructions a batched sweep runs, in program order, and the
    /// number of top-level rows whose code span holds one of them.
    /// `changed` flags the global registers a sweep can change, over a
    /// lane image that holds a successful play's registers: the slice
    /// keeps every instruction that reads a changed global or a register
    /// a kept instruction writes. `None` stands for a lane image that
    /// holds only [`Program::init`], which runs the whole program.
    pub(crate) fn sweep_slice(&self, changed: Option<&[bool]>) -> (Vec<Instr>, u64) {
        let kept: Vec<bool> = match changed {
            None => vec![true; self.code.len()],
            Some(changed) => {
                let mut reached = vec![false; self.init.len()];
                reached[..changed.len()].copy_from_slice(changed);
                reach(&self.code, &mut reached)
            }
        };
        let rows = self
            .rows
            .iter()
            .filter(|row| kept[row.span.0 as usize..row.span.1 as usize].contains(&true))
            .count();
        let slice = self
            .code
            .iter()
            .zip(&kept)
            .filter_map(|(instr, &keep)| keep.then_some(*instr))
            .collect();
        (slice, rows as u64)
    }

    /// Rebuilds the full error a trap stands for, splicing in the
    /// runtime value for physical-value checks.
    pub(crate) fn materialize(&self, hit: TrapHit) -> EvaluateSheetError {
        let (row, local) = self
            .rows
            .iter()
            .find_map(|row| {
                let local = hit.err.checked_sub(row.err_base)? as usize;
                (local < row.fragment.errors.len()).then_some((row, local))
            })
            .expect("every trap names a template of a linked row");
        match &row.fragment.errors[local] {
            ErrTemplate::Fixed(err) => err.clone(),
            ErrTemplate::BadValue { nest, row, formula } => {
                let mut err = EvaluateSheetError::Element {
                    row: row.to_string(),
                    source: EvaluateElementError::BadValue {
                        formula,
                        value: hit.value,
                    },
                };
                for name in nest.iter().rev() {
                    err = EvaluateSheetError::Nested {
                        row: name.to_string(),
                        source: Box::new(err),
                    };
                }
                err
            }
        }
    }

    /// One full replay: runs `prologue` on the override `values` into
    /// the global registers, executes the whole program, and assembles
    /// the report — or the exact error the tree walker would have
    /// raised.
    pub(crate) fn replay_full(
        &self,
        name: Arc<str>,
        prologue: &Prologue,
        values: &[f64],
        regs: &mut Vec<f64>,
    ) -> Result<SheetReport, EvaluateSheetError> {
        self.run_full(prologue, values, regs)?;
        let globals = self.globals.iter().zip(regs.iter());
        let globals = globals
            .map(|(name, &value)| (name.to_string(), value))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|row| {
                build_row(&row.fragment.recipe, &|slot: u32| {
                    regs[row.regs[slot as usize] as usize]
                })
            })
            .collect();
        Ok(SheetReport::new(name, globals, rows))
    }

    /// [`Program::replay_full`] without the report: leaves the register
    /// image of the play in `regs`.
    pub(crate) fn run_full(
        &self,
        prologue: &Prologue,
        values: &[f64],
        regs: &mut Vec<f64>,
    ) -> Result<(), EvaluateSheetError> {
        let metrics = bytecode_metrics();
        let _timer = metrics.replay_seconds.start_timer();
        crate::plan::plan_metrics()
            .rows_evaluated_total
            .add(self.rows_total);
        assert_eq!(values.len(), prologue.inputs, "one value per override name");
        // The prologue runs in scratch registers past the program's.
        regs.clear();
        regs.extend_from_slice(&self.init);
        regs.extend_from_slice(&prologue.init);
        let (globals, image) = regs.split_at_mut(self.init.len());
        image[..values.len()].copy_from_slice(values);
        Program::exec(&prologue.code, image).expect("a prologue's code cannot trap");
        for (reg, &out) in globals.iter_mut().zip(prologue.outputs.iter()) {
            *reg = image[out as usize];
        }
        regs.truncate(self.init.len());
        let run = Program::exec(&self.code, regs);
        let instrs = prologue.code.len() + self.code.len();
        metrics.instrs_total.add(instrs as u64);
        run.map_err(|hit| self.materialize(hit))
    }

    /// The sheet's total power from register values supplied by `get`:
    /// the top-level rows' power registers folded in declaration order,
    /// bit for bit [`SheetReport::total_power`] of the same play.
    pub(crate) fn total_power(&self, get: impl Fn(u32) -> f64) -> Power {
        Power::new(fold_sum(self.rows.iter().map(|row| get(row.power))))
    }

    /// Human-readable listing of the lowered program: register file
    /// (named globals and constants pool), per-row code spans, the base
    /// plan's `prologue` over the declared `globals` (or its error), and
    /// the instruction stream — the debugging story for the engine.
    pub(crate) fn disassemble(
        &self,
        prologue: Result<&Prologue, &EvaluateSheetError>,
        globals: &[CompiledGlobal],
    ) -> String {
        let mut out = String::new();
        let traps = self.code.iter().filter(|instr| instr.pure().is_none());
        let _ = writeln!(
            out,
            "program: {} instrs, {} regs, {} rows, {} error templates",
            self.code.len(),
            self.init.len(),
            self.rows.len(),
            traps.count(),
        );
        let _ = writeln!(out, "registers:");
        for slot in 0..self.init.len() {
            if let Some(name) = self.slot_name(slot) {
                let _ = writeln!(out, "  r{slot:<5} {name}");
            }
        }
        let _ = writeln!(out, "row spans:");
        for row in &self.rows {
            let (start, end) = row.span;
            let rec = &row.fragment.recipe;
            let _ = writeln!(
                out,
                "  [{start:>5}..{end:>5}) {:<24} power r{} {}",
                rec.name,
                row.power,
                if rec.sub.is_some() { "(sub-sheet)" } else { "" },
            );
        }
        match prologue {
            Ok(prologue) => prologue.list(&mut out, globals),
            Err(err) => {
                let _ = writeln!(out, "prologue: {err}");
            }
        }
        let _ = writeln!(out, "code:");
        for (pc, instr) in self.code.iter().enumerate() {
            let line = match *instr {
                Instr::Neg { dst, a } => format!("r{dst} = -{}", self.operand(a)),
                Instr::Bin { op, dst, a, b } => format!(
                    "r{dst} = {:?}({}, {})",
                    op,
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Call1 { f, dst, a } => {
                    format!("r{dst} = {}({})", f.name(), self.operand(a))
                }
                Instr::Call2 { f, dst, a, b } => format!(
                    "r{dst} = {}({}, {})",
                    f.name(),
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Sel { dst, cond, a, b } => format!(
                    "r{dst} = {} != 0 ? {} : {}",
                    self.operand(cond),
                    self.operand(a),
                    self.operand(b)
                ),
                Instr::Check { src, err } => {
                    format!("check {} physical  ; err#{err}", self.operand(src))
                }
                Instr::TrapIf { cond, err } => {
                    format!("trap if {} != 0  ; err#{err}", self.operand(cond))
                }
                Instr::Trap { err } => format!("trap  ; err#{err}"),
            };
            let _ = writeln!(out, "  {pc:>5}  {line}");
        }
        out
    }

    fn operand(&self, slot: u32) -> String {
        match self.slot_name(slot as usize) {
            Some(name) => format!("r{slot}{name}"),
            None => format!("r{slot}"),
        }
    }

    /// A global's name, `=value` for a constant, `None` for a temporary.
    fn slot_name(&self, slot: usize) -> Option<String> {
        if let Some(name) = self.globals.get(slot) {
            Some(name.to_string())
        } else if self.is_const[slot] {
            Some(format!("={}", self.init[slot]))
        } else {
            None
        }
    }
}

/// The forward pass of every dependency question asked of register
/// code: marks, in order, each instruction of `code` that reads a
/// register `reached` marks, and marks the register each one writes.
fn reach(code: &[Instr], reached: &mut [bool]) -> Vec<bool> {
    code.iter()
        .map(|instr| {
            let keep = instr.reads_any(reached);
            if let Some(dst) = instr.dst().filter(|_| keep) {
                reached[dst as usize] = true;
            }
            keep
        })
        .collect()
}

/// Whether every register is written by at most one instruction, and no
/// instruction writes a global or a constant: the program is SSA.
fn is_ssa(code: &[Instr], globals: usize, is_const: &[bool]) -> bool {
    let mut written = vec![false; is_const.len()];
    code.iter().filter_map(|instr| instr.dst()).all(|dst| {
        let d = dst as usize;
        d >= globals && !is_const[d] && !std::mem::replace(&mut written[d], true)
    })
}

/// One register's lanes, lane `l` computed by `f(l)`.
#[inline(always)]
fn lanes(f: impl FnMut(usize) -> f64) -> Lanes {
    std::array::from_fn(f)
}

/// Rebuilds one row report from a recipe plus a register accessor.
fn build_row(rec: &RowRecipe, get: &impl Fn(u32) -> f64) -> RowReport {
    let params: Vec<(Arc<str>, f64)> = rec
        .params
        .iter()
        .map(|(name, slot)| (name.clone(), get(*slot)))
        .collect();
    if let Some(sub) = &rec.sub {
        let globals = sub
            .globals
            .iter()
            .map(|(name, slot)| (name.to_string(), get(*slot)))
            .collect();
        let rows = sub.rows.iter().map(|r| build_row(r, get)).collect();
        let sub_report = SheetReport::new(sub.name.clone(), globals, rows);
        RowReport::for_subsheet(
            rec.name.clone(),
            rec.ident.clone(),
            params,
            rec.doc_link.clone(),
            sub_report,
        )
    } else {
        RowReport::from_values(
            rec.name.clone(),
            rec.ident.clone(),
            rec.element.clone(),
            params,
            rec.rate.map(get),
            rec.doc_link.clone(),
            Power::new(get(rec.power)),
            rec.energy.map(|s| Energy::new(get(s))),
            rec.area.map(|s| Area::new(get(s))),
            rec.delay.map(|s| Time::new(get(s))),
        )
    }
}

#[cfg(test)]
mod tests {
    use powerplay_json::Json;
    use powerplay_library::builtin::ucb_library;

    use super::*;
    use crate::Sheet;

    #[test]
    fn every_constant_register_is_read() {
        for design in [
            include_str!("../../../examples/designs/infopad.json"),
            include_str!("../../../examples/designs/luminance_direct_lut.json"),
            include_str!("../../../examples/designs/luminance_grouped_lut.json"),
        ] {
            let sheet = Sheet::from_json(&Json::parse(design).unwrap()).unwrap();
            let plan = CompiledSheet::compile(&sheet, &ucb_library());
            let program = plan.base_program().expect("shipped designs compile");
            let mut read = vec![false; program.init.len()];
            for instr in program.code.iter() {
                instr.for_each_read(|slot| read[slot as usize] = true);
            }
            for row in &program.rows {
                for &slot in row.regs.iter() {
                    read[slot as usize] = true;
                }
            }
            let consts = program.is_const.iter().filter(|&&c| c).count();
            assert!(consts > 0, "{}: no constant register", sheet.name());
            for (slot, _) in program.is_const.iter().enumerate().filter(|(_, &c)| c) {
                assert!(
                    read[slot],
                    "{}: constant r{slot} is never read",
                    sheet.name()
                );
            }
        }
    }
}
