//! The bytecode replay engine: a sheet lowered to a register machine.
//!
//! [`super::plan::CompiledSheet`] already amortizes graph analysis, but
//! a tree walker would still resolve every variable reference through a
//! `HashMap` scope chain on every play — per-reference hashing on the
//! hottest path in the system. This module lowers the *entire* compiled
//! row structure (sub-sheets inlined) into one flat [`Program`]: a
//! contiguous `Vec<Instr>` whose operands are `u32` register slots
//! resolved at compile time. Replay is a tight interpreter loop over a
//! single `f64` register file — zero hashing, zero string comparison,
//! zero `Arc` cloning per instruction. Every play and sweep runs a
//! program; the tree walker
//! ([`super::plan::CompiledSheet::play_with_tree`]) is the test oracle.
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
//!   retargets a declared top-level global, whose register is re-seeded
//!   per play, or appends a new global. A set of override names that
//!   appends globals gets its own program, lowered with one more
//!   top-level register per appended name, so a lookup that would trap
//!   or default without the name resolves exactly as the scope chain
//!   resolves it (see [`crate::OverridePlan`]).
//!
//! # Value numbering
//!
//! Each value is computed once per program. Every pure instruction
//! (`Neg`, `Bin`, `Call1`, `Call2`, `Sel`) goes through one table,
//! shared by all rows and inlined sub-sheets of one lowering, that maps
//! the operation and its operand registers to the register already
//! holding that value; only a miss emits code. Operations on constants
//! fold at lowering time through the interpreter's own arithmetic, and a
//! formula whose value is a constant that passes the physical-value
//! guard gets no `Check`. Checks and traps are never merged, dropped or
//! moved otherwise, and pure instructions cannot trap, so every play
//! still raises the tree walker's first error.
//!
//! The program is in SSA form: each register is written by at most one
//! instruction, placed before every instruction that reads it, so a row
//! may read a register an earlier row's span wrote. The register program
//! is therefore the record of what depends on what, the template's
//! hidden reads of `vdd` and `f` included. A sweep runs the slice of it
//! that the changed globals reach ([`Program::sweep_slice`]): every
//! instruction that reads a changed global's register, or a register a
//! kept instruction writes. A register outside the slice is a function
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

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock};

use powerplay_expr::{apply_binary, BinaryOp, Builtin, EvalError, Expr};
use powerplay_library::{EvaluateElementError, LibraryElement};
use powerplay_telemetry::{Counter, Histogram};
use powerplay_units::{Area, Energy, Power, Time};

use crate::engine::EvaluateSheetError;
use crate::plan::{CompiledRow, CompiledRowKind, CompiledSheet, RowsPlan};
use crate::report::{fold_sum, RowReport, SheetReport, SUM_IDENTITY};

/// Bytecode-engine metrics, registered once in the process-global
/// registry. All three series register together on first use so a
/// scrape after any bytecode replay sees the whole family.
pub(crate) struct BytecodeMetrics {
    /// `powerplay_sheet_bytecode_instrs_total`.
    pub(crate) instrs_total: Counter,
    /// `powerplay_sheet_bytecode_replay_seconds`.
    pub(crate) replay_seconds: Histogram,
    /// `powerplay_sheet_bytecode_batch_width`.
    pub(crate) batch_width: Histogram,
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

    /// Whether the instruction reads a register `set` marks.
    fn reads_any(self, set: &[bool]) -> bool {
        let r = |slot: u32| set[slot as usize];
        match self {
            Instr::Neg { a, .. } | Instr::Call1 { a, .. } => r(a),
            Instr::Bin { a, b, .. } | Instr::Call2 { a, b, .. } => r(a) || r(b),
            Instr::Sel { cond, a, b, .. } => r(cond) || r(a) || r(b),
            Instr::Check { src, .. } => r(src),
            Instr::TrapIf { cond, .. } => r(cond),
            Instr::Trap { .. } => false,
        }
    }
}

/// A pure instruction without its destination: an operation and its
/// operand registers, the key of the lowering's value-number table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Pure {
    Neg(u32),
    Bin(BinaryOp, u32, u32),
    Call1(Builtin, u32),
    Call2(Builtin, u32, u32),
    /// `(cond, a, b)`.
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

    /// The value at lowering time when the operands it reads are
    /// constants, computed with the interpreter's arithmetic.
    fn fold(self, konst: &[Option<f64>]) -> Option<f64> {
        let k = |slot: u32| konst[slot as usize];
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

/// Report recipe for one (inlined) sub-sheet level.
#[derive(Debug, Clone)]
pub(crate) struct SheetRecipe {
    name: Arc<str>,
    /// Resolved globals in declaration order: name → slot.
    globals: Vec<(Arc<str>, u32)>,
    rows: Vec<RowRecipe>,
}

/// A compiled sheet lowered to one flat register-machine program.
#[derive(Debug)]
pub(crate) struct Program {
    code: Vec<Instr>,
    /// The register file's initial image: constants pre-placed, all
    /// other slots zero. A replay memcpys this, then seeds globals.
    init: Vec<f64>,
    /// Which slots hold constants (their value is `init[slot]`); `init`
    /// alone cannot tell a constant 0 from a temporary.
    is_const: Vec<bool>,
    /// Top-level global names: the declared ones in declaration order,
    /// then the appended override names. Global `i` lives in register
    /// `i`.
    globals: Vec<Arc<str>>,
    /// Per top-level row (declaration index): the `[start, end)` code
    /// span that evaluates it. Emission follows plan order, so
    /// executing spans in plan order is executing the program in order.
    row_spans: Vec<(u32, u32)>,
    /// Per top-level row (declaration index): its report recipe.
    recipes: Vec<RowRecipe>,
    errors: Vec<ErrTemplate>,
    /// Rows at every level, for the rows-evaluated counter.
    rows_total: u64,
}

/// Lowering aborts for the rest of the current row once an
/// unconditional trap is emitted — everything after it is dead code.
struct Poisoned;

type Lower<T> = Result<T, Poisoned>;

/// The compile-time mirror of the runtime scope chain: one name→slot
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

/// What lowering an element row yields: slots for each report column.
struct ElemSlots {
    power: u32,
    energy: Option<u32>,
    area: Option<u32>,
    delay: Option<u32>,
}

struct Lowerer {
    code: Vec<Instr>,
    init: Vec<f64>,
    /// Constant pool dedup: f64 bit pattern → slot.
    konsts: HashMap<u64, u32>,
    /// Known-constant slots, for compile-time folding (the fold uses
    /// the same dispatch as the interpreter, so it is bit-identical).
    const_val: Vec<Option<f64>>,
    /// The value-number table: each pure operation already lowered →
    /// the register holding its value.
    values: HashMap<Pure, u32>,
    errors: Vec<ErrTemplate>,
    /// Enclosing sub-sheet row names, outermost first.
    nest: Vec<Arc<str>>,
    rows_total: u64,
}

impl Lowerer {
    fn new() -> Lowerer {
        Lowerer {
            code: Vec::new(),
            init: Vec::new(),
            konsts: HashMap::new(),
            const_val: Vec::new(),
            values: HashMap::new(),
            errors: Vec::new(),
            nest: Vec::new(),
            rows_total: 0,
        }
    }

    /// Allocates a fresh register (zero-initialized, unknown value).
    fn reg(&mut self) -> u32 {
        let slot = self.init.len() as u32;
        self.init.push(0.0);
        self.const_val.push(None);
        slot
    }

    /// A slot holding `value` in the constant pool (deduplicated by bit
    /// pattern, so `0.0` and `-0.0` keep distinct slots).
    fn konst(&mut self, value: f64) -> u32 {
        if let Some(&slot) = self.konsts.get(&value.to_bits()) {
            return slot;
        }
        let slot = self.init.len() as u32;
        self.init.push(value);
        self.const_val.push(Some(value));
        self.konsts.insert(value.to_bits(), slot);
        slot
    }

    /// The register holding `op`'s value — the one pure-instruction
    /// emitter. A constant when the operands `op` reads are constants;
    /// else the register of an identical earlier operation; else a
    /// fresh register, written by an instruction emitted here.
    fn pure(&mut self, op: Pure) -> u32 {
        if let Some(&slot) = self.values.get(&op) {
            return slot;
        }
        let slot = match op.fold(&self.const_val) {
            Some(value) => self.konst(value),
            None => {
                let dst = self.reg();
                self.emit(op.instr(dst));
                dst
            }
        };
        self.values.insert(op, slot);
        slot
    }

    fn bin(&mut self, op: BinaryOp, a: u32, b: u32) -> u32 {
        self.pure(Pure::Bin(op, a, b))
    }

    fn emit(&mut self, instr: Instr) {
        self.code.push(instr);
    }

    fn push_err(&mut self, template: ErrTemplate) -> u32 {
        self.errors.push(template);
        (self.errors.len() - 1) as u32
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

    /// Emits an unconditional trap for a statically-decided error and
    /// poisons the rest of the current row.
    fn trap(&mut self, err: EvaluateSheetError) -> Poisoned {
        let wrapped = self.wrap_nested(err);
        let idx = self.push_err(ErrTemplate::Fixed(wrapped));
        self.emit(Instr::Trap { err: idx });
        Poisoned
    }

    /// Lowers one expression, returning the slot holding its value.
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
            Expr::Number(n) => Ok(self.konst(*n)),
            Expr::Variable(name) => match env.lookup(name) {
                Some(slot) => Ok(slot),
                None => Err(self.trap(wrap(EvalError::UnknownVariable(name.clone())))),
            },
            Expr::Unary(UnaryOp::Neg, inner) => {
                let a = self.lower_expr(inner, env, wrap)?;
                Ok(self.pure(Pure::Neg(a)))
            }
            Expr::Binary(op, lhs, rhs) => {
                let a = self.lower_expr(lhs, env, wrap)?;
                let b = self.lower_expr(rhs, env, wrap)?;
                Ok(self.bin(*op, a, b))
            }
            Expr::Call(name, args) => {
                let Some(builtin) = Builtin::lookup(name) else {
                    return Err(self.trap(wrap(EvalError::UnknownFunction(name.clone()))));
                };
                let arity = builtin.arity();
                if args.len() != arity {
                    return Err(self.trap(wrap(EvalError::WrongArity {
                        function: name.clone(),
                        expected: arity,
                        found: args.len(),
                    })));
                }
                let mut slots = [0u32; 3];
                for (slot, arg) in slots.iter_mut().zip(args) {
                    *slot = self.lower_expr(arg, env, wrap)?;
                }
                let [a, b, c] = slots;
                Ok(self.pure(match arity {
                    1 => Pure::Call1(builtin, a),
                    2 => Pure::Call2(builtin, a, b),
                    _ => Pure::Sel(a, b, c),
                }))
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
        let row = row_name.clone();
        let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Element {
            row: row.to_string(),
            source: EvaluateElementError::Eval { formula, source },
        })?;
        // A constant that passes the guard passes it on every play; one
        // that fails keeps its check, which traps where the tree walker
        // fails.
        if self.const_val[slot as usize].is_some_and(is_physical) {
            return Ok(slot);
        }
        let err = self.push_err(ErrTemplate::BadValue {
            nest: self.nest.clone(),
            row: row_name.clone(),
            formula,
        });
        self.emit(Instr::Check { src: slot, err });
        Ok(slot)
    }

    /// Looks up a reserved operating-point name, trapping with
    /// `MissingOperatingPoint` (wrapped as an `Element` error) when it
    /// is not statically bound — the capacitive-element case where the
    /// tree walker errors unconditionally.
    fn lookup_or_trap(&mut self, row_name: &Arc<str>, var: &'static str, env: &Env) -> Lower<u32> {
        match env.lookup(var) {
            Some(slot) => Ok(slot),
            None => Err(self.trap(EvaluateSheetError::Element {
                row: row_name.to_string(),
                source: EvaluateElementError::MissingOperatingPoint(var),
            })),
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
        let zero = self.konst(0.0);
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
            let vdd = match env.lookup("vdd") {
                Some(slot) => slot,
                None => {
                    let err = self.wrap_nested(EvaluateSheetError::Element {
                        row: row_name.to_string(),
                        source: EvaluateElementError::MissingOperatingPoint("vdd"),
                    });
                    let idx = self.push_err(ErrTemplate::Fixed(err));
                    self.emit(Instr::TrapIf { cond, err: idx });
                    zero
                }
            };
            // `scope.get("f").unwrap_or(0.0)`.
            let freq = env.lookup("f").unwrap_or(zero);
            let contrib = self.lower_power_template(zero, freq, vdd, i_eff);
            let summed = self.bin(BinaryOp::Add, zero, contrib);
            power = self.pure(Pure::Sel(cond, summed, zero));
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
    fn lower_row(&mut self, env: &mut Env, row: &CompiledRow) -> Lower<RowRecipe> {
        let depth = env.depth();
        let result = self.lower_row_inner(env, row);
        env.truncate(depth);
        result
    }

    fn lower_row_inner(&mut self, env: &mut Env, row: &CompiledRow) -> Lower<RowRecipe> {
        // Element resolution errors precede binding errors, matching the
        // uncompiled engine.
        if let CompiledRowKind::Missing { path } = &row.kind {
            return Err(self.trap(EvaluateSheetError::UnknownElement {
                row: row.name.to_string(),
                element: path.clone(),
            }));
        }

        // Parameter defaults first, so bindings can shadow and reference
        // them (e.g. `bits = words / 4`).
        env.push_layer();
        for name in &row.param_names {
            let default = row
                .defaults
                .get(name)
                .expect("defaults cover every declared parameter");
            let slot = self.konst(default);
            env.insert_top(name.clone(), slot);
        }
        for (param, expr) in &row.bindings {
            let slot = self.lower_expr(expr, env, &|source| EvaluateSheetError::Binding {
                row: row.name.to_string(),
                param: param.to_string(),
                source,
            })?;
            env.insert_top(param.clone(), slot);
        }

        match &row.kind {
            CompiledRowKind::SubSheet(sub) => {
                // Report parameters resolve against the row's own scope;
                // capture them before the sub-sheet pushes layers that
                // could shadow binding names.
                let params: Vec<(Arc<str>, u32)> = row
                    .bindings
                    .iter()
                    .filter_map(|(name, _)| env.lookup(name).map(|slot| (name.clone(), slot)))
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
                    .param_names
                    .iter()
                    .filter_map(|name| env.lookup(name).map(|slot| (name.clone(), slot)))
                    .collect();
                Ok(RowRecipe {
                    name: row.name.clone(),
                    ident: row.ident.clone(),
                    doc_link: row.doc_link.clone(),
                    element: row.element_name.clone(),
                    params,
                    rate: env.lookup("f"),
                    power: slots.power,
                    energy: slots.energy,
                    area: slots.area,
                    delay: slots.delay,
                    sub: None,
                })
            }
            CompiledRowKind::Missing { .. } => unreachable!("rejected above"),
        }
    }

    /// Inlines a nested sheet: globals lowered in the sub-sheet's base
    /// evaluation order, rows in its plan order, totals folded exactly
    /// as the report sums them. `self.nest` already includes the
    /// enclosing row, so traps raised in here nest correctly.
    fn lower_subsheet(
        &mut self,
        env: &mut Env,
        sub: &CompiledSheet,
    ) -> Lower<(SheetRecipe, u32, Option<u32>)> {
        let order = match sub.global_order() {
            Ok(order) => order,
            Err(e) => {
                let e = e.clone();
                return Err(self.trap(e));
            }
        };
        env.push_layer();
        let mut globals: Vec<Option<(Arc<str>, u32)>> = vec![None; sub.globals.len()];
        for &idx in order {
            let g = &sub.globals[idx];
            let slot = self.lower_expr(&g.expr, env, &|source| EvaluateSheetError::Global {
                name: g.name.to_string(),
                source,
            })?;
            env.insert_top(g.name.clone(), slot);
            globals[idx] = Some((g.name.clone(), slot));
        }
        let rows_plan = match &sub.structure {
            Ok(plan) => plan,
            Err(e) => {
                let e = e.clone();
                return Err(self.trap(e));
            }
        };
        let power_layer = env.push_layer();
        self.rows_total += rows_plan.order.len() as u64;
        let mut rows: Vec<Option<RowRecipe>> = vec![None; rows_plan.rows.len()];
        for &i in &rows_plan.order {
            let row = &rows_plan.rows[i];
            let rec = self.lower_row(env, row)?;
            if let Some(pref) = &row.power_ref {
                env.insert_at(power_layer, pref.clone(), rec.power);
            }
            if let (Some(aref), Some(area)) = (&row.area_ref, rec.area) {
                env.insert_at(power_layer, aref.clone(), area);
            }
            rows[i] = Some(rec);
        }
        let rows: Vec<RowRecipe> = rows
            .into_iter()
            .map(|r| r.expect("plan order covers every row"))
            .collect();
        let (power, area) = self.lower_totals(&rows);
        let recipe = SheetRecipe {
            name: sub.name.clone(),
            globals: globals
                .into_iter()
                .map(|g| g.expect("plan order covers every global"))
                .collect(),
            rows,
        };
        Ok((recipe, power, area))
    }

    /// `total_power` / `total_area` folds in row declaration order — the
    /// same fold from [`SUM_IDENTITY`] the report performs (`total_area`
    /// only over rows that have one, `None` when no row does).
    fn lower_totals(&mut self, rows: &[RowRecipe]) -> (u32, Option<u32>) {
        let identity = self.konst(SUM_IDENTITY);
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

    /// The recipe for a poisoned top-level row: its span is the trap
    /// itself, so replay can never reach the recipe — it only keeps the
    /// decl-indexed tables dense.
    fn placeholder(&mut self, row: &CompiledRow) -> RowRecipe {
        RowRecipe {
            name: row.name.clone(),
            ident: row.ident.clone(),
            doc_link: row.doc_link.clone(),
            element: row.element_name.clone(),
            params: Vec::new(),
            rate: None,
            power: self.konst(0.0),
            energy: None,
            area: None,
            delay: None,
            sub: None,
        }
    }
}

impl Program {
    /// Lowers a compiled sheet, whose rows compiled to `rows_plan`, into
    /// one flat program. `appended` lists the override names that append
    /// globals, in the order the resolved-globals vector lists them.
    pub(crate) fn lower(plan: &CompiledSheet, rows_plan: &RowsPlan, appended: &[&str]) -> Program {
        let mut lw = Lowerer::new();
        let mut env = Env::new();
        // Top-level globals, declared then appended: registers 0.., each
        // seeded per play from the scalar global resolution (which owns
        // the override graph-repair logic).
        env.push_layer();
        let globals: Vec<Arc<str>> = plan
            .globals
            .iter()
            .map(|g| g.name.clone())
            .chain(appended.iter().map(|&name| Arc::from(name)))
            .collect();
        for name in &globals {
            let slot = lw.reg();
            env.insert_top(name.clone(), slot);
        }
        let power_layer = env.push_layer();
        lw.rows_total += rows_plan.order.len() as u64;
        let n = rows_plan.rows.len();
        let mut row_spans = vec![(0u32, 0u32); n];
        let mut recipes: Vec<Option<RowRecipe>> = vec![None; n];
        for &i in &rows_plan.order {
            let row = &rows_plan.rows[i];
            let start = lw.code.len() as u32;
            let rec = match lw.lower_row(&mut env, row) {
                Ok(rec) => {
                    if let Some(pref) = &row.power_ref {
                        env.insert_at(power_layer, pref.clone(), rec.power);
                    }
                    if let (Some(aref), Some(area)) = (&row.area_ref, rec.area) {
                        env.insert_at(power_layer, aref.clone(), area);
                    }
                    rec
                }
                // The trap emitted on poisoning *is* the row's program:
                // replay reports the same first error the tree walker
                // would, and nothing downstream of it ever executes.
                Err(Poisoned) => lw.placeholder(row),
            };
            row_spans[i] = (start, lw.code.len() as u32);
            recipes[i] = Some(rec);
        }
        let is_const: Vec<bool> = lw.const_val.iter().map(Option::is_some).collect();
        debug_assert!(
            is_ssa(&lw.code, globals.len(), &is_const),
            "a register is written twice, or a global or constant is written"
        );
        Program {
            code: lw.code,
            init: lw.init,
            is_const,
            globals,
            row_spans,
            recipes: recipes
                .into_iter()
                .map(|r| r.expect("plan order covers every row"))
                .collect(),
            errors: lw.errors,
            rows_total: lw.rows_total,
        }
    }

    /// The initial image: constants in place, all working slots zero.
    pub(crate) fn init(&self) -> &[f64] {
        &self.init
    }

    /// Writes the resolved top-level global values into their registers:
    /// the declared globals, then the appended ones, in registers 0.. —
    /// the order of the resolved-globals vector, so this is a positional
    /// zip.
    pub(crate) fn seed_globals(&self, values: impl Iterator<Item = f64>, regs: &mut [f64]) {
        for (reg, value) in regs[..self.globals.len()].iter_mut().zip(values) {
            *reg = value;
        }
    }

    /// [`Program::seed_globals`] into lane `lane` of a lane image.
    pub(crate) fn seed_lane_globals(
        &self,
        lane: usize,
        values: impl Iterator<Item = f64>,
        regs: &mut [Lanes],
    ) {
        for (reg, value) in regs[..self.globals.len()].iter_mut().zip(values) {
            reg[lane] = value;
        }
    }

    /// Runs the whole program over one register file.
    fn exec(&self, regs: &mut [f64]) -> Result<(), TrapHit> {
        for instr in &self.code {
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
                self.code
                    .iter()
                    .map(|instr| {
                        let keep = instr.reads_any(&reached);
                        if let Some(dst) = instr.dst().filter(|_| keep) {
                            reached[dst as usize] = true;
                        }
                        keep
                    })
                    .collect()
            }
        };
        let rows = self
            .row_spans
            .iter()
            .filter(|&&(start, end)| kept[start as usize..end as usize].contains(&true))
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
        match &self.errors[hit.err as usize] {
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

    /// One full replay: seeds the register file from `resolved` (the
    /// scalar global resolution, declaration order first), executes the
    /// whole program, and assembles the report — or the exact error the
    /// tree walker would have raised.
    pub(crate) fn replay_full(
        &self,
        name: Arc<str>,
        resolved: Vec<(String, f64)>,
        regs: &mut Vec<f64>,
    ) -> Result<SheetReport, EvaluateSheetError> {
        self.run_full(&resolved, regs)?;
        let rows = self
            .recipes
            .iter()
            .map(|rec| build_row(rec, &|slot: u32| regs[slot as usize]))
            .collect();
        Ok(SheetReport::new(name, resolved, rows))
    }

    /// [`Program::replay_full`] without the report: leaves the register
    /// image of the play in `regs`.
    pub(crate) fn run_full(
        &self,
        resolved: &[(String, f64)],
        regs: &mut Vec<f64>,
    ) -> Result<(), EvaluateSheetError> {
        let metrics = bytecode_metrics();
        let _timer = metrics.replay_seconds.start_timer();
        crate::plan::plan_metrics()
            .rows_evaluated_total
            .add(self.rows_total);
        regs.clear();
        regs.extend_from_slice(&self.init);
        self.seed_globals(resolved.iter().map(|(_, v)| *v), regs);
        let run = self.exec(regs);
        metrics.instrs_total.add(self.code.len() as u64);
        run.map_err(|hit| self.materialize(hit))
    }

    /// The sheet's total power from register values supplied by `get`:
    /// the top-level rows' power registers folded in declaration order,
    /// bit for bit [`SheetReport::total_power`] of the same play.
    pub(crate) fn total_power(&self, get: impl Fn(u32) -> f64) -> Power {
        Power::new(fold_sum(self.recipes.iter().map(|rec| get(rec.power))))
    }

    /// Human-readable listing of the lowered program: register file
    /// (named globals and constants pool), per-row code spans, and the
    /// instruction stream — the debugging story for the engine.
    pub(crate) fn disassemble(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "program: {} instrs, {} regs, {} rows, {} error templates",
            self.code.len(),
            self.init.len(),
            self.recipes.len(),
            self.errors.len(),
        );
        let _ = writeln!(out, "registers:");
        for slot in 0..self.init.len() {
            if let Some(name) = self.slot_name(slot) {
                let _ = writeln!(out, "  r{slot:<5} {name}");
            }
        }
        let _ = writeln!(out, "row spans:");
        for (i, rec) in self.recipes.iter().enumerate() {
            let (start, end) = self.row_spans[i];
            let _ = writeln!(
                out,
                "  [{start:>5}..{end:>5}) {:<24} power r{} {}",
                rec.name,
                rec.power,
                if rec.sub.is_some() { "(sub-sheet)" } else { "" },
            );
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
