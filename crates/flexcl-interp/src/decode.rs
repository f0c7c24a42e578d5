//! The decoded form the interpreter executes.
//!
//! [`crate::run`] decodes a kernel once per call: every block becomes a
//! flat run of [`Instr`]s whose operands are register-file indices —
//! instruction results, or constant-pool cells for literals and scalar
//! kernel arguments (which no store can change) — and whose result
//! conversion, truncation width, access width and alloca slot are
//! resolved up front. Executing an instruction is then one `match` over
//! `Copy` operands, with no IR lookup, no type query and no allocation.
//!
//! A value is a tagged scalar, [`Val`]. The tag is dynamic on purpose: an
//! `int`-typed load from a float buffer yields a float, and the
//! arithmetic that consumes it stays float (see [`arith`]). A vector value
//! of `n` lanes occupies `n` consecutive registers and is computed lane
//! by lane through the same scalar functions ([`LaneOp`]).

use crate::exec::InterpError;
use crate::value::{truncate_int, KernelArg};
use flexcl_frontend::ast::{BinOp, UnOp};
use flexcl_frontend::builtins::{MathOp, WorkItemFn};
use flexcl_frontend::types::{AddressSpace, Scalar, Type};
use flexcl_ir::{Function, Literal, MemRoot, Op, Terminator, Value};
use std::collections::HashMap;

/// A register-file index.
pub(crate) type Reg = u32;

/// A runtime scalar: one register or memory cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    /// Integer (covers bool as 0/1).
    Int(i64),
    /// Float.
    Float(f64),
}

impl Val {
    #[inline(always)]
    pub(crate) fn as_int(self) -> i64 {
        match self {
            Val::Int(v) => v,
            Val::Float(v) => v as i64,
        }
    }

    #[inline(always)]
    pub(crate) fn as_float(self) -> f64 {
        match self {
            Val::Int(v) => v as f64,
            Val::Float(v) => v,
        }
    }

    #[inline(always)]
    pub(crate) fn as_bool(self) -> bool {
        match self {
            Val::Int(v) => v != 0,
            Val::Float(v) => v != 0.0,
        }
    }

    /// The zero of `ty`'s element kind.
    fn zero(ty: &Type) -> Val {
        if ty.is_float() {
            Val::Float(0.0)
        } else {
            Val::Int(0)
        }
    }

    /// `self` in the representation of a vector lane of the given kind
    /// (floats truncate toward zero; no width truncation).
    #[inline]
    fn coerce(self, float: bool) -> Val {
        if float {
            Val::Float(self.as_float())
        } else {
            Val::Int(self.as_int())
        }
    }
}

/// How a scalar result is converted to the instruction's type.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Conv {
    /// To a float scalar.
    Float,
    /// To an integer scalar of this width and signedness.
    Int(Scalar),
    /// Not a numeric scalar type: the value passes through unchanged.
    Keep,
}

impl Conv {
    fn of(ty: &Type) -> Conv {
        match ty {
            Type::Scalar(s) if s.is_float() => Conv::Float,
            Type::Scalar(s) => Conv::Int(*s),
            _ => Conv::Keep,
        }
    }

    #[inline(always)]
    pub(crate) fn apply(self, v: Val) -> Val {
        match self {
            Conv::Float => Val::Float(v.as_float()),
            Conv::Int(s) => Val::Int(truncate_int(v.as_int(), s)),
            Conv::Keep => v,
        }
    }
}

/// One decoded instruction. Every IR instruction decodes to exactly one,
/// so a block's step count is its instruction count.
#[derive(Debug)]
pub(crate) enum Instr {
    /// Barriers, `__local` allocas (live for the whole group) and allocas
    /// of other spaces.
    Nop,
    /// Plain register copy (vector lane extraction, folded work-item
    /// sizes).
    Copy { dst: Reg, src: Reg },
    /// Comparison or logical operator on scalars.
    Cmp { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Arithmetic or bitwise operator on scalars.
    Arith { op: BinOp, dst: Reg, a: Reg, b: Reg, float_ty: bool, trunc: Scalar },
    /// Unary operator on a scalar.
    Un { op: UnOp, dst: Reg, a: Reg, float_ty: bool },
    /// Numeric conversion (`convert`, scalar `splat`).
    Conv { dst: Reg, a: Reg, to: Conv },
    /// `cond ? t : f` converted to the result type; `cond` is true when
    /// any of its `cond_lanes` lanes is non-zero.
    Select { dst: Reg, cond: Reg, cond_lanes: u8, t: Reg, f: Reg, to: Conv },
    /// Scalar math builtin (missing arguments read as integer 0).
    Math { m: MathOp, dst: Reg, args: [Reg; 3], float_ty: bool },
    /// Work-item id query (sizes with a constant dimension fold to
    /// constants).
    WorkItem { f: WorkItemFn, dst: Reg, dim: Reg },
    /// A `__private` alloca comes live, zeroed.
    PrivAlloc { slot: u32 },
    /// Scalar load from a `__global`/`__constant` buffer (traced).
    LoadGlobal { dst: Reg, param: u32, idx: Reg, bytes: u32 },
    /// Vector load from a `__global`/`__constant` buffer (traced).
    LoadGlobalVec { dst: Reg, param: u32, idx: Reg, bytes: u32, lanes: u8, float: bool },
    /// Load from a `__local` pointer parameter (untraced).
    LoadLocalParam { dst: Reg, param: u32, idx: Reg },
    /// Load from an alloca; `slot` is [`NO_SLOT`] when the root is not an
    /// alloca of the accessed space.
    LoadAlloca { dst: Reg, local: bool, slot: u32, idx: Reg, lanes: u8 },
    /// Store of a `lanes`-wide value to a `__global` buffer (traced;
    /// recorded as `4 × lanes` bytes).
    StoreGlobal { param: u32, idx: Reg, val: Reg, lanes: u8 },
    /// Store to a `__local` pointer parameter (untraced).
    StoreLocalParam { param: u32, idx: Reg, val: Reg },
    /// Store of a `lanes`-wide value to an alloca.
    StoreAlloca { local: bool, slot: u32, idx: Reg, val: Reg, lanes: u8 },
    /// [`Instr::LoadAlloca`] of a scalar `__private` cell at a constant
    /// in-bounds index (a mutable scalar variable): only liveness is
    /// checked at run time.
    LoadCell { dst: Reg, slot: u32, cell: u32, idx: i64 },
    /// [`Instr::StoreAlloca`] counterpart of [`Instr::LoadCell`].
    StoreCell { slot: u32, cell: u32, idx: i64, val: Reg },
    /// A vector operation, lane by lane.
    Lanes(Box<LaneOp>),
    /// An access the interpreter does not support: fails when executed.
    Fail(Box<InterpError>),
}

/// A vector operation: lane `i` of argument `j` is `args[j * lanes + i]`
/// (a scalar argument repeats its register in every lane).
#[derive(Debug)]
pub(crate) struct LaneOp {
    dst: Reg,
    lanes: u8,
    /// Whether the result lanes are floats.
    float: bool,
    kind: LaneKind,
    args: Box<[Reg]>,
}

/// What a [`LaneOp`] computes per lane.
#[derive(Debug)]
enum LaneKind {
    /// Binary operator on the element type.
    Bin(BinOp, Scalar),
    /// Unary operator on the element type.
    Un(UnOp),
    /// Math builtin of the given arity on the element type.
    Math(MathOp, u8),
    /// Conversion to a vector of this element type (through `f64`).
    Conv(Scalar),
    /// Converts argument 0 (`cond` true) or 1, chosen once for all lanes.
    Select { cond: Reg, cond_lanes: u8, elem: Scalar },
    /// Converts argument 0, then overwrites lane `lane` with `scalar`.
    Insert { lane: u8, scalar: Reg, elem: Scalar },
}

/// Sentinel alloca slot: the access has no backing memory.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// A block terminator over decoded block indices.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Term {
    Br(u32),
    CondBr { cond: Reg, lanes: u8, t: u32, f: u32 },
    Ret,
}

/// One decoded basic block: `ops[start..end]` then `term`.
#[derive(Debug)]
pub(crate) struct Block {
    pub(crate) start: u32,
    pub(crate) end: u32,
    pub(crate) term: Term,
}

/// The storage of one alloca: `len` elements of `width` cells each at
/// `cells[offset..]`, zeroed with `zero` when it comes live.
#[derive(Debug, Clone, Copy)]
pub(crate) struct AllocaSlot {
    pub(crate) offset: usize,
    pub(crate) len: usize,
    pub(crate) width: usize,
    pub(crate) zero: Val,
}

/// A kernel decoded for one run.
#[derive(Debug)]
pub(crate) struct Program {
    pub(crate) blocks: Vec<Block>,
    pub(crate) entry: u32,
    pub(crate) ops: Vec<Instr>,
    /// The initial register file: `wi_regs` work-item registers, reset to
    /// `Int(0)` before every work-item (an unset or `void` result reads as
    /// `Int(0)`), then the constant pool.
    pub(crate) init: Vec<Val>,
    pub(crate) wi_regs: usize,
    pub(crate) private: Vec<AllocaSlot>,
    pub(crate) local: Vec<AllocaSlot>,
}

/// Registers `0..SINK_LANES` take the results no instruction reads; wide
/// enough for the widest vector, never read, so never reset.
pub(crate) const SINK_LANES: usize = 16;

impl Program {
    /// Decodes `func` for a run with the given arguments and work-item
    /// sizes (`[global, local, num_groups]` per dimension).
    pub(crate) fn decode(func: &Function, args: &[&KernelArg], sizes: [[u64; 3]; 3]) -> Program {
        let mut d = Decoder::new(func, args);
        let mut ops = Vec::with_capacity(func.insts.len());
        let mut blocks = Vec::with_capacity(func.blocks.len());
        for block in &func.blocks {
            let start = ops.len() as u32;
            for &iid in &block.insts {
                let op = match func.insts.get(iid.0 as usize) {
                    Some(inst) => d.instr(inst, sizes),
                    None => Instr::Nop,
                };
                ops.push(op);
            }
            let term = match &block.term {
                Terminator::Br(t) => Term::Br(t.0),
                Terminator::CondBr(c, t, f) => {
                    let (cond, lanes) = d.operand(c);
                    Term::CondBr { cond, lanes, t: t.0, f: f.0 }
                }
                Terminator::Ret => Term::Ret,
            };
            blocks.push(Block { start, end: ops.len() as u32, term });
        }
        let wi_regs = d.wi_regs as usize;
        let mut init = vec![Val::Int(0); wi_regs];
        init.extend_from_slice(&d.consts);
        Program {
            blocks,
            entry: func.entry.0,
            ops,
            init,
            wi_regs,
            private: d.private,
            local: d.local,
        }
    }
}

/// Dense cell layout of the allocas of one space, in slot order, and the
/// slot of each instruction ([`NO_SLOT`] for all but those allocas).
fn layout(func: &Function, space: AddressSpace) -> (Vec<AllocaSlot>, Vec<u32>) {
    let mut slots = Vec::new();
    let mut slot_of = vec![NO_SLOT; func.insts.len()];
    let mut offset = 0usize;
    for inst in &func.insts {
        let Op::Alloca { space: s, elems } = inst.op else { continue };
        if s != space {
            continue;
        }
        let width = inst.ty.lanes() as usize;
        // `__local` arrays hold `elems × lanes` elements of the vector type.
        let len = if space == AddressSpace::Local {
            (elems * u64::from(inst.ty.lanes()).max(1)) as usize
        } else {
            elems as usize
        };
        slot_of[inst.id.0 as usize] = slots.len() as u32;
        slots.push(AllocaSlot { offset, len, width, zero: Val::zero(&inst.ty) });
        offset += len * width;
    }
    (slots, slot_of)
}

struct Decoder<'f> {
    func: &'f Function,
    args: &'f [&'f KernelArg],
    /// First register of each instruction's result (the sink when no
    /// instruction reads it).
    reg_of: Vec<Reg>,
    lanes_of: Vec<u8>,
    wi_regs: Reg,
    consts: Vec<Val>,
    const_reg: HashMap<(bool, u64), Reg>,
    private_slot: Vec<u32>,
    local_slot: Vec<u32>,
    private: Vec<AllocaSlot>,
    local: Vec<AllocaSlot>,
}

impl<'f> Decoder<'f> {
    fn new(func: &'f Function, args: &'f [&'f KernelArg]) -> Self {
        let n = func.insts.len();
        let mut read = vec![false; n];
        let mut mark = |v: &Value| {
            if let Value::Inst(id) = v {
                if let Some(r) = read.get_mut(id.0 as usize) {
                    *r = true;
                }
            }
        };
        for inst in &func.insts {
            inst.args.iter().for_each(&mut mark);
        }
        for block in &func.blocks {
            if let Terminator::CondBr(c, _, _) = &block.term {
                mark(c);
            }
        }
        let mut reg_of = vec![0; n];
        let mut lanes_of = vec![1u8; n];
        let mut next = SINK_LANES as Reg;
        for inst in &func.insts {
            let i = inst.id.0 as usize;
            let lanes = inst.ty.lanes().clamp(1, SINK_LANES as u32);
            lanes_of[i] = lanes as u8;
            if read[i] {
                reg_of[i] = next;
                next += lanes;
            }
        }
        let (private, private_slot) = layout(func, AddressSpace::Private);
        let (local, local_slot) = layout(func, AddressSpace::Local);
        Decoder {
            func,
            args,
            reg_of,
            lanes_of,
            wi_regs: next,
            consts: Vec::new(),
            const_reg: HashMap::new(),
            private_slot,
            local_slot,
            private,
            local,
        }
    }

    fn constant(&mut self, v: Val) -> Reg {
        let key = match v {
            Val::Int(i) => (false, i as u64),
            Val::Float(f) => (true, f.to_bits()),
        };
        let next = self.wi_regs + self.consts.len() as Reg;
        *self.const_reg.entry(key).or_insert_with(|| {
            self.consts.push(v);
            next
        })
    }

    /// The first register of `v` and its lane count.
    fn operand(&mut self, v: &Value) -> (Reg, u8) {
        match v {
            Value::Literal(Literal::Int(i)) => (self.constant(Val::Int(*i)), 1),
            Value::Literal(Literal::Float(f)) => (self.constant(Val::Float(*f)), 1),
            Value::Inst(id) => match self.reg_of.get(id.0 as usize) {
                Some(&r) => (r, self.lanes_of[id.0 as usize]),
                None => (self.constant(Val::Int(0)), 1),
            },
            // Scalar arguments are run constants; pointer parameters never
            // appear in value position.
            Value::Param(p) => {
                let v = match self.args.get(*p as usize) {
                    Some(KernelArg::Int(i)) => Val::Int(*i),
                    Some(KernelArg::Float(f)) => Val::Float(*f),
                    _ => Val::Int(0),
                };
                (self.constant(v), 1)
            }
        }
    }

    /// Register of operand `i` (lane 0), integer 0 when absent.
    fn arg(&mut self, inst: &flexcl_ir::Inst, i: usize) -> Reg {
        match inst.args.get(i) {
            Some(v) => self.operand(v).0,
            None => self.constant(Val::Int(0)),
        }
    }

    /// Lane `lane` of operand `i`: a scalar repeats in every lane, lanes
    /// past a short vector's end read the zero of its kind.
    fn lane(&mut self, inst: &flexcl_ir::Inst, i: usize, lane: u8) -> Reg {
        let Some(v) = inst.args.get(i) else { return self.constant(Val::Int(0)) };
        let (r, n) = self.operand(v);
        if n == 1 {
            r
        } else if lane < n {
            r + Reg::from(lane)
        } else {
            let zero = match v {
                Value::Inst(id) => Val::zero(&self.func.insts[id.0 as usize].ty),
                _ => Val::Int(0),
            };
            self.constant(zero)
        }
    }

    fn dst(&self, inst: &flexcl_ir::Inst) -> Reg {
        self.reg_of[inst.id.0 as usize]
    }

    /// A [`LaneOp`] over instruction operands `operands`.
    fn lane_op(
        &mut self,
        inst: &flexcl_ir::Inst,
        kind: LaneKind,
        operands: std::ops::Range<usize>,
    ) -> Instr {
        let lanes = self.lanes_of[inst.id.0 as usize];
        let mut args = Vec::with_capacity(operands.len() * usize::from(lanes));
        for j in operands {
            for l in 0..lanes {
                args.push(self.lane(inst, j, l));
            }
        }
        Instr::Lanes(Box::new(LaneOp {
            dst: self.dst(inst),
            lanes,
            float: inst.ty.is_float(),
            kind,
            args: args.into_boxed_slice(),
        }))
    }

    fn alloca_slot(&self, space: AddressSpace, root: flexcl_ir::InstId) -> (bool, u32) {
        let local = space == AddressSpace::Local;
        let table = if local { &self.local_slot } else { &self.private_slot };
        (local, table.get(root.0 as usize).copied().unwrap_or(NO_SLOT))
    }

    fn instr(&mut self, inst: &flexcl_ir::Inst, sizes: [[u64; 3]; 3]) -> Instr {
        let ty = &inst.ty;
        let vector = ty.lanes() > 1;
        let elem = ty.element_scalar().unwrap_or(Scalar::I64);
        let dst = self.dst(inst);
        match &inst.op {
            Op::Alloca { space: AddressSpace::Private, .. } => {
                Instr::PrivAlloc { slot: self.private_slot[inst.id.0 as usize] }
            }
            Op::Alloca { .. } | Op::Barrier => Instr::Nop,
            Op::Bin(op) if vector => self.lane_op(inst, LaneKind::Bin(*op, elem), 0..2),
            Op::Bin(op) => {
                let (a, b) = (self.arg(inst, 0), self.arg(inst, 1));
                if op.is_comparison() {
                    Instr::Cmp { op: *op, dst, a, b }
                } else {
                    Instr::Arith { op: *op, dst, a, b, float_ty: ty.is_float(), trunc: elem }
                }
            }
            Op::Un(op) if vector => self.lane_op(inst, LaneKind::Un(*op), 0..1),
            Op::Un(op) => Instr::Un { op: *op, dst, a: self.arg(inst, 0), float_ty: ty.is_float() },
            Op::Select if vector => {
                let (cond, cond_lanes) = self.cond(inst);
                self.lane_op(inst, LaneKind::Select { cond, cond_lanes, elem }, 1..3)
            }
            Op::Select => {
                let (cond, cond_lanes) = self.cond(inst);
                let (t, f) = (self.arg(inst, 1), self.arg(inst, 2));
                Instr::Select { dst, cond, cond_lanes, t, f, to: Conv::of(ty) }
            }
            Op::Convert | Op::Splat if vector => self.lane_op(inst, LaneKind::Conv(elem), 0..1),
            Op::Convert | Op::Splat => Instr::Conv { dst, a: self.arg(inst, 0), to: Conv::of(ty) },
            Op::Extract(lane) => {
                let src = self.lane(inst, 0, *lane);
                Instr::Copy { dst, src }
            }
            Op::Insert(lane) if vector => {
                let scalar = self.arg(inst, 1);
                self.lane_op(inst, LaneKind::Insert { lane: *lane, scalar, elem }, 0..1)
            }
            // Inserting into a scalar type converts the vector argument.
            Op::Insert(_) => Instr::Conv { dst, a: self.arg(inst, 0), to: Conv::of(ty) },
            Op::Math(m) if vector => {
                let arity = inst.args.len().min(3);
                self.lane_op(inst, LaneKind::Math(*m, arity as u8), 0..arity)
            }
            Op::Math(m) => {
                let args = [self.arg(inst, 0), self.arg(inst, 1), self.arg(inst, 2)];
                Instr::Math { m: *m, dst, args, float_ty: ty.is_float() }
            }
            Op::WorkItem(WorkItemFn::WorkDim) => {
                Instr::Copy { dst, src: self.constant(Val::Int(3)) }
            }
            Op::WorkItem(f) => {
                let dim = inst.args.first().and_then(Value::as_const_int);
                match (dim, size_field(*f)) {
                    (Some(d), Some(field)) => {
                        let v = sizes[field][d.clamp(0, 2) as usize];
                        Instr::Copy { dst, src: self.constant(Val::Int(v as i64)) }
                    }
                    _ => Instr::WorkItem { f: *f, dst, dim: self.arg(inst, 0) },
                }
            }
            Op::Load { space, root } => {
                let idx = self.arg(inst, 0);
                match (*space, *root) {
                    (AddressSpace::Global | AddressSpace::Constant, MemRoot::Param(param)) => {
                        let bytes = ty.bytes().unwrap_or(4) as u32;
                        if vector {
                            let lanes = self.lanes_of[inst.id.0 as usize];
                            Instr::LoadGlobalVec {
                                dst,
                                param,
                                idx,
                                bytes,
                                lanes,
                                float: ty.is_float(),
                            }
                        } else {
                            Instr::LoadGlobal { dst, param, idx, bytes }
                        }
                    }
                    (AddressSpace::Local, MemRoot::Param(param)) => {
                        Instr::LoadLocalParam { dst, param, idx }
                    }
                    (space, MemRoot::Alloca(a)) => {
                        let (local, slot) = self.alloca_slot(space, a);
                        let lanes = self.lanes_of[inst.id.0 as usize];
                        match self.scalar_cell(local, slot, inst.args.first(), lanes) {
                            Some((cell, idx)) => Instr::LoadCell { dst, slot, cell, idx },
                            None => Instr::LoadAlloca { dst, local, slot, idx, lanes },
                        }
                    }
                    (space, root) => Instr::Fail(Box::new(InterpError::BadArguments(format!(
                        "unsupported load: {space} from {root:?}"
                    )))),
                }
            }
            Op::Store { space, root } => {
                let idx = self.arg(inst, 0);
                let (val, lanes) = match inst.args.get(1) {
                    Some(v) => self.operand(v),
                    None => (self.constant(Val::Int(0)), 1),
                };
                match (*space, *root) {
                    (AddressSpace::Global, MemRoot::Param(param)) => {
                        Instr::StoreGlobal { param, idx, val, lanes }
                    }
                    (AddressSpace::Local, MemRoot::Param(param)) => {
                        Instr::StoreLocalParam { param, idx, val }
                    }
                    (space, MemRoot::Alloca(a)) => {
                        let (local, slot) = self.alloca_slot(space, a);
                        match self.scalar_cell(local, slot, inst.args.first(), lanes) {
                            Some((cell, idx)) => Instr::StoreCell { slot, cell, idx, val },
                            None => Instr::StoreAlloca { local, slot, idx, val, lanes },
                        }
                    }
                    (space, root) => Instr::Fail(Box::new(InterpError::BadArguments(format!(
                        "unsupported store: {space} to {root:?}"
                    )))),
                }
            }
        }
    }

    /// The cell of a scalar access to a `__private` slot at a constant
    /// in-bounds index, with that index.
    fn scalar_cell(
        &self,
        local: bool,
        slot: u32,
        idx: Option<&Value>,
        lanes: u8,
    ) -> Option<(u32, i64)> {
        let s = self.private.get(slot as usize).filter(|_| !local && lanes == 1)?;
        let i = idx?.as_const_int()?;
        let u = usize::try_from(i).ok().filter(|&u| u < s.len && s.width == 1)?;
        Some(((s.offset + u) as u32, i))
    }

    /// The condition operand (argument 0) of a select and its lane count.
    fn cond(&mut self, inst: &flexcl_ir::Inst) -> (Reg, u8) {
        match inst.args.first() {
            Some(v) => self.operand(v),
            None => (self.constant(Val::Int(0)), 1),
        }
    }
}

/// Row of the run-constant size table a size query reads, `None` for the
/// per-work-item ids.
fn size_field(f: WorkItemFn) -> Option<usize> {
    match f {
        WorkItemFn::GlobalSize => Some(0),
        WorkItemFn::LocalSize => Some(1),
        WorkItemFn::NumGroups => Some(2),
        _ => None,
    }
}

/// A comparison or logical operator: floats compare as floats when
/// either side is a float, else as integers.
#[inline(always)]
pub(crate) fn cmp(op: BinOp, a: Val, b: Val) -> Val {
    let r = if matches!(a, Val::Float(_)) || matches!(b, Val::Float(_)) {
        let (x, y) = (a.as_float(), b.as_float());
        match op {
            BinOp::Lt => x < y,
            BinOp::Gt => x > y,
            BinOp::Le => x <= y,
            BinOp::Ge => x >= y,
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::LogAnd => x != 0.0 && y != 0.0,
            BinOp::LogOr => x != 0.0 || y != 0.0,
            _ => false,
        }
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        match op {
            BinOp::Lt => x < y,
            BinOp::Gt => x > y,
            BinOp::Le => x <= y,
            BinOp::Ge => x >= y,
            BinOp::Eq => x == y,
            BinOp::Ne => x != y,
            BinOp::LogAnd => x != 0 && y != 0,
            BinOp::LogOr => x != 0 || y != 0,
            _ => false,
        }
    };
    Val::Int(i64::from(r))
}

/// An arithmetic or bitwise operator. It computes in floats when the type
/// is float *or either operand is* — an `int`-typed operator fed a float
/// yields a float — and otherwise in wrapping 64-bit integers truncated to
/// `trunc`. Integer division by zero yields 0; shift counts are masked to
/// 63; bitwise operators on floats yield integer 0.
#[inline(always)]
pub(crate) fn arith(op: BinOp, a: Val, b: Val, float_ty: bool, trunc: Scalar) -> Val {
    if float_ty || matches!(a, Val::Float(_)) || matches!(b, Val::Float(_)) {
        let (x, y) = (a.as_float(), b.as_float());
        Val::Float(match op {
            BinOp::Add => x + y,
            BinOp::Sub => x - y,
            BinOp::Mul => x * y,
            BinOp::Div => x / y,
            BinOp::Rem => x % y,
            _ => return Val::Int(0),
        })
    } else {
        let (x, y) = (a.as_int(), b.as_int());
        let r = match op {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div if y == 0 => 0,
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem if y == 0 => 0,
            BinOp::Rem => x.wrapping_rem(y),
            BinOp::And => x & y,
            BinOp::Or => x | y,
            BinOp::Xor => x ^ y,
            BinOp::Shl => x.wrapping_shl(y as u32 & 63),
            BinOp::Shr => x.wrapping_shr(y as u32 & 63),
            _ => 0,
        };
        Val::Int(truncate_int(r, trunc))
    }
}

/// A unary operator. Negation stays float for a float type or operand
/// and wraps on integers; `!` and `~` yield integers. No truncation.
#[inline(always)]
pub(crate) fn un(op: UnOp, a: Val, float_ty: bool) -> Val {
    match op {
        UnOp::Neg if float_ty => Val::Float(-a.as_float()),
        UnOp::Neg => match a {
            Val::Float(x) => Val::Float(-x),
            Val::Int(x) => Val::Int(x.wrapping_neg()),
        },
        UnOp::Not => Val::Int(i64::from(!a.as_bool())),
        UnOp::BitNot => Val::Int(!a.as_int()),
    }
}

/// A math builtin over scalars. Float-valued builtins return an integer
/// (truncated toward zero) for a non-float type.
pub(crate) fn math(m: MathOp, args: [Val; 3], float_ty: bool) -> Val {
    use MathOp::*;
    let f = |i: usize| args[i].as_float();
    let n = |i: usize| args[i].as_int();
    let float_result = |v: f64| if float_ty { Val::Float(v) } else { Val::Int(v as i64) };
    match m {
        Sqrt => float_result(f(0).sqrt()),
        Rsqrt => float_result(1.0 / f(0).sqrt()),
        Exp => float_result(f(0).exp()),
        Exp2 => float_result(f(0).exp2()),
        Log => float_result(f(0).ln()),
        Log2 => float_result(f(0).log2()),
        Sin => float_result(f(0).sin()),
        Cos => float_result(f(0).cos()),
        Tan => float_result(f(0).tan()),
        Fabs => float_result(f(0).abs()),
        Floor => float_result(f(0).floor()),
        Ceil => float_result(f(0).ceil()),
        Round => float_result(f(0).round()),
        Trunc => float_result(f(0).trunc()),
        Pow => float_result(f(0).powf(f(1))),
        Fmod => float_result(f(0) % f(1)),
        Atan2 => float_result(f(0).atan2(f(1))),
        Hypot => float_result(f(0).hypot(f(1))),
        Fmin => float_result(f(0).min(f(1))),
        Fmax => float_result(f(0).max(f(1))),
        Mad | Fma => float_result(f(0) * f(1) + f(2)),
        Clamp => float_result(f(0).clamp(f(1), f(2).max(f(1)))),
        Mix => float_result(f(0) + (f(1) - f(0)) * f(2)),
        Min if float_ty => Val::Float(f(0).min(f(1))),
        Min => Val::Int(n(0).min(n(1))),
        Max if float_ty => Val::Float(f(0).max(f(1))),
        Max => Val::Int(n(0).max(n(1))),
        Abs if float_ty => Val::Float(f(0).abs()),
        Abs => Val::Int(n(0).wrapping_abs()),
        Mul24 => Val::Int((n(0) & 0xFF_FFFF).wrapping_mul(n(1) & 0xFF_FFFF)),
        Mad24 => Val::Int((n(0) & 0xFF_FFFF).wrapping_mul(n(1) & 0xFF_FFFF).wrapping_add(n(2))),
        Select => {
            if args[2].as_bool() {
                args[1]
            } else {
                args[0]
            }
        }
    }
}

/// Lane conversion of a vector `convert`/`splat`: through `f64`, then
/// truncated to the element width.
#[inline]
fn vec_conv(v: Val, elem: Scalar) -> Val {
    let x = v.as_float();
    if elem.is_float() {
        Val::Float(x)
    } else {
        Val::Int(truncate_int(x as i64, elem))
    }
}

impl LaneOp {
    /// Computes every lane into `regs[dst..dst + lanes]`.
    pub(crate) fn exec(&self, regs: &mut [Val]) {
        let n = usize::from(self.lanes);
        let arg = |regs: &[Val], j: usize, i: usize| regs[self.args[j * n + i] as usize];
        let dst = self.dst as usize;
        match self.kind {
            LaneKind::Bin(op, elem) => {
                for i in 0..n {
                    let (a, b) = (arg(regs, 0, i), arg(regs, 1, i));
                    let r = if op.is_comparison() {
                        cmp(op, a, b)
                    } else {
                        arith(op, a, b, elem.is_float(), elem)
                    };
                    regs[dst + i] = r.coerce(self.float);
                }
            }
            LaneKind::Un(op) => {
                for i in 0..n {
                    regs[dst + i] = un(op, arg(regs, 0, i), self.float).coerce(self.float);
                }
            }
            LaneKind::Math(m, arity) => {
                for i in 0..n {
                    let mut a = [Val::Int(0); 3];
                    for (j, slot) in a.iter_mut().enumerate().take(usize::from(arity)) {
                        *slot = arg(regs, j, i);
                    }
                    regs[dst + i] = math(m, a, self.float).coerce(self.float);
                }
            }
            LaneKind::Conv(elem) => {
                for i in 0..n {
                    regs[dst + i] = vec_conv(arg(regs, 0, i), elem);
                }
            }
            LaneKind::Select { cond, cond_lanes, elem } => {
                let c = (0..usize::from(cond_lanes)).any(|l| regs[cond as usize + l].as_bool());
                let j = usize::from(!c);
                for i in 0..n {
                    regs[dst + i] = vec_conv(arg(regs, j, i), elem);
                }
            }
            LaneKind::Insert { lane, scalar, elem } => {
                let s = regs[scalar as usize];
                for i in 0..n {
                    regs[dst + i] = if i == usize::from(lane) {
                        s.coerce(self.float)
                    } else {
                        vec_conv(arg(regs, 0, i), elem)
                    };
                }
            }
        }
    }
}
