//! Core IR data structures.
//!
//! The IR is a conventional CFG of basic blocks over an instruction arena.
//! It deliberately mirrors the observables FlexCL extracts from LLVM IR:
//! per-operation opcodes (for the latency database), explicit loads/stores
//! with address-space and *root object* information (for port counting and
//! memory-trace generation), and structured loop regions with trip counts
//! (for the CDFG of §3.2 of the paper).
//!
//! Mutable scalars are lowered to single-element private allocas accessed
//! through zero-latency loads/stores, so all data dependencies — including
//! loop-carried ones — flow through explicit instructions.

use flexcl_frontend::ast::{BinOp, UnOp};
use flexcl_frontend::builtins::{MathOp, WorkItemFn};
use flexcl_frontend::types::{AddressSpace, Type};
use std::fmt;

/// Index of an instruction in a function's arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstId(pub u32);

/// Index of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Index of a structured loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl fmt::Display for InstId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

impl fmt::Display for LoopId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "loop{}", self.0)
    }
}

/// A compile-time literal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// Integer constant (covers bools: 0/1).
    Int(i64),
    /// Floating constant.
    Float(f64),
}

impl fmt::Display for Literal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Literal::Int(v) => write!(f, "{v}"),
            Literal::Float(v) => write!(f, "{v:?}"),
        }
    }
}

/// An SSA-style value reference: a literal, an instruction result, or a
/// kernel parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A literal constant.
    Literal(Literal),
    /// The result of an instruction.
    Inst(InstId),
    /// The `n`-th kernel parameter.
    Param(u32),
}

impl Value {
    /// Integer-literal shorthand.
    pub fn int(v: i64) -> Value {
        Value::Literal(Literal::Int(v))
    }

    /// Float-literal shorthand.
    pub fn float(v: f64) -> Value {
        Value::Literal(Literal::Float(v))
    }

    /// Returns the literal integer if this is one.
    pub fn as_const_int(&self) -> Option<i64> {
        match self {
            Value::Literal(Literal::Int(v)) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Literal(l) => write!(f, "{l}"),
            Value::Inst(id) => write!(f, "{id}"),
            Value::Param(i) => write!(f, "$p{i}"),
        }
    }
}

/// The root object a memory access refers to.
///
/// Pointer arithmetic is folded into indices at lowering time, so every
/// load/store can be attributed to a kernel parameter or to a local alloca.
/// This is what makes the memory-trace and dependence analyses tractable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemRoot {
    /// A pointer kernel parameter (index into the parameter list).
    Param(u32),
    /// A `__local` or `__private` array (or scalar slot) alloca.
    Alloca(InstId),
}

impl fmt::Display for MemRoot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemRoot::Param(i) => write!(f, "$p{i}"),
            MemRoot::Alloca(id) => write!(f, "{id}"),
        }
    }
}

/// Instruction opcodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Binary arithmetic/logic/comparison; `args = [lhs, rhs]`.
    Bin(BinOp),
    /// Unary operation; `args = [operand]`.
    Un(UnOp),
    /// `args = [cond, then, else]`.
    Select,
    /// Numeric conversion to the instruction's result type; `args = [x]`.
    Convert,
    /// OpenCL math builtin; `args` per [`MathOp::arity`].
    Math(MathOp),
    /// Work-item geometry query; `args = [dim]` (constant).
    WorkItem(WorkItemFn),
    /// Storage allocation. Result is an address handle; `elems` is the number
    /// of elements of the instruction's result type.
    Alloca {
        /// Address space of the storage (`Local` or `Private`).
        space: AddressSpace,
        /// Number of elements.
        elems: u64,
    },
    /// Memory read; `args = [index]` (element units from the root).
    Load {
        /// Address space accessed.
        space: AddressSpace,
        /// Root object.
        root: MemRoot,
    },
    /// Memory write; `args = [index, value]`.
    Store {
        /// Address space accessed.
        space: AddressSpace,
        /// Root object.
        root: MemRoot,
    },
    /// Extract vector lane `lane`; `args = [vector]`.
    Extract(u8),
    /// Insert scalar into lane `lane`; `args = [vector, scalar]`.
    Insert(u8),
    /// Broadcast a scalar to all lanes; `args = [scalar]`.
    Splat,
    /// Work-group barrier.
    Barrier,
}

impl Op {
    /// Whether this opcode reads or writes memory.
    pub fn is_memory(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// The address space touched, if this is a memory access.
    pub fn mem_space(&self) -> Option<AddressSpace> {
        match self {
            Op::Load { space, .. } | Op::Store { space, .. } => Some(*space),
            _ => None,
        }
    }

    /// The root object touched, if this is a memory access.
    pub fn mem_root(&self) -> Option<MemRoot> {
        match self {
            Op::Load { root, .. } | Op::Store { root, .. } => Some(*root),
            _ => None,
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Bin(b) => write!(f, "bin.{b}"),
            Op::Un(u) => write!(f, "un.{u}"),
            Op::Select => write!(f, "select"),
            Op::Convert => write!(f, "convert"),
            Op::Math(m) => write!(f, "math.{m}"),
            Op::WorkItem(w) => write!(f, "{w}"),
            Op::Alloca { space, elems } => write!(f, "alloca.{space} x{elems}"),
            Op::Load { space, root } => write!(f, "load.{space} {root}"),
            Op::Store { space, root } => write!(f, "store.{space} {root}"),
            Op::Extract(l) => write!(f, "extract.{l}"),
            Op::Insert(l) => write!(f, "insert.{l}"),
            Op::Splat => write!(f, "splat"),
            Op::Barrier => write!(f, "barrier"),
        }
    }
}

/// An instruction: opcode, result type and operands.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// This instruction's id (its index in [`Function::insts`]).
    pub id: InstId,
    /// Opcode.
    pub op: Op,
    /// Result type (`Type::Void` for stores/barriers).
    pub ty: Type,
    /// Operands.
    pub args: Vec<Value>,
}

/// How a basic block ends.
#[derive(Debug, Clone, PartialEq)]
pub enum Terminator {
    /// Unconditional jump.
    Br(BlockId),
    /// Conditional jump; `true` edge first.
    CondBr(Value, BlockId, BlockId),
    /// Kernel return.
    Ret,
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Br(b) => vec![*b],
            Terminator::CondBr(_, t, f) => vec![*t, *f],
            Terminator::Ret => vec![],
        }
    }
}

/// A basic block: a list of instruction ids plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// This block's id.
    pub id: BlockId,
    /// Instructions in program order.
    pub insts: Vec<InstId>,
    /// Block terminator.
    pub term: Terminator,
}

/// Trip-count knowledge about a loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TripCount {
    /// Statically known iteration count.
    Static(u64),
    /// Unknown statically; must be measured by dynamic profiling
    /// (the `flexcl-interp` crate fills in the average).
    Profiled,
}

/// Structured-control-flow region tree produced by lowering.
///
/// Because kernels are lowered from a structured AST the region tree is
/// built for free; it plays the role of the simplified CDFG of §3.2 where
/// "basic blocks with complex control dependencies such as loops" are merged
/// into single nodes.
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// A single basic block.
    Block(BlockId),
    /// Regions executed in sequence.
    Seq(Vec<Region>),
    /// Two-way branch; `cond_block` computes the condition.
    If {
        /// Block computing the condition.
        cond_block: BlockId,
        /// Taken region.
        then_region: Box<Region>,
        /// Not-taken region.
        else_region: Box<Region>,
    },
    /// A natural loop.
    Loop {
        /// Loop identity (indexes [`Function::loops`]).
        id: LoopId,
        /// Header block (condition check).
        header: BlockId,
        /// Loop body region.
        body: Box<Region>,
        /// Latch block (step computation).
        latch: Option<BlockId>,
    },
}

impl Region {
    /// Iterates over all block ids mentioned in the region tree.
    pub fn blocks(&self) -> Vec<BlockId> {
        let mut out = Vec::new();
        self.collect_blocks(&mut out);
        out
    }

    fn collect_blocks(&self, out: &mut Vec<BlockId>) {
        match self {
            Region::Block(b) => out.push(*b),
            Region::Seq(rs) => rs.iter().for_each(|r| r.collect_blocks(out)),
            Region::If { cond_block, then_region, else_region } => {
                out.push(*cond_block);
                then_region.collect_blocks(out);
                else_region.collect_blocks(out);
            }
            Region::Loop { header, body, latch, .. } => {
                out.push(*header);
                body.collect_blocks(out);
                if let Some(l) = latch {
                    out.push(*l);
                }
            }
        }
    }
}

/// Metadata about one structured loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopMeta {
    /// Loop identity.
    pub id: LoopId,
    /// Static trip-count knowledge.
    pub trip: TripCount,
    /// `#pragma unroll` factor (`0` = full unroll) if present in the source.
    pub unroll: Option<u32>,
    /// Whether `#pragma pipeline` requested loop pipelining.
    pub pipeline: bool,
    /// Header block.
    pub header: BlockId,
}

/// A kernel parameter as seen by the IR.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamInfo {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A lowered kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Kernel name.
    pub name: String,
    /// Parameters in declaration order.
    pub params: Vec<ParamInfo>,
    /// Instruction arena; `insts[i].id == InstId(i)`.
    pub insts: Vec<Inst>,
    /// Basic blocks; `blocks[i].id == BlockId(i)`.
    pub blocks: Vec<Block>,
    /// Entry block (always `BlockId(0)`).
    pub entry: BlockId,
    /// Structured region tree covering all blocks.
    pub region: Region,
    /// Loop metadata, indexed by [`LoopId`].
    pub loops: Vec<LoopMeta>,
    /// Required work-group size from the source attribute, if any.
    pub reqd_work_group_size: Option<(u32, u32, u32)>,
    /// Whether the source requested work-item pipelining.
    pub pipeline_workitems: bool,
}

impl Function {
    /// Returns an instruction by id.
    pub fn inst(&self, id: InstId) -> &Inst {
        &self.insts[id.0 as usize]
    }

    /// Returns a block by id.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// Iterates over all instructions of a block.
    pub fn block_insts(&self, id: BlockId) -> impl Iterator<Item = &Inst> + '_ {
        self.block(id).insts.iter().map(|i| self.inst(*i))
    }

    /// Whether the kernel contains a barrier anywhere.
    pub fn has_barrier(&self) -> bool {
        self.insts.iter().any(|i| matches!(i.op, Op::Barrier))
    }

    /// All global-memory accesses (loads and stores), in arena order.
    pub fn global_accesses(&self) -> Vec<InstId> {
        self.insts
            .iter()
            .filter(|i| i.op.mem_space() == Some(AddressSpace::Global))
            .map(|i| i.id)
            .collect()
    }

    /// Counts loads and stores to `space` in the whole function.
    pub fn count_accesses(&self, space: AddressSpace) -> (usize, usize) {
        let mut loads = 0;
        let mut stores = 0;
        for i in &self.insts {
            match &i.op {
                Op::Load { space: s, .. } if *s == space => loads += 1,
                Op::Store { space: s, .. } if *s == space => stores += 1,
                _ => {}
            }
        }
        (loads, stores)
    }

    /// Total `__local` bytes allocated by the kernel (per work-group).
    pub fn local_bytes(&self) -> u64 {
        self.insts
            .iter()
            .filter_map(|i| match &i.op {
                Op::Alloca { space: AddressSpace::Local, elems } => {
                    Some(elems * i.ty.bytes().unwrap_or(4))
                }
                _ => None,
            })
            .sum()
    }

    /// Basic structural validation: operand references resolve, blocks are
    /// correctly numbered, region tree covers every block exactly once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        for (i, inst) in self.insts.iter().enumerate() {
            if inst.id.0 as usize != i {
                return Err(format!("instruction {i} has mismatched id {}", inst.id));
            }
            for a in &inst.args {
                if let Value::Inst(dep) = a {
                    if dep.0 as usize >= self.insts.len() {
                        return Err(format!("{} references unknown {dep}", inst.id));
                    }
                }
                if let Value::Param(p) = a {
                    if *p as usize >= self.params.len() {
                        return Err(format!("{} references unknown param {p}", inst.id));
                    }
                }
            }
        }
        for (i, block) in self.blocks.iter().enumerate() {
            if block.id.0 as usize != i {
                return Err(format!("block {i} has mismatched id {}", block.id));
            }
            for s in block.term.successors() {
                if s.0 as usize >= self.blocks.len() {
                    return Err(format!("{} jumps to unknown {s}", block.id));
                }
            }
        }
        let mut seen = vec![false; self.blocks.len()];
        for b in self.region.blocks() {
            let idx = b.0 as usize;
            if idx >= seen.len() {
                return Err(format!("region references unknown {b}"));
            }
            if seen[idx] {
                return Err(format!("region mentions {b} twice"));
            }
            seen[idx] = true;
        }
        if let Some(missing) = seen.iter().position(|s| !s) {
            return Err(format!("region tree does not cover bb{missing}"));
        }
        Ok(())
    }
}

impl fmt::Display for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", p.name, p.ty)?;
        }
        writeln!(f, ")")?;
        for b in &self.blocks {
            writeln!(f, "{}:", b.id)?;
            for id in &b.insts {
                let inst = self.inst(*id);
                write!(f, "  {} = {}", inst.id, inst.op)?;
                for a in &inst.args {
                    write!(f, " {a}")?;
                }
                writeln!(f, " : {}", inst.ty)?;
            }
            match &b.term {
                Terminator::Br(t) => writeln!(f, "  br {t}")?,
                Terminator::CondBr(c, t, e) => writeln!(f, "  br {c} ? {t} : {e}")?,
                Terminator::Ret => writeln!(f, "  ret")?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_successors() {
        assert_eq!(Terminator::Br(BlockId(1)).successors(), vec![BlockId(1)]);
        assert_eq!(
            Terminator::CondBr(Value::int(1), BlockId(1), BlockId(2)).successors(),
            vec![BlockId(1), BlockId(2)]
        );
        assert!(Terminator::Ret.successors().is_empty());
    }

    #[test]
    fn value_const_int() {
        assert_eq!(Value::int(7).as_const_int(), Some(7));
        assert_eq!(Value::float(7.0).as_const_int(), None);
        assert_eq!(Value::Param(0).as_const_int(), None);
    }

    #[test]
    fn op_memory_helpers() {
        let load = Op::Load { space: AddressSpace::Global, root: MemRoot::Param(0) };
        assert!(load.is_memory());
        assert_eq!(load.mem_space(), Some(AddressSpace::Global));
        assert_eq!(load.mem_root(), Some(MemRoot::Param(0)));
        assert!(!Op::Barrier.is_memory());
    }

    #[test]
    fn function_display_is_readable() {
        use flexcl_frontend::parse_and_check;
        let p = parse_and_check("__kernel void k(__global int* a) { a[get_global_id(0)] = 1; }")
            .expect("frontend");
        let func = crate::lower::lower_kernel(&p.kernels[0]).expect("lowering");
        let text = func.to_string();
        assert!(text.contains("kernel @k"));
        assert!(text.contains("store.__global $p0"));
        assert!(text.contains("get_global_id"));
        assert!(text.contains("ret"));
    }

    #[test]
    fn region_block_collection() {
        let r = Region::Seq(vec![
            Region::Block(BlockId(0)),
            Region::If {
                cond_block: BlockId(1),
                then_region: Box::new(Region::Block(BlockId(2))),
                else_region: Box::new(Region::Block(BlockId(3))),
            },
            Region::Block(BlockId(4)),
        ]);
        assert_eq!(r.blocks(), vec![BlockId(0), BlockId(1), BlockId(2), BlockId(3), BlockId(4)]);
    }
}
