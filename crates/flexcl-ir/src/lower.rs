//! AST → IR lowering.
//!
//! Lowering produces a CFG plus the structured region tree in one pass.
//! Key decisions (documented because they shape every downstream model):
//!
//! * **Mutable scalars become private allocas** accessed via zero-latency
//!   loads/stores, so all dependencies are explicit instruction edges.
//! * **Pointer arithmetic is folded into element indices.** Every load and
//!   store carries the [`MemRoot`] it refers to; `p = a + off; p[i]`
//!   becomes a load of `a` at index `off + i`. Pointer variables may not be
//!   reassigned in terms of themselves (no induction pointers) — the corpus
//!   kernels never need this, and it keeps the dependence analysis exact.
//! * **Short-circuit `&&`/`||` and the ternary operator evaluate eagerly**,
//!   matching how HLS maps them to muxes rather than control flow.
//! * **`for` trip counts are recognised statically** for the canonical
//!   `for (i = c0; i <cmp> bound; i += c)` shape; anything else is marked
//!   [`TripCount::Profiled`] and resolved by the dynamic profiler.

use crate::function::*;
use flexcl_frontend::ast::{self, BinOp, ExprKind, LValue, Stmt, UnOp};
use flexcl_frontend::builtins::{self, Builtin};
use flexcl_frontend::error::{FrontendError, Result};
use flexcl_frontend::token::Span;
use flexcl_frontend::types::{AddressSpace, Scalar, Type};
use std::collections::HashMap;

/// Lowers one analyzed kernel to IR.
///
/// # Errors
///
/// Returns [`FrontendError::Sema`] for constructs outside the supported
/// subset (e.g. pointer induction variables).
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), flexcl_frontend::FrontendError> {
/// let program = flexcl_frontend::parse_and_check(
///     "__kernel void add(__global int* a, __global int* b) {
///          int i = get_global_id(0);
///          b[i] = a[i] + 1;
///      }",
/// )?;
/// let func = flexcl_ir::lower_kernel(&program.kernels[0])?;
/// assert_eq!(func.name, "add");
/// assert!(func.validate().is_ok());
/// # Ok(())
/// # }
/// ```
pub fn lower_kernel(kernel: &ast::KernelDef) -> Result<Function> {
    let mut span = flexcl_obs::span("ir.lower");
    let func = Lowerer::new(kernel).run()?;
    span.attr_u64("blocks", func.blocks.len() as u64);
    span.attr_u64("insts", func.insts.len() as u64);
    Ok(func)
}

/// Lowers every kernel in a program.
///
/// # Errors
///
/// Propagates the first lowering failure.
pub fn lower_program(program: &ast::Program) -> Result<Vec<Function>> {
    program.kernels.iter().map(lower_kernel).collect()
}

#[derive(Debug, Clone)]
enum Binding {
    /// Mutable scalar or vector variable stored in a one-element private slot.
    Slot { alloca: InstId, ty: Type },
    /// A `__local`/`__private` array.
    Array { root: MemRoot, elem_ty: Type, dims: Vec<usize>, space: AddressSpace },
    /// A pointer (parameter or derived) with a folded element offset.
    Pointer { root: MemRoot, elem_ty: Type, space: AddressSpace, offset: Value },
}

struct LoopCtx {
    continue_target: BlockId,
    break_target: BlockId,
}

struct Lowerer<'a> {
    kernel: &'a ast::KernelDef,
    insts: Vec<Inst>,
    blocks: Vec<Block>,
    current: BlockId,
    scopes: Vec<HashMap<String, Binding>>,
    loops: Vec<LoopMeta>,
    loop_stack: Vec<LoopCtx>,
}

impl<'a> Lowerer<'a> {
    fn new(kernel: &'a ast::KernelDef) -> Self {
        let entry = Block { id: BlockId(0), insts: Vec::new(), term: Terminator::Ret };
        Lowerer {
            kernel,
            insts: Vec::new(),
            blocks: vec![entry],
            current: BlockId(0),
            scopes: vec![HashMap::new()],
            loops: Vec::new(),
            loop_stack: Vec::new(),
        }
    }

    fn err(&self, message: impl Into<String>, span: Span) -> FrontendError {
        FrontendError::Sema { message: message.into(), span }
    }

    // ------------------------------------------------------------- emit utils

    fn emit(&mut self, op: Op, ty: Type, args: Vec<Value>) -> Value {
        let id = InstId(self.insts.len() as u32);
        self.insts.push(Inst { id, op, ty, args });
        self.blocks[self.current.0 as usize].insts.push(id);
        Value::Inst(id)
    }

    fn new_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block { id, insts: Vec::new(), term: Terminator::Ret });
        id
    }

    fn terminate(&mut self, term: Terminator) {
        self.blocks[self.current.0 as usize].term = term;
    }

    fn switch_to(&mut self, b: BlockId) {
        self.current = b;
    }

    // ----------------------------------------------------------------- scopes

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn bind(&mut self, name: &str, b: Binding) {
        self.scopes.last_mut().expect("scope").insert(name.to_string(), b);
    }

    fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn rebind(&mut self, name: &str, b: Binding) {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = b;
                return;
            }
        }
    }

    // ------------------------------------------------------------------- run

    fn run(mut self) -> Result<Function> {
        // Bind parameters: scalars copied into slots, pointers tracked
        // symbolically.
        for (i, p) in self.kernel.params.iter().enumerate() {
            match &p.ty {
                Type::Pointer(elem, space) => {
                    let binding = Binding::Pointer {
                        root: MemRoot::Param(i as u32),
                        elem_ty: (**elem).clone(),
                        space: *space,
                        offset: Value::int(0),
                    };
                    self.bind(&p.name, binding);
                }
                ty => {
                    let slot = self.emit(
                        Op::Alloca { space: AddressSpace::Private, elems: 1 },
                        ty.clone(),
                        vec![],
                    );
                    let Value::Inst(slot_id) = slot else { unreachable!() };
                    self.emit(
                        Op::Store { space: AddressSpace::Private, root: MemRoot::Alloca(slot_id) },
                        Type::Void,
                        vec![Value::int(0), Value::Param(i as u32)],
                    );
                    self.bind(&p.name, Binding::Slot { alloca: slot_id, ty: ty.clone() });
                }
            }
        }

        let mut regions = self.lower_stmts(&self.kernel.body.stmts.clone())?;
        self.terminate(Terminator::Ret);
        regions.push(Region::Block(self.current));

        let func = Function {
            name: self.kernel.name.clone(),
            params: self
                .kernel
                .params
                .iter()
                .map(|p| ParamInfo { name: p.name.clone(), ty: p.ty.clone() })
                .collect(),
            insts: self.insts,
            blocks: self.blocks,
            entry: BlockId(0),
            region: Region::Seq(regions),
            loops: self.loops,
            reqd_work_group_size: self.kernel.reqd_work_group_size(),
            pipeline_workitems: self.kernel.pipeline_workitems(),
        };
        debug_assert_eq!(func.validate(), Ok(()));
        Ok(func)
    }

    /// Lowers a statement list; leaves `self.current` open (unterminated).
    fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<Vec<Region>> {
        let mut regions = Vec::new();
        self.push_scope();
        for s in stmts {
            self.lower_stmt(s, &mut regions)?;
        }
        self.pop_scope();
        Ok(regions)
    }

    fn lower_stmt(&mut self, stmt: &Stmt, regions: &mut Vec<Region>) -> Result<()> {
        match stmt {
            Stmt::Decl(d) => self.lower_decl(d),
            Stmt::Assign(a) => self.lower_assign(a),
            Stmt::Expr(e) => self.lower_expr(e).map(|_| ()),
            Stmt::Block(b) => {
                let mut inner = self.lower_stmts(&b.stmts)?;
                regions.append(&mut inner);
                Ok(())
            }
            Stmt::If(s) => self.lower_if(s, regions),
            Stmt::For(s) => self.lower_for(s, regions),
            Stmt::While(s) => self.lower_while(s, regions),
            Stmt::DoWhile(s) => self.lower_do_while(s, regions),
            Stmt::Return(_, _) => {
                self.terminate(Terminator::Ret);
                regions.push(Region::Block(self.current));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Break(span) => {
                let target = self
                    .loop_stack
                    .last()
                    .ok_or_else(|| self.err("`break` outside loop", *span))?
                    .break_target;
                self.terminate(Terminator::Br(target));
                regions.push(Region::Block(self.current));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
            Stmt::Continue(span) => {
                let target = self
                    .loop_stack
                    .last()
                    .ok_or_else(|| self.err("`continue` outside loop", *span))?
                    .continue_target;
                self.terminate(Terminator::Br(target));
                regions.push(Region::Block(self.current));
                let dead = self.new_block();
                self.switch_to(dead);
                Ok(())
            }
        }
    }

    fn lower_decl(&mut self, d: &ast::DeclStmt) -> Result<()> {
        match &d.ty {
            Type::Array(_, _) => {
                let (elem_ty, dims) = flatten_array(&d.ty);
                let elems: u64 = dims.iter().map(|d| *d as u64).product();
                let space = if d.space == AddressSpace::Local {
                    AddressSpace::Local
                } else {
                    AddressSpace::Private
                };
                let v = self.emit(Op::Alloca { space, elems }, elem_ty.clone(), vec![]);
                let Value::Inst(id) = v else { unreachable!() };
                self.bind(
                    &d.name,
                    Binding::Array { root: MemRoot::Alloca(id), elem_ty, dims, space },
                );
                Ok(())
            }
            Type::Pointer(elem, space) => {
                // Pointer variable: must be initialised from a pointer expr.
                let init = d
                    .init
                    .as_ref()
                    .ok_or_else(|| self.err("pointer variables must be initialised", d.span))?;
                let (root, ispace, elem_ty, offset) = self.lower_pointer_expr(init)?;
                if ispace != *space {
                    return Err(self.err(
                        format!("pointer address space mismatch: {ispace} vs {space}"),
                        d.span,
                    ));
                }
                let _ = elem;
                self.bind(&d.name, Binding::Pointer { root, elem_ty, space: ispace, offset });
                Ok(())
            }
            ty => {
                let slot = self.emit(
                    Op::Alloca { space: AddressSpace::Private, elems: 1 },
                    ty.clone(),
                    vec![],
                );
                let Value::Inst(slot_id) = slot else { unreachable!() };
                if let Some(init) = &d.init {
                    let (v, vt) = self.lower_expr(init)?;
                    let v = self.coerce(v, &vt, ty);
                    self.emit(
                        Op::Store { space: AddressSpace::Private, root: MemRoot::Alloca(slot_id) },
                        Type::Void,
                        vec![Value::int(0), v],
                    );
                }
                self.bind(&d.name, Binding::Slot { alloca: slot_id, ty: ty.clone() });
                Ok(())
            }
        }
    }

    fn lower_assign(&mut self, a: &ast::AssignStmt) -> Result<()> {
        // Pointer rebinding: `p = q + off;` where target is a pointer var.
        if let LValue::Var(name, span) = &a.target {
            if let Some(Binding::Pointer { .. }) = self.lookup(name) {
                if a.op.is_some() {
                    return Err(self.err("compound assignment to pointer is not supported", *span));
                }
                if expr_mentions_var(&a.value, name) {
                    return Err(self.err(
                        format!("pointer induction (`{name}` redefined in terms of itself) is not supported"),
                        *span,
                    ));
                }
                let (root, space, elem_ty, offset) = self.lower_pointer_expr(&a.value)?;
                self.rebind(name, Binding::Pointer { root, elem_ty, space, offset });
                return Ok(());
            }
        }

        // Compute target address first (so compound assigns reuse it).
        match &a.target {
            LValue::Var(name, span) => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), *span))?
                    .clone();
                let Binding::Slot { alloca, ty } = binding else {
                    return Err(self.err(format!("cannot assign to `{name}`"), *span));
                };
                let rhs = self.lower_assign_rhs(a, |me| {
                    Ok((
                        me.emit(
                            Op::Load {
                                space: AddressSpace::Private,
                                root: MemRoot::Alloca(alloca),
                            },
                            ty.clone(),
                            vec![Value::int(0)],
                        ),
                        ty.clone(),
                    ))
                })?;
                let rhs = self.coerce(rhs.0, &rhs.1, &ty);
                self.emit(
                    Op::Store { space: AddressSpace::Private, root: MemRoot::Alloca(alloca) },
                    Type::Void,
                    vec![Value::int(0), rhs],
                );
                Ok(())
            }
            LValue::Index { base, index, span } => {
                let (root, space, elem_ty, idx) = self.lower_access(base, index, *span)?;
                let rhs = self.lower_assign_rhs(a, |me| {
                    Ok((
                        me.emit(Op::Load { space, root }, elem_ty.clone(), vec![idx]),
                        elem_ty.clone(),
                    ))
                })?;
                let rhs = self.coerce(rhs.0, &rhs.1, &elem_ty);
                self.emit(Op::Store { space, root }, Type::Void, vec![idx, rhs]);
                Ok(())
            }
            LValue::Member { base, lane, span } => {
                let binding = self
                    .lookup(base)
                    .ok_or_else(|| self.err(format!("unknown variable `{base}`"), *span))?
                    .clone();
                let Binding::Slot { alloca, ty } = binding else {
                    return Err(self.err(format!("cannot assign to lane of `{base}`"), *span));
                };
                let scalar_ty = match &ty {
                    Type::Vector(s, _) => Type::Scalar(*s),
                    other => {
                        return Err(self.err(format!("`.{lane}` on non-vector type {other}"), *span))
                    }
                };
                let lane = *lane;
                let rhs = self.lower_assign_rhs(a, |me| {
                    let vec = me.emit(
                        Op::Load { space: AddressSpace::Private, root: MemRoot::Alloca(alloca) },
                        ty.clone(),
                        vec![Value::int(0)],
                    );
                    Ok((
                        me.emit(Op::Extract(lane), scalar_ty.clone(), vec![vec]),
                        scalar_ty.clone(),
                    ))
                })?;
                let rhs = self.coerce(rhs.0, &rhs.1, &scalar_ty);
                let vec = self.emit(
                    Op::Load { space: AddressSpace::Private, root: MemRoot::Alloca(alloca) },
                    ty.clone(),
                    vec![Value::int(0)],
                );
                let updated = self.emit(Op::Insert(lane), ty.clone(), vec![vec, rhs]);
                self.emit(
                    Op::Store { space: AddressSpace::Private, root: MemRoot::Alloca(alloca) },
                    Type::Void,
                    vec![Value::int(0), updated],
                );
                Ok(())
            }
        }
    }

    /// Lowers the RHS of an assignment, applying the compound operator if any.
    fn lower_assign_rhs(
        &mut self,
        a: &ast::AssignStmt,
        load_current: impl FnOnce(&mut Self) -> Result<(Value, Type)>,
    ) -> Result<(Value, Type)> {
        let (v, vt) = self.lower_expr(&a.value)?;
        match a.op {
            None => Ok((v, vt)),
            Some(op) => {
                let (cur, cur_ty) = load_current(self)?;
                let (lhs, rhs, ty) = self.unify_operands(cur, &cur_ty, v, &vt);
                Ok((self.emit(Op::Bin(op), ty.clone(), vec![lhs, rhs]), ty))
            }
        }
    }

    fn lower_if(&mut self, s: &ast::IfStmt, regions: &mut Vec<Region>) -> Result<()> {
        let (cond, cond_ty) = self.lower_expr(&s.cond)?;
        let cond = self.coerce(cond, &cond_ty, &Type::Scalar(Scalar::Bool));
        let cond_block = self.current;

        let then_bb = self.new_block();
        let else_bb = self.new_block();
        let merge_bb = self.new_block();
        self.terminate(Terminator::CondBr(cond, then_bb, else_bb));

        self.switch_to(then_bb);
        let mut then_regions = self.lower_stmts(&s.then_block.stmts)?;
        self.terminate(Terminator::Br(merge_bb));
        then_regions.push(Region::Block(self.current));

        self.switch_to(else_bb);
        let mut else_regions = self.lower_stmts(&s.else_block.stmts)?;
        self.terminate(Terminator::Br(merge_bb));
        else_regions.push(Region::Block(self.current));

        regions.push(Region::If {
            cond_block,
            then_region: Box::new(Region::Seq(then_regions)),
            else_region: Box::new(Region::Seq(else_regions)),
        });
        self.switch_to(merge_bb);
        Ok(())
    }

    fn lower_for(&mut self, s: &ast::ForStmt, regions: &mut Vec<Region>) -> Result<()> {
        self.push_scope();
        // A body that can `break` invalidates the closed-form count; defer
        // to dynamic profiling.
        let trip = if block_breaks(&s.body) { TripCount::Profiled } else { static_trip_count(s) };
        if let Some(init) = &s.init {
            let mut scratch = Vec::new();
            self.lower_stmt(init, &mut scratch)?;
            if !scratch.is_empty() {
                return Err(self.err("unsupported control flow in loop initialiser", s.span));
            }
        }
        // Close the block holding the initialiser.
        let header = self.new_block();
        self.terminate(Terminator::Br(header));
        regions.push(Region::Block(self.current));

        let body_bb = self.new_block();
        let latch_bb = self.new_block();
        let exit_bb = self.new_block();

        self.switch_to(header);
        match &s.cond {
            Some(c) => {
                let (cond, ct) = self.lower_expr(c)?;
                let cond = self.coerce(cond, &ct, &Type::Scalar(Scalar::Bool));
                self.terminate(Terminator::CondBr(cond, body_bb, exit_bb));
            }
            None => self.terminate(Terminator::Br(body_bb)),
        }

        self.loop_stack.push(LoopCtx { continue_target: latch_bb, break_target: exit_bb });
        self.switch_to(body_bb);
        let mut body_regions = self.lower_stmts(&s.body.stmts)?;
        self.terminate(Terminator::Br(latch_bb));
        body_regions.push(Region::Block(self.current));
        self.loop_stack.pop();

        self.switch_to(latch_bb);
        if let Some(step) = &s.step {
            let mut scratch = Vec::new();
            self.lower_stmt(step, &mut scratch)?;
            if !scratch.is_empty() {
                return Err(self.err("unsupported control flow in loop step", s.span));
            }
        }
        self.terminate(Terminator::Br(header));

        let id = LoopId(self.loops.len() as u32);
        self.loops.push(LoopMeta { id, trip, unroll: s.unroll, pipeline: s.pipeline, header });
        regions.push(Region::Loop {
            id,
            header,
            body: Box::new(Region::Seq(body_regions)),
            latch: Some(latch_bb),
        });
        self.pop_scope();
        self.switch_to(exit_bb);
        Ok(())
    }

    fn lower_while(&mut self, s: &ast::WhileStmt, regions: &mut Vec<Region>) -> Result<()> {
        let header = self.new_block();
        self.terminate(Terminator::Br(header));
        regions.push(Region::Block(self.current));

        let body_bb = self.new_block();
        let exit_bb = self.new_block();

        self.switch_to(header);
        let (cond, ct) = self.lower_expr(&s.cond)?;
        let cond = self.coerce(cond, &ct, &Type::Scalar(Scalar::Bool));
        self.terminate(Terminator::CondBr(cond, body_bb, exit_bb));

        self.loop_stack.push(LoopCtx { continue_target: header, break_target: exit_bb });
        self.switch_to(body_bb);
        let mut body_regions = self.lower_stmts(&s.body.stmts)?;
        self.terminate(Terminator::Br(header));
        body_regions.push(Region::Block(self.current));
        self.loop_stack.pop();

        let id = LoopId(self.loops.len() as u32);
        self.loops.push(LoopMeta {
            id,
            trip: TripCount::Profiled,
            unroll: None,
            pipeline: false,
            header,
        });
        regions.push(Region::Loop {
            id,
            header,
            body: Box::new(Region::Seq(body_regions)),
            latch: None,
        });
        self.switch_to(exit_bb);
        Ok(())
    }

    fn lower_do_while(&mut self, s: &ast::DoWhileStmt, regions: &mut Vec<Region>) -> Result<()> {
        let body_bb = self.new_block();
        self.terminate(Terminator::Br(body_bb));
        regions.push(Region::Block(self.current));

        let cond_bb = self.new_block();
        let exit_bb = self.new_block();

        self.loop_stack.push(LoopCtx { continue_target: cond_bb, break_target: exit_bb });
        self.switch_to(body_bb);
        let mut body_regions = self.lower_stmts(&s.body.stmts)?;
        self.terminate(Terminator::Br(cond_bb));
        body_regions.push(Region::Block(self.current));
        self.loop_stack.pop();

        self.switch_to(cond_bb);
        let (cond, ct) = self.lower_expr(&s.cond)?;
        let cond = self.coerce(cond, &ct, &Type::Scalar(Scalar::Bool));
        self.terminate(Terminator::CondBr(cond, body_bb, exit_bb));

        let id = LoopId(self.loops.len() as u32);
        self.loops.push(LoopMeta {
            id,
            trip: TripCount::Profiled,
            unroll: None,
            pipeline: false,
            header: cond_bb,
        });
        regions.push(Region::Loop {
            id,
            header: cond_bb,
            body: Box::new(Region::Seq(body_regions)),
            latch: None,
        });
        self.switch_to(exit_bb);
        Ok(())
    }

    // ------------------------------------------------------------ expressions

    fn lower_expr(&mut self, e: &ast::Expr) -> Result<(Value, Type)> {
        let span = e.span;
        match &e.kind {
            ExprKind::IntLit(v) => Ok((Value::int(*v), e.ty().clone())),
            ExprKind::FloatLit(v) => Ok((Value::float(*v), e.ty().clone())),
            ExprKind::Var(name) => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), span))?
                    .clone();
                match binding {
                    Binding::Slot { alloca, ty } => {
                        let v = self.emit(
                            Op::Load {
                                space: AddressSpace::Private,
                                root: MemRoot::Alloca(alloca),
                            },
                            ty.clone(),
                            vec![Value::int(0)],
                        );
                        Ok((v, ty))
                    }
                    Binding::Array { .. } | Binding::Pointer { .. } => Err(self.err(
                        format!("`{name}` is an array/pointer and cannot be used as a value here"),
                        span,
                    )),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                // Pointer arithmetic is handled by lower_pointer_expr when a
                // pointer context requests it; in value context it is an error
                // caught by sema, except ptr comparisons which we fold to 0/1.
                let (lv, lt) = self.lower_expr(lhs)?;
                let (rv, rt) = self.lower_expr(rhs)?;
                let op = *op;
                let result_ty = e.ty().clone();
                match op {
                    BinOp::LogAnd | BinOp::LogOr => {
                        let lb = self.coerce(lv, &lt, &Type::Scalar(Scalar::Bool));
                        let rb = self.coerce(rv, &rt, &Type::Scalar(Scalar::Bool));
                        let bop = if op == BinOp::LogAnd { BinOp::And } else { BinOp::Or };
                        Ok((self.emit(Op::Bin(bop), result_ty.clone(), vec![lb, rb]), result_ty))
                    }
                    _ => {
                        let (lv, rv, opnd_ty) = self.unify_operands(lv, &lt, rv, &rt);
                        let _ = opnd_ty;
                        Ok((self.emit(Op::Bin(op), result_ty.clone(), vec![lv, rv]), result_ty))
                    }
                }
            }
            ExprKind::Unary { op, expr } => {
                let (v, _vt) = self.lower_expr(expr)?;
                let ty = e.ty().clone();
                Ok((self.emit(Op::Un(*op), ty.clone(), vec![v]), ty))
            }
            ExprKind::Call { name, args } => self.lower_call(name, args, e, span),
            ExprKind::Index { base, index } => {
                let (root, space, elem_ty, idx) = self.lower_access(base, index, span)?;
                Ok((self.emit(Op::Load { space, root }, elem_ty.clone(), vec![idx]), elem_ty))
            }
            ExprKind::Member { base, lane } => {
                let (v, _vt) = self.lower_expr(base)?;
                let ty = e.ty().clone();
                Ok((self.emit(Op::Extract(*lane), ty.clone(), vec![v]), ty))
            }
            ExprKind::Cast { ty, expr } => {
                let (v, vt) = self.lower_expr(expr)?;
                Ok((self.coerce(v, &vt, ty), ty.clone()))
            }
            ExprKind::VectorLit { ty, elems } => {
                let scalar_ty = Type::Scalar(ty.element_scalar().expect("vector type"));
                if elems.len() == 1 {
                    let (v, vt) = self.lower_expr(&elems[0])?;
                    let sv = self.coerce(v, &vt, &scalar_ty);
                    return Ok((self.emit(Op::Splat, ty.clone(), vec![sv]), ty.clone()));
                }
                // Build lane by lane starting from a splat of lane 0.
                let (v0, v0t) = self.lower_expr(&elems[0])?;
                let sv0 = self.coerce(v0, &v0t, &scalar_ty);
                let mut vec = self.emit(Op::Splat, ty.clone(), vec![sv0]);
                for (lane, e) in elems.iter().enumerate().skip(1) {
                    let (v, vt) = self.lower_expr(e)?;
                    let sv = self.coerce(v, &vt, &scalar_ty);
                    vec = self.emit(Op::Insert(lane as u8), ty.clone(), vec![vec, sv]);
                }
                Ok((vec, ty.clone()))
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                let (c, ct) = self.lower_expr(cond)?;
                let c = self.coerce(c, &ct, &Type::Scalar(Scalar::Bool));
                let (tv, tt) = self.lower_expr(then_expr)?;
                let (ev, et) = self.lower_expr(else_expr)?;
                let ty = e.ty().clone();
                let tv = self.coerce(tv, &tt, &ty);
                let ev = self.coerce(ev, &et, &ty);
                Ok((self.emit(Op::Select, ty.clone(), vec![c, tv, ev]), ty))
            }
        }
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[ast::Expr],
        e: &ast::Expr,
        span: Span,
    ) -> Result<(Value, Type)> {
        let builtin = builtins::resolve(name)
            .ok_or_else(|| self.err(format!("unknown function `{name}`"), span))?;
        let ty = e.ty().clone();
        match builtin {
            Builtin::WorkItem(wi) => {
                let dim =
                    if args.is_empty() { Value::int(0) } else { self.lower_expr(&args[0])?.0 };
                Ok((self.emit(Op::WorkItem(wi), ty.clone(), vec![dim]), ty))
            }
            Builtin::Barrier | Builtin::MemFence => {
                // Flag arguments are constants; no need to lower them.
                Ok((self.emit(Op::Barrier, Type::Void, vec![]), Type::Void))
            }
            Builtin::Convert(target) => {
                let (v, vt) = self.lower_expr(&args[0])?;
                Ok((self.coerce(v, &vt, &target), target))
            }
            Builtin::Math(m) => {
                let mut lowered = Vec::with_capacity(args.len());
                for a in args {
                    let (v, vt) = self.lower_expr(a)?;
                    // Promote each arg to the call's result element type.
                    let want = if vt.lanes() == ty.lanes() {
                        ty.clone()
                    } else {
                        match ty.element_scalar() {
                            Some(s) => Type::Scalar(s),
                            None => vt.clone(),
                        }
                    };
                    lowered.push(self.coerce(v, &vt, &want));
                }
                Ok((self.emit(Op::Math(m), ty.clone(), lowered), ty))
            }
        }
    }

    /// Resolves `base[index]` into `(root, space, elem_ty, flattened index)`.
    fn lower_access(
        &mut self,
        base: &ast::Expr,
        index: &ast::Expr,
        span: Span,
    ) -> Result<(MemRoot, AddressSpace, Type, Value)> {
        // Collect the index chain (innermost last): a[i][j] has base chain
        // Var(a) -> Index(a,i), applied index j at the top.
        let mut indices = vec![index];
        let mut cur = base;
        while let ExprKind::Index { base: b, index: i } = &cur.kind {
            indices.push(i);
            cur = b;
        }
        indices.reverse();

        let (root, space, elem_ty, base_offset, dims) = match &cur.kind {
            ExprKind::Var(name) => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), span))?
                    .clone();
                match binding {
                    Binding::Array { root, elem_ty, dims, space } => {
                        (root, space, elem_ty, Value::int(0), dims)
                    }
                    Binding::Pointer { root, elem_ty, space, offset } => {
                        (root, space, elem_ty, offset, vec![])
                    }
                    Binding::Slot { ty, .. } => {
                        return Err(
                            self.err(format!("cannot index scalar `{name}` of type {ty}"), span)
                        )
                    }
                }
            }
            ExprKind::Binary { .. } => {
                // Pointer arithmetic in base position: (a + off)[i].
                let (root, space, elem_ty, offset) = self.lower_pointer_expr(cur)?;
                (root, space, elem_ty, offset, vec![])
            }
            _ => return Err(self.err("unsupported base expression for indexing", span)),
        };

        // Flatten the index chain. For arrays, use row-major dims; pointers
        // take a single index level (possibly repeated for pointer-to-array,
        // which we do not support).
        if !dims.is_empty() && indices.len() > dims.len() {
            return Err(self.err("too many indices for array", span));
        }
        let mut flat: Option<Value> = None;
        for (level, idx_expr) in indices.iter().enumerate() {
            let (iv, it) = self.lower_expr(idx_expr)?;
            let iv = self.coerce(iv, &it, &Type::int());
            // Stride = product of the remaining dims after this level.
            let stride: u64 = if dims.is_empty() {
                1
            } else {
                dims[level + 1..].iter().map(|d| *d as u64).product()
            };
            let scaled = if stride == 1 {
                iv
            } else {
                self.emit(Op::Bin(BinOp::Mul), Type::int(), vec![iv, Value::int(stride as i64)])
            };
            flat = Some(match flat {
                None => scaled,
                Some(acc) => self.emit(Op::Bin(BinOp::Add), Type::int(), vec![acc, scaled]),
            });
        }
        let mut idx = flat.unwrap_or(Value::int(0));
        if base_offset.as_const_int() != Some(0) {
            idx = self.emit(Op::Bin(BinOp::Add), Type::int(), vec![idx, base_offset]);
        }
        Ok((root, space, elem_ty, idx))
    }

    /// Lowers an expression that denotes a pointer: `p`, `a + off`, `a - off`.
    fn lower_pointer_expr(
        &mut self,
        e: &ast::Expr,
    ) -> Result<(MemRoot, AddressSpace, Type, Value)> {
        match &e.kind {
            ExprKind::Var(name) => {
                let binding = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), e.span))?
                    .clone();
                match binding {
                    Binding::Pointer { root, elem_ty, space, offset } => {
                        Ok((root, space, elem_ty, offset))
                    }
                    Binding::Array { root, elem_ty, space, .. } => {
                        Ok((root, space, elem_ty, Value::int(0)))
                    }
                    Binding::Slot { .. } => {
                        Err(self.err(format!("`{name}` is not a pointer"), e.span))
                    }
                }
            }
            ExprKind::Binary { op: BinOp::Add, lhs, rhs } => {
                // Either side may be the pointer.
                let (ptr, off_expr) = if lhs.ty.as_ref().is_some_and(Type::is_pointer) {
                    (lhs, rhs)
                } else {
                    (rhs, lhs)
                };
                let (root, space, elem_ty, offset) = self.lower_pointer_expr(ptr)?;
                let (ov, ot) = self.lower_expr(off_expr)?;
                let ov = self.coerce(ov, &ot, &Type::int());
                let new_off = self.add_offsets(offset, ov);
                Ok((root, space, elem_ty, new_off))
            }
            ExprKind::Binary { op: BinOp::Sub, lhs, rhs } => {
                let (root, space, elem_ty, offset) = self.lower_pointer_expr(lhs)?;
                let (ov, ot) = self.lower_expr(rhs)?;
                let ov = self.coerce(ov, &ot, &Type::int());
                let neg = self.emit(Op::Un(UnOp::Neg), Type::int(), vec![ov]);
                let new_off = self.add_offsets(offset, neg);
                Ok((root, space, elem_ty, new_off))
            }
            ExprKind::Cast { expr, .. } => self.lower_pointer_expr(expr),
            _ => Err(self.err("unsupported pointer expression", e.span)),
        }
    }

    fn add_offsets(&mut self, a: Value, b: Value) -> Value {
        match (a.as_const_int(), b.as_const_int()) {
            (Some(0), _) => b,
            (_, Some(0)) => a,
            (Some(x), Some(y)) => Value::int(x + y),
            _ => self.emit(Op::Bin(BinOp::Add), Type::int(), vec![a, b]),
        }
    }

    /// Converts `v` of type `from` into type `to`, folding literals.
    fn coerce(&mut self, v: Value, from: &Type, to: &Type) -> Value {
        if from == to {
            return v;
        }
        // Literal folding.
        if let Value::Literal(lit) = v {
            if let (Some(fs), Some(ts)) = (from.element_scalar(), to.element_scalar()) {
                if from.lanes() == 1 && to.lanes() == 1 {
                    let _ = fs;
                    return match (lit, ts.is_float()) {
                        (Literal::Int(i), true) => Value::float(i as f64),
                        (Literal::Float(f), false) => Value::int(f as i64),
                        _ => v,
                    };
                }
            }
        }
        match (from.lanes(), to.lanes()) {
            (1, n) if n > 1 => {
                // Splat, converting the scalar first if needed.
                let scalar_to = Type::Scalar(to.element_scalar().expect("vector"));
                let sv = self.coerce(v, from, &scalar_to);
                self.emit(Op::Splat, to.clone(), vec![sv])
            }
            _ => self.emit(Op::Convert, to.clone(), vec![v]),
        }
    }

    /// Brings two operands to a common arithmetic type.
    fn unify_operands(
        &mut self,
        lv: Value,
        lt: &Type,
        rv: Value,
        rt: &Type,
    ) -> (Value, Value, Type) {
        let (ls, rs) = match (lt.element_scalar(), rt.element_scalar()) {
            (Some(a), Some(b)) => (a, b),
            _ => return (lv, rv, lt.clone()),
        };
        let unified = ls.unify(rs);
        let lanes = lt.lanes().max(rt.lanes());
        let ty = if lanes > 1 { Type::Vector(unified, lanes as u8) } else { Type::Scalar(unified) };
        let lv = self.coerce(lv, lt, &ty);
        let rv = self.coerce(rv, rt, &ty);
        (lv, rv, ty)
    }
}

/// Flattens nested array types into `(element type, dims)`.
fn flatten_array(ty: &Type) -> (Type, Vec<usize>) {
    let mut dims = Vec::new();
    let mut cur = ty;
    while let Type::Array(inner, n) = cur {
        dims.push(*n);
        cur = inner;
    }
    (cur.clone(), dims)
}

/// Whether a statement list contains a `break` that would exit *this*
/// loop (nested loops capture their own breaks).
fn block_breaks(block: &ast::Block) -> bool {
    block.stmts.iter().any(stmt_breaks)
}

fn stmt_breaks(stmt: &Stmt) -> bool {
    match stmt {
        Stmt::Break(_) => true,
        Stmt::If(s) => block_breaks(&s.then_block) || block_breaks(&s.else_block),
        Stmt::Block(b) => block_breaks(b),
        // `break` inside a nested loop exits that loop, not this one.
        Stmt::For(_) | Stmt::While(_) | Stmt::DoWhile(_) => false,
        _ => false,
    }
}

/// Whether `expr` mentions variable `name` anywhere.
fn expr_mentions_var(expr: &ast::Expr, name: &str) -> bool {
    match &expr.kind {
        ExprKind::Var(n) => n == name,
        ExprKind::IntLit(_) | ExprKind::FloatLit(_) => false,
        ExprKind::Binary { lhs, rhs, .. } => {
            expr_mentions_var(lhs, name) || expr_mentions_var(rhs, name)
        }
        ExprKind::Unary { expr, .. } => expr_mentions_var(expr, name),
        ExprKind::Call { args, .. } => args.iter().any(|a| expr_mentions_var(a, name)),
        ExprKind::Index { base, index } => {
            expr_mentions_var(base, name) || expr_mentions_var(index, name)
        }
        ExprKind::Member { base, .. } => expr_mentions_var(base, name),
        ExprKind::Cast { expr, .. } => expr_mentions_var(expr, name),
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            expr_mentions_var(cond, name)
                || expr_mentions_var(then_expr, name)
                || expr_mentions_var(else_expr, name)
        }
        ExprKind::VectorLit { elems, .. } => elems.iter().any(|e| expr_mentions_var(e, name)),
    }
}

/// Recognises the canonical counted-loop shape and computes its trip count.
fn static_trip_count(s: &ast::ForStmt) -> TripCount {
    let Some(init) = &s.init else { return TripCount::Profiled };
    let Some(cond) = &s.cond else { return TripCount::Profiled };
    let Some(step) = &s.step else { return TripCount::Profiled };

    // init: `<ty> v = c0` or `v = c0`.
    let (var, start) = match &**init {
        Stmt::Decl(d) => {
            let Some(init_e) = &d.init else { return TripCount::Profiled };
            let ExprKind::IntLit(c0) = init_e.kind else { return TripCount::Profiled };
            (d.name.as_str(), c0)
        }
        Stmt::Assign(a) => {
            let LValue::Var(name, _) = &a.target else { return TripCount::Profiled };
            if a.op.is_some() {
                return TripCount::Profiled;
            }
            let ExprKind::IntLit(c0) = a.value.kind else { return TripCount::Profiled };
            (name.as_str(), c0)
        }
        _ => return TripCount::Profiled,
    };

    // cond: `v < bound` (or <=, >, >=) with integer bound.
    let ExprKind::Binary { op, lhs, rhs } = &cond.kind else { return TripCount::Profiled };
    let (bound, flipped) = match (&lhs.kind, &rhs.kind) {
        (ExprKind::Var(n), ExprKind::IntLit(b)) if n == var => (*b, false),
        (ExprKind::IntLit(b), ExprKind::Var(n)) if n == var => (*b, true),
        _ => return TripCount::Profiled,
    };
    let op = if flipped {
        match op {
            BinOp::Lt => BinOp::Gt,
            BinOp::Gt => BinOp::Lt,
            BinOp::Le => BinOp::Ge,
            BinOp::Ge => BinOp::Le,
            other => *other,
        }
    } else {
        *op
    };

    // step: `v += c` / `v -= c` / `v++` / `v--` (parser lowers ++ to += 1).
    let Stmt::Assign(a) = &**step else { return TripCount::Profiled };
    let LValue::Var(n, _) = &a.target else { return TripCount::Profiled };
    if n != var {
        return TripCount::Profiled;
    }
    let ExprKind::IntLit(c) = a.value.kind else { return TripCount::Profiled };
    let delta = match a.op {
        Some(BinOp::Add) => c,
        Some(BinOp::Sub) => -c,
        _ => return TripCount::Profiled,
    };
    if delta == 0 {
        return TripCount::Profiled;
    }

    let count = match op {
        BinOp::Lt if delta > 0 && bound > start => (bound - start + delta - 1) / delta,
        BinOp::Le if delta > 0 && bound >= start => (bound - start) / delta + 1,
        BinOp::Gt if delta < 0 && bound < start => (start - bound + (-delta) - 1) / (-delta),
        BinOp::Ge if delta < 0 && bound <= start => (start - bound) / (-delta) + 1,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 0,
        BinOp::Ne if delta != 0 && (bound - start) % delta == 0 => (bound - start) / delta,
        _ => return TripCount::Profiled,
    };
    if count >= 0 {
        TripCount::Static(count as u64)
    } else {
        TripCount::Profiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_frontend::parse_and_check;

    fn lower(src: &str) -> Function {
        let p = parse_and_check(src).expect("frontend");
        lower_kernel(&p.kernels[0]).expect("lowering")
    }

    #[test]
    fn lowers_add_kernel() {
        let f = lower(
            "__kernel void add(__global int* a, __global int* b) {
                int i = get_global_id(0);
                b[i] = a[i] + 1;
            }",
        );
        assert_eq!(f.validate(), Ok(()));
        let (loads, stores) = f.count_accesses(AddressSpace::Global);
        assert_eq!((loads, stores), (1, 1));
        assert!(!f.has_barrier());
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::WorkItem(_))));
    }

    #[test]
    fn static_trip_count_for_canonical_loop() {
        let f = lower(
            "__kernel void k(__global float* a) {
                float s = 0.0f;
                for (int i = 0; i < 16; i++) { s += a[i]; }
                a[0] = s;
            }",
        );
        assert_eq!(f.loops.len(), 1);
        assert_eq!(f.loops[0].trip, TripCount::Static(16));
    }

    #[test]
    fn trip_count_shapes() {
        let cases = [
            ("for (int i = 0; i < 10; i++)", TripCount::Static(10)),
            ("for (int i = 0; i <= 10; i++)", TripCount::Static(11)),
            ("for (int i = 10; i > 0; i--)", TripCount::Static(10)),
            ("for (int i = 0; i < 10; i += 3)", TripCount::Static(4)),
            ("for (int i = 16; i >= 1; i -= 2)", TripCount::Static(8)),
        ];
        for (head, want) in cases {
            let src = format!("__kernel void k(__global int* a) {{ {head} {{ a[i] = i; }} }}");
            let f = lower(&src);
            assert_eq!(f.loops[0].trip, want, "loop `{head}`");
        }
    }

    #[test]
    fn dynamic_bound_is_profiled() {
        let f = lower(
            "__kernel void k(__global int* a, int n) {
                for (int i = 0; i < n; i++) { a[i] = i; }
            }",
        );
        assert_eq!(f.loops[0].trip, TripCount::Profiled);
    }

    #[test]
    fn barrier_lowering() {
        let f = lower(
            "__kernel void k(__global int* a, __local int* t) {
                int l = get_local_id(0);
                t[l] = a[l];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[l] = t[l];
            }",
        );
        assert!(f.has_barrier());
        let (l_loads, l_stores) = f.count_accesses(AddressSpace::Local);
        assert_eq!((l_loads, l_stores), (1, 1));
    }

    #[test]
    fn multi_dim_local_array_flattens() {
        let f = lower(
            "__kernel void k(__global float* a) {
                __local float tile[4][8];
                int i = get_local_id(0);
                int j = get_local_id(1);
                tile[i][j] = a[i * 8 + j];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[i * 8 + j] = tile[i][j];
            }",
        );
        assert_eq!(f.validate(), Ok(()));
        assert_eq!(f.local_bytes(), 4 * 8 * 4);
        // The flattened index for tile[i][j] should involve a Mul by 8.
        let has_stride_mul = f.insts.iter().any(|inst| {
            matches!(inst.op, Op::Bin(BinOp::Mul))
                && inst.args.iter().any(|a| a.as_const_int() == Some(8))
        });
        assert!(has_stride_mul);
    }

    #[test]
    fn pointer_offset_folds_into_index() {
        let f = lower(
            "__kernel void k(__global float* a, int off) {
                __global float* p = a + off;
                p[3] = 1.0f;
            }",
        );
        assert_eq!(f.validate(), Ok(()));
        // Store must be rooted at param 0 even though accessed through p.
        let store = f
            .insts
            .iter()
            .find(|i| matches!(i.op, Op::Store { space: AddressSpace::Global, .. }))
            .expect("store");
        assert_eq!(store.op.mem_root(), Some(MemRoot::Param(0)));
    }

    #[test]
    fn pointer_induction_rejected() {
        let p = parse_and_check(
            "__kernel void k(__global float* a) {
                __global float* p = a;
                for (int i = 0; i < 4; i++) { p[0] = 1.0f; p = p + 1; }
            }",
        )
        .expect("frontend");
        let e = lower_kernel(&p.kernels[0]).unwrap_err();
        assert!(e.to_string().contains("pointer induction"));
    }

    #[test]
    fn early_return_keeps_structure_valid() {
        let f = lower(
            "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                if (i >= n) { return; }
                a[i] = i;
            }",
        );
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn break_and_continue_lower() {
        let f = lower(
            "__kernel void k(__global int* a) {
                for (int i = 0; i < 100; i++) {
                    if (i == 50) { break; }
                    if (i % 2 == 0) { continue; }
                    a[i] = i;
                }
            }",
        );
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn vector_ops_lower() {
        let f = lower(
            "__kernel void k(__global float4* a) {
                int i = get_global_id(0);
                float4 v = a[i];
                v.x = v.y * 2.0f;
                a[i] = v;
            }",
        );
        assert_eq!(f.validate(), Ok(()));
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::Extract(_))));
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::Insert(0))));
    }

    #[test]
    fn ternary_lowers_to_select() {
        let f = lower(
            "__kernel void k(__global float* a, int n) {
                int i = get_global_id(0);
                a[i] = (i < n) ? 1.0f : 0.0f;
            }",
        );
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::Select)));
    }

    #[test]
    fn logical_ops_lower_eagerly() {
        let f = lower(
            "__kernel void k(__global int* a, int n) {
                int i = get_global_id(0);
                if (i > 0 && i < n) { a[i] = 1; }
            }",
        );
        assert_eq!(f.validate(), Ok(()));
        assert!(f.insts.iter().any(|i| matches!(i.op, Op::Bin(BinOp::And))));
    }

    #[test]
    fn nested_loops_register_two_loops() {
        let f = lower(
            "__kernel void k(__global float* a) {
                for (int i = 0; i < 8; i++) {
                    for (int j = 0; j < 4; j++) {
                        a[i * 4 + j] = 0.0f;
                    }
                }
            }",
        );
        assert_eq!(f.loops.len(), 2);
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn unroll_pragma_recorded() {
        let f = lower(
            "__kernel void k(__global float* a) {
                #pragma unroll 4
                for (int i = 0; i < 16; i++) { a[i] = 0.0f; }
            }",
        );
        assert_eq!(f.loops[0].unroll, Some(4));
    }

    #[test]
    fn scalar_param_copies_to_slot() {
        let f = lower(
            "__kernel void k(__global float* a, float alpha) {
                a[0] = alpha * 2.0f;
            }",
        );
        // alpha is stored once at entry and loaded at use.
        let stores: Vec<_> = f
            .insts
            .iter()
            .filter(|i| matches!(i.op, Op::Store { space: AddressSpace::Private, .. }))
            .collect();
        assert!(!stores.is_empty());
        assert_eq!(f.validate(), Ok(()));
    }
}
