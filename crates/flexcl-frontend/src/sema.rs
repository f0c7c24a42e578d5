//! Semantic analysis: scope resolution and type checking.
//!
//! [`analyze`] walks each kernel, resolves every name against lexical scopes,
//! fills the `ty` slot of every [`Expr`] in place, and rejects programs the
//! IR lowering cannot handle (unknown calls, non-scalar conditions, barriers
//! in expression position, writes to `__constant` memory, ...).

use crate::ast::*;
use crate::builtins;
use crate::error::{FrontendError, Result};
use crate::token::Span;
use crate::types::{AddressSpace, Scalar, Type};
use std::collections::HashMap;

/// Analyzes a parsed program in place.
///
/// On success every expression in the program carries its type and all name
/// references are known to resolve.
///
/// # Errors
///
/// Returns the first semantic error found.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), flexcl_frontend::FrontendError> {
/// let mut program = flexcl_frontend::parse(
///     "__kernel void scale(__global float* a, float f) {
///          int i = get_global_id(0);
///          a[i] = a[i] * f;
///      }",
/// )?;
/// flexcl_frontend::analyze(&mut program)?;
/// # Ok(())
/// # }
/// ```
pub fn analyze(program: &mut Program) -> Result<()> {
    for kernel in &mut program.kernels {
        Analyzer::new().check_kernel(kernel)?;
    }
    Ok(())
}

/// Convenience: parse + analyze in one call.
///
/// # Errors
///
/// Propagates lexical, syntactic and semantic errors.
pub fn parse_and_check(src: &str) -> Result<Program> {
    let mut span = flexcl_obs::span("frontend.parse");
    span.attr_u64("src_bytes", src.len() as u64);
    let mut p = crate::parser::parse(src)?;
    analyze(&mut p)?;
    span.attr_u64("kernels", p.kernels.len() as u64);
    Ok(p)
}

/// Maps predefined OpenCL constants (barrier flags) to their values.
fn opencl_constant(name: &str) -> Option<i64> {
    match name {
        "CLK_LOCAL_MEM_FENCE" => Some(1),
        "CLK_GLOBAL_MEM_FENCE" => Some(2),
        "MAXFLOAT" => None, // float constant; not foldable to int
        _ => None,
    }
}

#[derive(Debug, Clone)]
struct VarInfo {
    ty: Type,
    writable: bool,
}

struct Analyzer {
    scopes: Vec<HashMap<String, VarInfo>>,
    loop_depth: u32,
}

impl Analyzer {
    fn new() -> Self {
        Analyzer { scopes: vec![HashMap::new()], loop_depth: 0 }
    }

    fn err(&self, message: impl Into<String>, span: Span) -> FrontendError {
        FrontendError::Sema { message: message.into(), span }
    }

    fn push_scope(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop_scope(&mut self) {
        self.scopes.pop();
    }

    fn declare(&mut self, name: &str, info: VarInfo, span: Span) -> Result<()> {
        let top = self.scopes.last_mut().expect("at least one scope");
        if top.contains_key(name) {
            return Err(self.err(format!("`{name}` is already declared in this scope"), span));
        }
        top.insert(name.to_string(), info);
        Ok(())
    }

    fn lookup(&self, name: &str) -> Option<&VarInfo> {
        self.scopes.iter().rev().find_map(|s| s.get(name))
    }

    fn check_kernel(&mut self, kernel: &mut KernelDef) -> Result<()> {
        for p in &kernel.params {
            let writable = match &p.ty {
                Type::Pointer(_, AddressSpace::Constant) => false,
                Type::Pointer(_, _) => true,
                _ => true, // scalar params are copied; writes affect the copy
            };
            if matches!(p.ty, Type::Void | Type::Array(_, _)) {
                return Err(self
                    .err(format!("parameter `{}` has unsupported type {}", p.name, p.ty), p.span));
            }
            self.declare(&p.name, VarInfo { ty: p.ty.clone(), writable }, p.span)?;
        }
        self.check_block(&mut kernel.body)
    }

    fn check_block(&mut self, block: &mut Block) -> Result<()> {
        self.push_scope();
        let result = block.stmts.iter_mut().try_for_each(|s| self.check_stmt(s));
        self.pop_scope();
        result
    }

    fn check_stmt(&mut self, stmt: &mut Stmt) -> Result<()> {
        match stmt {
            Stmt::Decl(d) => self.check_decl(d),
            Stmt::Assign(a) => self.check_assign(a),
            Stmt::Expr(e) => {
                // Expression statements are only useful for barrier-like calls.
                let ty = self.check_expr(e)?;
                if let ExprKind::Call { name, .. } = &e.kind {
                    let _ = name;
                } else if ty != Type::Void {
                    // Value computed and dropped: legal C, pointless; accept.
                }
                Ok(())
            }
            Stmt::If(s) => {
                self.check_condition(&mut s.cond)?;
                self.check_block(&mut s.then_block)?;
                self.check_block(&mut s.else_block)
            }
            Stmt::For(s) => {
                self.push_scope();
                if let Some(init) = &mut s.init {
                    self.check_stmt(init)?;
                }
                if let Some(cond) = &mut s.cond {
                    self.check_condition(cond)?;
                }
                self.loop_depth += 1;
                let body = self.check_block(&mut s.body);
                self.loop_depth -= 1;
                body?;
                if let Some(step) = &mut s.step {
                    self.check_stmt(step)?;
                }
                self.pop_scope();
                Ok(())
            }
            Stmt::While(s) => {
                self.check_condition(&mut s.cond)?;
                self.loop_depth += 1;
                let r = self.check_block(&mut s.body);
                self.loop_depth -= 1;
                r
            }
            Stmt::DoWhile(s) => {
                self.loop_depth += 1;
                let r = self.check_block(&mut s.body);
                self.loop_depth -= 1;
                r?;
                self.check_condition(&mut s.cond)
            }
            Stmt::Return(value, span) => {
                if let Some(v) = value {
                    let ty = self.check_expr(v)?;
                    if ty != Type::Void {
                        return Err(
                            self.err("kernels return void; `return <expr>` is not allowed", *span)
                        );
                    }
                }
                Ok(())
            }
            Stmt::Break(span) | Stmt::Continue(span) => {
                if self.loop_depth == 0 {
                    Err(self.err("`break`/`continue` outside of a loop", *span))
                } else {
                    Ok(())
                }
            }
            Stmt::Block(b) => self.check_block(b),
        }
    }

    fn check_decl(&mut self, d: &mut DeclStmt) -> Result<()> {
        if d.ty == Type::Void {
            return Err(self.err(format!("cannot declare `{}` of type void", d.name), d.span));
        }
        if matches!(d.ty, Type::Array(_, _)) && d.init.is_some() {
            return Err(self.err("array declarations cannot have initialisers", d.span));
        }
        if d.space == AddressSpace::Local && !matches!(d.ty, Type::Array(_, _)) {
            return Err(self.err("`__local` declarations inside kernels must be arrays", d.span));
        }
        if let Some(init) = &mut d.init {
            let init_ty = self.check_expr(init)?;
            self.require_convertible(&init_ty, &d.ty, init.span)?;
        }
        self.declare(&d.name, VarInfo { ty: d.ty.clone(), writable: true }, d.span)
    }

    fn check_assign(&mut self, a: &mut AssignStmt) -> Result<()> {
        let target_ty = self.check_lvalue(&mut a.target)?;
        let value_ty = self.check_expr(&mut a.value)?;
        if let Some(op) = a.op {
            // Compound assignment: target op value must type-check as binary.
            if op.is_comparison() {
                return Err(self.err("comparison operators cannot be compound-assigned", a.span));
            }
            if target_ty.element_scalar().is_none() {
                return Err(self.err(
                    format!("compound assignment needs arithmetic target, got {target_ty}"),
                    a.span,
                ));
            }
        }
        self.require_convertible(&value_ty, &target_ty, a.value.span)
    }

    fn check_lvalue(&mut self, lv: &mut LValue) -> Result<Type> {
        match lv {
            LValue::Var(name, span) => {
                let info = self
                    .lookup(name)
                    .ok_or_else(|| self.err(format!("unknown variable `{name}`"), *span))?
                    .clone();
                if !info.writable {
                    return Err(self.err(format!("`{name}` is read-only"), *span));
                }
                if matches!(info.ty, Type::Array(_, _)) {
                    return Err(self.err(format!("cannot assign to array `{name}`"), *span));
                }
                Ok(info.ty)
            }
            LValue::Index { base, index, span } => {
                let base_ty = self.check_expr(base)?;
                let index_ty = self.check_expr(index)?;
                if !index_ty.is_int() {
                    return Err(self.err(format!("index must be integer, got {index_ty}"), *span));
                }
                match &base_ty {
                    Type::Pointer(elem, space) => {
                        if *space == AddressSpace::Constant {
                            return Err(
                                self.err("cannot write through `__constant` pointer", *span)
                            );
                        }
                        Ok((**elem).clone())
                    }
                    Type::Array(elem, _) => Ok((**elem).clone()),
                    other => {
                        Err(self.err(format!("cannot index into value of type {other}"), *span))
                    }
                }
            }
            LValue::Member { base, lane, span } => {
                let info = self
                    .lookup(base)
                    .ok_or_else(|| self.err(format!("unknown variable `{base}`"), *span))?
                    .clone();
                match &info.ty {
                    Type::Vector(s, n) if u32::from(*lane) < u32::from(*n) => Ok(Type::Scalar(*s)),
                    Type::Vector(_, n) => Err(self.err(
                        format!("lane {lane} out of range for {n}-lane vector `{base}`"),
                        *span,
                    )),
                    other => {
                        Err(self
                            .err(format!("`.{lane}` applied to non-vector type {other}"), *span))
                    }
                }
            }
        }
    }

    fn check_condition(&mut self, e: &mut Expr) -> Result<()> {
        let ty = self.check_expr(e)?;
        if ty.element_scalar().is_none() || ty.lanes() != 1 {
            return Err(self.err(format!("condition must be scalar, got {ty}"), e.span));
        }
        Ok(())
    }

    fn require_convertible(&self, from: &Type, to: &Type, span: Span) -> Result<()> {
        let compatible = match (from, to) {
            (a, b) if a == b => true,
            (Type::Scalar(_), Type::Scalar(_)) => true,
            (Type::Vector(_, a), Type::Vector(_, b)) => a == b,
            // Broadcasting a scalar into a vector (OpenCL allows this in init).
            (Type::Scalar(_), Type::Vector(_, _)) => true,
            (Type::Pointer(a, s1), Type::Pointer(b, s2)) => a == b && s1 == s2,
            _ => false,
        };
        if compatible {
            Ok(())
        } else {
            Err(self.err(format!("cannot convert {from} to {to}"), span))
        }
    }

    fn check_expr(&mut self, e: &mut Expr) -> Result<Type> {
        let ty = self.infer_expr(e)?;
        e.ty = Some(ty.clone());
        Ok(ty)
    }

    fn infer_expr(&mut self, e: &mut Expr) -> Result<Type> {
        let span = e.span;
        match &mut e.kind {
            ExprKind::IntLit(v) => {
                if i64::from(i32::MIN) <= *v && *v <= i64::from(i32::MAX) {
                    Ok(Type::int())
                } else {
                    Ok(Type::Scalar(Scalar::I64))
                }
            }
            ExprKind::FloatLit(_) => Ok(Type::float()),
            ExprKind::Var(name) => {
                // OpenCL barrier-flag constants are folded to integers.
                if let Some(v) = opencl_constant(name) {
                    e.kind = ExprKind::IntLit(v);
                    return Ok(Type::Scalar(Scalar::U32));
                }
                match self.lookup(name) {
                    Some(info) => Ok(info.ty.clone()),
                    None => Err(self.err(format!("unknown variable `{name}`"), span)),
                }
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.check_expr(lhs)?;
                let rt = self.check_expr(rhs)?;
                let op = *op;
                // Pointer arithmetic: ptr ± int.
                if lt.is_pointer() && rt.is_int() && matches!(op, BinOp::Add | BinOp::Sub) {
                    return Ok(lt);
                }
                if lt.is_pointer() || rt.is_pointer() {
                    if op.is_comparison() && lt == rt {
                        return Ok(Type::Scalar(Scalar::Bool));
                    }
                    return Err(self
                        .err(format!("operator `{op}` not supported on pointer operands"), span));
                }
                let (ls, rs) = match (lt.element_scalar(), rt.element_scalar()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        return Err(self.err(
                            format!("operator `{op}` needs arithmetic operands, got {lt} and {rt}"),
                            span,
                        ))
                    }
                };
                let lanes = match (lt.lanes(), rt.lanes()) {
                    (a, b) if a == b => a,
                    (1, b) => b,
                    (a, 1) => a,
                    (a, b) => {
                        return Err(
                            self.err(format!("vector lane mismatch: {a} vs {b} lanes"), span)
                        )
                    }
                };
                if matches!(
                    op,
                    BinOp::Rem | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr
                ) && (ls.is_float() || rs.is_float())
                {
                    return Err(self.err(format!("operator `{op}` requires integers"), span));
                }
                let unified = ls.unify(rs);
                let result = if op.is_comparison() {
                    Scalar::Bool
                } else if matches!(op, BinOp::Shl | BinOp::Shr) {
                    if ls == Scalar::Bool {
                        Scalar::I32
                    } else {
                        ls
                    }
                } else {
                    unified
                };
                Ok(if lanes > 1 { Type::Vector(result, lanes as u8) } else { Type::Scalar(result) })
            }
            ExprKind::Unary { op, expr } => {
                let t = self.check_expr(expr)?;
                let s = t.element_scalar().ok_or_else(|| {
                    self.err(format!("unary `{op}` needs arithmetic operand, got {t}"), span)
                })?;
                // C integer promotion: sub-int operands of `-` and `~`
                // promote to int (so `-(a < b)` is -1, not bool 1).
                let promoted = |s: Scalar, lanes: u32| {
                    let ps = if s.is_float() { s } else { s.unify(Scalar::I32) };
                    if lanes > 1 {
                        Type::Vector(ps, lanes as u8)
                    } else {
                        Type::Scalar(ps)
                    }
                };
                match op {
                    UnOp::Neg => Ok(promoted(s, t.lanes())),
                    UnOp::Not => Ok(Type::Scalar(Scalar::Bool)),
                    UnOp::BitNot => {
                        if s.is_float() {
                            Err(self.err("`~` requires an integer operand", span))
                        } else {
                            Ok(promoted(s, t.lanes()))
                        }
                    }
                }
            }
            ExprKind::Call { name, args } => {
                let builtin = builtins::resolve(name).ok_or_else(|| {
                    self.err(
                        format!("unknown function `{name}` (only OpenCL builtins are supported)"),
                        span,
                    )
                })?;
                let mut arg_tys = Vec::with_capacity(args.len());
                for a in args.iter_mut() {
                    arg_tys.push(self.check_expr(a)?);
                }
                // Barrier flags like CLK_LOCAL_MEM_FENCE are identifiers we do
                // not declare; tolerate unknown-variable errors for them by
                // special-casing before arg checking. Parser produced Var
                // nodes, so map those names to int constants here.
                builtins::check(&builtin, &arg_tys, span)
            }
            ExprKind::Index { base, index } => {
                let base_ty = self.check_expr(base)?;
                let index_ty = self.check_expr(index)?;
                if !index_ty.is_int() {
                    return Err(self.err(format!("index must be integer, got {index_ty}"), span));
                }
                match &base_ty {
                    Type::Pointer(elem, _) => Ok((**elem).clone()),
                    Type::Array(elem, _) => Ok((**elem).clone()),
                    other => {
                        Err(self.err(format!("cannot index into value of type {other}"), span))
                    }
                }
            }
            ExprKind::Member { base, lane } => {
                let base_ty = self.check_expr(base)?;
                match base_ty {
                    Type::Vector(s, n) if u32::from(*lane) < u32::from(n) => Ok(Type::Scalar(s)),
                    Type::Vector(_, n) => {
                        Err(self.err(format!("lane {lane} out of range for {n}-lane vector"), span))
                    }
                    other => {
                        Err(self.err(format!("`.{lane}` applied to non-vector type {other}"), span))
                    }
                }
            }
            ExprKind::Cast { ty, expr } => {
                let from = self.check_expr(expr)?;
                let ok = match (&from, &*ty) {
                    (Type::Scalar(_), Type::Scalar(_)) => true,
                    (Type::Vector(_, a), Type::Vector(_, b)) => a == b,
                    (Type::Scalar(_), Type::Vector(_, _)) => true, // splat
                    (Type::Pointer(_, _), Type::Pointer(_, _)) => true,
                    _ => false,
                };
                if !ok {
                    return Err(self.err(format!("cannot cast {from} to {ty}"), span));
                }
                Ok(ty.clone())
            }
            ExprKind::VectorLit { ty, elems } => {
                let Type::Vector(_, lanes) = ty else {
                    return Err(self.err("vector literal requires a vector type", span));
                };
                let lanes = usize::from(*lanes);
                if elems.len() != lanes && elems.len() != 1 {
                    return Err(self.err(
                        format!(
                            "vector literal has {} initialisers, expected {lanes} (or 1 to splat)",
                            elems.len()
                        ),
                        span,
                    ));
                }
                let ty = ty.clone();
                for e in elems.iter_mut() {
                    let et = self.check_expr(e)?;
                    if et.element_scalar().is_none() || et.lanes() != 1 {
                        return Err(self.err(
                            format!("vector literal initialisers must be scalar, got {et}"),
                            e.span,
                        ));
                    }
                }
                Ok(ty)
            }
            ExprKind::Ternary { cond, then_expr, else_expr } => {
                let ct = self.check_expr(cond)?;
                if ct.element_scalar().is_none() || ct.lanes() != 1 {
                    return Err(
                        self.err(format!("ternary condition must be scalar, got {ct}"), span)
                    );
                }
                let tt = self.check_expr(then_expr)?;
                let et = self.check_expr(else_expr)?;
                match (tt.element_scalar(), et.element_scalar()) {
                    (Some(a), Some(b)) if tt.lanes() == et.lanes() => {
                        let s = a.unify(b);
                        Ok(if tt.lanes() > 1 {
                            Type::Vector(s, tt.lanes() as u8)
                        } else {
                            Type::Scalar(s)
                        })
                    }
                    _ if tt == et => Ok(tt),
                    _ => Err(self.err(format!("ternary branches disagree: {tt} vs {et}"), span)),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Result<Program> {
        let mut p = parse(src)?;
        analyze(&mut p)?;
        Ok(p)
    }

    #[test]
    fn types_simple_kernel() {
        let p = check(
            "__kernel void add(__global int* a, __global int* b, int n) {
                int i = get_global_id(0);
                if (i < n) b[i] = a[i] + 1;
            }",
        )
        .expect("sema");
        let Stmt::Decl(d) = &p.kernels[0].body.stmts[0] else { panic!() };
        // get_global_id returns u32, assigned to int — allowed conversion.
        assert_eq!(d.init.as_ref().expect("init").ty, Some(Type::Scalar(Scalar::U32)));
    }

    #[test]
    fn rejects_unknown_variable() {
        let e = check("__kernel void k(__global int* a) { a[0] = missing; }").unwrap_err();
        assert!(e.to_string().contains("unknown variable"));
    }

    #[test]
    fn rejects_unknown_function() {
        let e = check("__kernel void k(__global int* a) { a[0] = helper(1); }").unwrap_err();
        assert!(e.to_string().contains("unknown function"));
    }

    #[test]
    fn rejects_write_through_constant() {
        let e = check("__kernel void k(__constant int* a) { a[0] = 1; }").unwrap_err();
        assert!(e.to_string().contains("__constant"));
    }

    #[test]
    fn rejects_float_modulo() {
        let e = check("__kernel void k(__global float* a) { a[0] = 1.5f % 2.0f; }").unwrap_err();
        assert!(e.to_string().contains("requires integers"));
    }

    #[test]
    fn rejects_break_outside_loop() {
        let e = check("__kernel void k(__global int* a) { break; }").unwrap_err();
        assert!(e.to_string().contains("outside of a loop"));
    }

    #[test]
    fn rejects_duplicate_declaration() {
        let e = check("__kernel void k(__global int* a) { int x = 1; int x = 2; }").unwrap_err();
        assert!(e.to_string().contains("already declared"));
    }

    #[test]
    fn pointer_arithmetic_types_as_pointer() {
        let p = check(
            "__kernel void k(__global float* a, int off) {
                __global float* p = a + off;
                p[0] = 1.0f;
            }",
        );
        assert!(p.is_ok(), "{p:?}");
    }

    #[test]
    fn shadowing_in_inner_scope_allowed() {
        assert!(check(
            "__kernel void k(__global int* a) {
                int x = 1;
                if (x > 0) { int y = x + 1; a[0] = y; }
                for (int i = 0; i < 4; i++) { int y = i; a[i] = y; }
            }"
        )
        .is_ok());
    }

    #[test]
    fn local_scalar_rejected() {
        let e = check("__kernel void k(__global int* a) { __local int x; }").unwrap_err();
        assert!(e.to_string().contains("must be arrays"));
    }

    #[test]
    fn comparison_yields_bool_then_int_context_ok() {
        assert!(check(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                int flag = i < 10;
                a[i] = flag;
            }"
        )
        .is_ok());
    }

    #[test]
    fn barrier_statement_accepted() {
        assert!(check(
            "__kernel void k(__global int* a, __local int* t) {
                int l = get_local_id(0);
                t[l] = a[l];
                barrier(1);
                a[l] = t[l];
            }"
        )
        .is_ok());
    }

    #[test]
    fn vector_lane_out_of_range() {
        let e =
            check("__kernel void k(__global float4* a) { float4 v = a[0]; v.x = v.s7; a[0] = v; }")
                .unwrap_err();
        assert!(e.to_string().contains("out of range"));
    }

    #[test]
    fn unary_minus_promotes_bool_to_int() {
        let p = check(
            "__kernel void k(__global int* a) {
                int i = get_global_id(0);
                a[i] = -(i < 10);
            }",
        )
        .expect("sema");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[1] else { panic!() };
        assert_eq!(asn.value.ty, Some(Type::int()), "C integer promotion");
    }

    #[test]
    fn clk_constants_fold() {
        assert!(check(
            "__kernel void k(__global int* a, __local int* t) {
                t[get_local_id(0)] = a[0];
                barrier(CLK_LOCAL_MEM_FENCE);
                a[0] = t[0];
            }"
        )
        .is_ok());
    }
}
