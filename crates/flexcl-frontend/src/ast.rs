//! Abstract syntax tree for the OpenCL C subset.
//!
//! Expression nodes carry a `ty` slot that is `None` after parsing and filled
//! in by [`crate::sema::analyze`]; downstream consumers (IR lowering) may rely
//! on it being `Some` once semantic analysis has succeeded.

use crate::token::Span;
use crate::types::{AddressSpace, Type};
use std::fmt;

/// A parsed translation unit: one or more kernels.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Program {
    /// Kernel definitions in source order.
    pub kernels: Vec<KernelDef>,
}

impl Program {
    /// Finds a kernel by name.
    pub fn kernel(&self, name: &str) -> Option<&KernelDef> {
        self.kernels.iter().find(|k| k.name == name)
    }
}

/// Source-level kernel attributes (SDAccel / OpenCL style).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelAttr {
    /// `__attribute__((reqd_work_group_size(x, y, z)))`.
    ReqdWorkGroupSize(u32, u32, u32),
    /// `__attribute__((xcl_pipeline_workitems))` — enable work-item pipelining.
    XclPipelineWorkitems,
    /// `__attribute__((num_compute_units(n)))` — replicate the kernel CU.
    NumComputeUnits(u32),
    /// `__attribute__((num_processing_elements(n)))` — PE replication inside a CU.
    NumProcessingElements(u32),
}

/// A `__kernel` function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDef {
    /// Kernel name.
    pub name: String,
    /// Formal parameters in declaration order.
    pub params: Vec<ParamDecl>,
    /// Kernel body.
    pub body: Block,
    /// Attributes attached to the definition.
    pub attrs: Vec<KernelAttr>,
    /// Location of the kernel header.
    pub span: Span,
}

impl KernelDef {
    /// Returns the required work-group size if declared via attribute.
    pub fn reqd_work_group_size(&self) -> Option<(u32, u32, u32)> {
        self.attrs.iter().find_map(|a| match a {
            KernelAttr::ReqdWorkGroupSize(x, y, z) => Some((*x, *y, *z)),
            _ => None,
        })
    }

    /// Whether work-item pipelining was requested in the source.
    pub fn pipeline_workitems(&self) -> bool {
        self.attrs.contains(&KernelAttr::XclPipelineWorkitems)
    }
}

/// A kernel formal parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamDecl {
    /// Parameter name.
    pub name: String,
    /// Parameter type (pointers carry their address space).
    pub ty: Type,
    /// Location of the declaration.
    pub span: Span,
}

/// A `{ ... }` statement list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in order.
    pub stmts: Vec<Stmt>,
}

impl Block {
    /// An empty block.
    pub fn new() -> Self {
        Block::default()
    }
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// A local variable declaration, e.g. `__local float buf[64];`.
    Decl(DeclStmt),
    /// An assignment, e.g. `a[i] = x + 1;` or `sum += v;`.
    Assign(AssignStmt),
    /// An expression evaluated for effect, e.g. `barrier(CLK_LOCAL_MEM_FENCE);`.
    Expr(Expr),
    /// An `if`/`else`.
    If(IfStmt),
    /// A `for` loop.
    For(ForStmt),
    /// A `while` loop.
    While(WhileStmt),
    /// A `do { } while` loop.
    DoWhile(DoWhileStmt),
    /// `return;` or `return expr;`.
    Return(Option<Expr>, Span),
    /// `break;`.
    Break(Span),
    /// `continue;`.
    Continue(Span),
    /// A nested block.
    Block(Block),
}

impl Stmt {
    /// Location of the statement (approximate for blocks).
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl(d) => d.span,
            Stmt::Assign(a) => a.span,
            Stmt::Expr(e) => e.span,
            Stmt::If(s) => s.span,
            Stmt::For(s) => s.span,
            Stmt::While(s) => s.span,
            Stmt::DoWhile(s) => s.span,
            Stmt::Return(_, sp) | Stmt::Break(sp) | Stmt::Continue(sp) => *sp,
            Stmt::Block(b) => b.stmts.first().map(Stmt::span).unwrap_or_default(),
        }
    }
}

/// A local declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclStmt {
    /// Declared name.
    pub name: String,
    /// Declared type (arrays included).
    pub ty: Type,
    /// Address space (`__local`, `__private`, ...).
    pub space: AddressSpace,
    /// Optional initialiser.
    pub init: Option<Expr>,
    /// Location.
    pub span: Span,
}

/// Assignment operators: `=` is `None`, `+=` is `Some(Add)`, and so on.
#[derive(Debug, Clone, PartialEq)]
pub struct AssignStmt {
    /// Where the value is stored.
    pub target: LValue,
    /// Compound-assignment operator, if any.
    pub op: Option<BinOp>,
    /// Right-hand side.
    pub value: Expr,
    /// Location.
    pub span: Span,
}

/// Assignable locations.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A plain variable: `x = ...`.
    Var(String, Span),
    /// An indexed store: `a[i] = ...` (base may itself be indexed for
    /// multi-dimensional local arrays lowered as nested indices).
    Index {
        /// The array or pointer expression.
        base: Box<Expr>,
        /// The element index.
        index: Box<Expr>,
        /// Location.
        span: Span,
    },
    /// A vector lane store: `v.x = ...` / `v.s3 = ...`.
    Member {
        /// The vector variable name.
        base: String,
        /// Zero-based lane index.
        lane: u8,
        /// Location.
        span: Span,
    },
}

impl LValue {
    /// Location of the lvalue.
    pub fn span(&self) -> Span {
        match self {
            LValue::Var(_, sp) => *sp,
            LValue::Index { span, .. } | LValue::Member { span, .. } => *span,
        }
    }
}

/// An `if` statement.
#[derive(Debug, Clone, PartialEq)]
pub struct IfStmt {
    /// Condition.
    pub cond: Expr,
    /// Taken when the condition is non-zero.
    pub then_block: Block,
    /// Taken otherwise (empty if there is no `else`).
    pub else_block: Block,
    /// Location.
    pub span: Span,
}

/// A `for` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ForStmt {
    /// Loop initialiser (a declaration or assignment).
    pub init: Option<Box<Stmt>>,
    /// Loop condition; `None` means `for(;;)`.
    pub cond: Option<Expr>,
    /// Loop step (an assignment).
    pub step: Option<Box<Stmt>>,
    /// Loop body.
    pub body: Block,
    /// `#pragma unroll N` factor attached to the loop, if any
    /// (`Some(0)` means full unroll).
    pub unroll: Option<u32>,
    /// Whether `#pragma pipeline` requested loop pipelining.
    pub pipeline: bool,
    /// Location.
    pub span: Span,
}

/// A `while` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct WhileStmt {
    /// Condition checked before each iteration.
    pub cond: Expr,
    /// Loop body.
    pub body: Block,
    /// Location.
    pub span: Span,
}

/// A `do/while` loop.
#[derive(Debug, Clone, PartialEq)]
pub struct DoWhileStmt {
    /// Loop body, executed at least once.
    pub body: Block,
    /// Condition checked after each iteration.
    pub cond: Expr,
    /// Location.
    pub span: Span,
}

/// Binary operators, named after their C spellings.
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    LogAnd,
    LogOr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
}

impl BinOp {
    /// Whether the operator yields `bool`.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne)
            || matches!(self, BinOp::LogAnd | BinOp::LogOr)
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::LogAnd => "&&",
            BinOp::LogOr => "||",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation `-x`.
    Neg,
    /// Logical not `!x`.
    Not,
    /// Bitwise complement `~x`.
    BitNot,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnOp::Neg => "-",
            UnOp::Not => "!",
            UnOp::BitNot => "~",
        };
        f.write_str(s)
    }
}

/// An expression with its source span and (post-sema) type.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// The expression form.
    pub kind: ExprKind,
    /// Source location.
    pub span: Span,
    /// Filled in by semantic analysis.
    pub ty: Option<Type>,
}

impl Expr {
    /// Creates an untyped expression.
    pub fn new(kind: ExprKind, span: Span) -> Self {
        Expr { kind, span, ty: None }
    }

    /// The type assigned by sema.
    ///
    /// # Panics
    ///
    /// Panics if semantic analysis has not run on this expression.
    pub fn ty(&self) -> &Type {
        self.ty.as_ref().expect("expression not typed; run sema::analyze first")
    }
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// Integer literal.
    IntLit(i64),
    /// Float literal.
    FloatLit(f64),
    /// Variable reference.
    Var(String),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// A call to an OpenCL builtin (`get_global_id`, `sqrt`, `barrier`, ...).
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Array / pointer indexing `a[i]`.
    Index {
        /// Base array or pointer.
        base: Box<Expr>,
        /// Element index.
        index: Box<Expr>,
    },
    /// Vector lane read `v.x`, `v.s5`.
    Member {
        /// Base vector expression.
        base: Box<Expr>,
        /// Zero-based lane index.
        lane: u8,
    },
    /// C-style cast `(float)x`.
    Cast {
        /// Target type.
        ty: Type,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Conditional expression `c ? a : b`.
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value when true.
        then_expr: Box<Expr>,
        /// Value when false.
        else_expr: Box<Expr>,
    },
    /// OpenCL vector constructor `(float4)(a, b, c, d)`.
    VectorLit {
        /// The vector type being constructed.
        ty: Type,
        /// Lane initialisers (either one per lane, or a single value that
        /// splats to every lane).
        elems: Vec<Expr>,
    },
}

/// Parses a vector member suffix into a lane index.
///
/// Accepts the `x`/`y`/`z`/`w` shorthand and the `sN` / `sA`-`sF` forms.
pub fn member_lane(name: &str) -> Option<u8> {
    match name {
        "x" => Some(0),
        "y" => Some(1),
        "z" => Some(2),
        "w" => Some(3),
        _ => {
            let rest = name.strip_prefix('s').or_else(|| name.strip_prefix('S'))?;
            if rest.len() != 1 {
                return None;
            }
            let c = rest.chars().next()?;
            c.to_digit(16).map(|d| d as u8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_lane_shorthand() {
        assert_eq!(member_lane("x"), Some(0));
        assert_eq!(member_lane("w"), Some(3));
        assert_eq!(member_lane("s0"), Some(0));
        assert_eq!(member_lane("sf"), Some(15));
        assert_eq!(member_lane("q"), None);
        assert_eq!(member_lane("s42"), None);
    }

    #[test]
    fn comparison_ops_are_boolean() {
        assert!(BinOp::Lt.is_comparison());
        assert!(BinOp::LogAnd.is_comparison());
        assert!(!BinOp::Add.is_comparison());
    }

    #[test]
    #[should_panic(expected = "not typed")]
    fn untyped_expr_panics() {
        let e = Expr::new(ExprKind::IntLit(1), Span::default());
        let _ = e.ty();
    }
}
