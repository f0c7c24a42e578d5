//! Recursive-descent parser for the OpenCL C subset.
//!
//! The grammar is a pragmatic subset of OpenCL C 1.2 covering the constructs
//! that appear in the Rodinia and PolyBench kernels: kernel definitions with
//! attributes, scalar/vector/pointer/array types with address-space
//! qualifiers, the usual statements (`if`, `for`, `while`, `do`,
//! declarations, assignments including compound and increment forms), and
//! C expressions with builtin calls.

use crate::ast::*;
use crate::error::{FrontendError, Result};
use crate::lexer::Lexer;
use crate::token::{Keyword, Punct, Span, Token, TokenKind};
use crate::types::{AddressSpace, Scalar, Type};

/// Parses `src` into a [`Program`].
///
/// This is the main entry point of the frontend; it runs the lexer and the
/// parser but *not* semantic analysis (see [`crate::sema::analyze`]).
///
/// # Errors
///
/// Returns a [`FrontendError`] describing the first lexical or syntactic
/// problem found.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), flexcl_frontend::FrontendError> {
/// let program = flexcl_frontend::parse(
///     "__kernel void add(__global int* a, __global int* b) {
///          int i = get_global_id(0);
///          b[i] = a[i] + 1;
///      }",
/// )?;
/// assert_eq!(program.kernels[0].name, "add");
/// # Ok(())
/// # }
/// ```
pub fn parse(src: &str) -> Result<Program> {
    let tokens = Lexer::new(src).tokenize()?;
    Parser::new(tokens).parse_program()
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// Pragma text pending attachment to the next `for` loop.
    pending_unroll: Option<u32>,
    /// Loop-pipelining pragma pending attachment to the next `for` loop.
    pending_pipeline: bool,
}

impl Parser {
    fn new(tokens: Vec<Token>) -> Self {
        Parser { tokens, pos: 0, pending_unroll: None, pending_pipeline: false }
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek_kind(&self) -> &TokenKind {
        &self.peek().kind
    }

    fn peek_ahead(&self, n: usize) -> &TokenKind {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].kind
    }

    fn bump(&mut self) -> Token {
        let t = self.tokens[self.pos.min(self.tokens.len() - 1)].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek_kind(), TokenKind::Punct(q) if *q == p)
    }

    fn at_keyword(&self, k: Keyword) -> bool {
        matches!(self.peek_kind(), TokenKind::Keyword(q) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<Span> {
        if self.at_punct(p) {
            Ok(self.bump().span)
        } else {
            Err(self.error(format!("expected `{p}`, found {}", self.peek_kind())))
        }
    }

    fn expect_ident(&mut self) -> Result<(String, Span)> {
        match self.peek_kind().clone() {
            TokenKind::Ident(name) => {
                let sp = self.bump().span;
                Ok((name, sp))
            }
            other => Err(self.error(format!("expected identifier, found {other}"))),
        }
    }

    fn error(&self, message: impl Into<String>) -> FrontendError {
        FrontendError::Parse { message: message.into(), span: self.peek().span }
    }

    // ---------------------------------------------------------------- program

    fn parse_program(mut self) -> Result<Program> {
        let mut kernels = Vec::new();
        loop {
            // Swallow stray pragmas between kernels.
            while let TokenKind::Pragma(_) = self.peek_kind() {
                self.bump();
            }
            if matches!(self.peek_kind(), TokenKind::Eof) {
                break;
            }
            kernels.push(self.parse_kernel()?);
        }
        Ok(Program { kernels })
    }

    fn parse_kernel(&mut self) -> Result<KernelDef> {
        let start = self.peek().span;
        let mut attrs = Vec::new();
        let mut saw_kernel = false;
        loop {
            if self.eat_keyword(Keyword::Kernel) {
                saw_kernel = true;
            } else if self.at_keyword(Keyword::Attribute) {
                attrs.extend(self.parse_attribute()?);
            } else {
                break;
            }
        }
        if !saw_kernel {
            return Err(self.error("expected `__kernel` function definition"));
        }
        if !self.eat_keyword(Keyword::Void) {
            return Err(self.error("kernels must return `void`"));
        }
        let (name, _) = self.expect_ident()?;
        self.expect_punct(Punct::LParen)?;
        let mut params = Vec::new();
        if !self.at_punct(Punct::RParen) {
            loop {
                params.push(self.parse_param()?);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        self.expect_punct(Punct::RParen)?;
        // Attributes may also follow the parameter list.
        while self.at_keyword(Keyword::Attribute) {
            attrs.extend(self.parse_attribute()?);
        }
        let body = self.parse_block()?;
        Ok(KernelDef { name, params, body, attrs, span: start })
    }

    fn parse_attribute(&mut self) -> Result<Vec<KernelAttr>> {
        // __attribute__ (( name(args...) [, name(args...)]* ))
        self.bump(); // __attribute__
        self.expect_punct(Punct::LParen)?;
        self.expect_punct(Punct::LParen)?;
        let mut attrs = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            let mut args = Vec::new();
            if self.eat_punct(Punct::LParen) {
                if !self.at_punct(Punct::RParen) {
                    loop {
                        match self.peek_kind().clone() {
                            TokenKind::IntLit(v) => {
                                self.bump();
                                args.push(v);
                            }
                            other => {
                                return Err(self.error(format!(
                                    "expected integer attribute argument, found {other}"
                                )))
                            }
                        }
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                }
                self.expect_punct(Punct::RParen)?;
            }
            let attr = match (name.as_str(), args.as_slice()) {
                ("reqd_work_group_size", [x, y, z]) => {
                    Some(KernelAttr::ReqdWorkGroupSize(*x as u32, *y as u32, *z as u32))
                }
                ("xcl_pipeline_workitems" | "work_item_pipeline", _) => {
                    Some(KernelAttr::XclPipelineWorkitems)
                }
                ("num_compute_units", [n]) => Some(KernelAttr::NumComputeUnits(*n as u32)),
                ("num_processing_elements" | "opencl_unroll_hint", [n]) => {
                    Some(KernelAttr::NumProcessingElements(*n as u32))
                }
                // Unknown attributes are ignored, as real toolchains do.
                _ => None,
            };
            attrs.extend(attr);
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::RParen)?;
        Ok(attrs)
    }

    fn parse_param(&mut self) -> Result<ParamDecl> {
        let start = self.peek().span;
        let (ty, _space) = self.parse_qualified_type()?;
        let (name, _) = self.expect_ident()?;
        // Trailing qualifiers after the name are not legal C; nothing to do.
        Ok(ParamDecl { name, ty, span: start })
    }

    // ------------------------------------------------------------------ types

    /// Returns true when the upcoming tokens start a type.
    fn at_type_start(&self) -> bool {
        match self.peek_kind() {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Void
                    | Keyword::Bool
                    | Keyword::Char
                    | Keyword::Uchar
                    | Keyword::Short
                    | Keyword::Ushort
                    | Keyword::Int
                    | Keyword::Uint
                    | Keyword::Long
                    | Keyword::Ulong
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::SizeT
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Const
                    | Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
                    | Keyword::Private
                    | Keyword::Volatile
            ),
            TokenKind::Ident(name) => Type::from_name(name).is_some(),
            _ => false,
        }
    }

    /// Parses qualifiers + base type + pointer stars.
    fn parse_qualified_type(&mut self) -> Result<(Type, AddressSpace)> {
        let mut space = AddressSpace::Private;
        let mut space_explicit = false;
        loop {
            if self.eat_keyword(Keyword::Const) || self.eat_keyword(Keyword::Volatile) {
                continue;
            }
            if self.eat_keyword(Keyword::Global) {
                space = AddressSpace::Global;
                space_explicit = true;
            } else if self.eat_keyword(Keyword::Local) {
                space = AddressSpace::Local;
                space_explicit = true;
            } else if self.eat_keyword(Keyword::Constant) {
                space = AddressSpace::Constant;
                space_explicit = true;
            } else if self.eat_keyword(Keyword::Private) {
                space = AddressSpace::Private;
                space_explicit = true;
            } else {
                break;
            }
        }
        let base = self.parse_base_type()?;
        let mut ty = base;
        while self.at_punct(Punct::Star) {
            self.bump();
            while self.eat_keyword(Keyword::Restrict)
                || self.eat_keyword(Keyword::Const)
                || self.eat_keyword(Keyword::Volatile)
            {}
            let ptr_space = if space_explicit { space } else { AddressSpace::Global };
            ty = Type::Pointer(Box::new(ty), ptr_space);
        }
        Ok((ty, space))
    }

    fn parse_base_type(&mut self) -> Result<Type> {
        // `unsigned int`, `unsigned`, `signed char`, ...
        if self.eat_keyword(Keyword::Unsigned) {
            let s = match self.peek_kind() {
                TokenKind::Keyword(Keyword::Char) => {
                    self.bump();
                    Scalar::U8
                }
                TokenKind::Keyword(Keyword::Short) => {
                    self.bump();
                    Scalar::U16
                }
                TokenKind::Keyword(Keyword::Long) => {
                    self.bump();
                    Scalar::U64
                }
                TokenKind::Keyword(Keyword::Int) => {
                    self.bump();
                    Scalar::U32
                }
                _ => Scalar::U32,
            };
            return Ok(Type::Scalar(s));
        }
        if self.eat_keyword(Keyword::Signed) {
            let s = match self.peek_kind() {
                TokenKind::Keyword(Keyword::Char) => {
                    self.bump();
                    Scalar::I8
                }
                TokenKind::Keyword(Keyword::Short) => {
                    self.bump();
                    Scalar::I16
                }
                TokenKind::Keyword(Keyword::Long) => {
                    self.bump();
                    Scalar::I64
                }
                TokenKind::Keyword(Keyword::Int) => {
                    self.bump();
                    Scalar::I32
                }
                _ => Scalar::I32,
            };
            return Ok(Type::Scalar(s));
        }
        let kind = self.peek_kind().clone();
        match kind {
            TokenKind::Keyword(k) => {
                let ty = match k {
                    Keyword::Void => Type::Void,
                    Keyword::Bool => Type::Scalar(Scalar::Bool),
                    Keyword::Char => Type::Scalar(Scalar::I8),
                    Keyword::Uchar => Type::Scalar(Scalar::U8),
                    Keyword::Short => Type::Scalar(Scalar::I16),
                    Keyword::Ushort => Type::Scalar(Scalar::U16),
                    Keyword::Int => Type::Scalar(Scalar::I32),
                    Keyword::Uint | Keyword::SizeT => Type::Scalar(Scalar::U32),
                    Keyword::Long => Type::Scalar(Scalar::I64),
                    Keyword::Ulong => Type::Scalar(Scalar::U64),
                    Keyword::Float => Type::Scalar(Scalar::F32),
                    Keyword::Double => Type::Scalar(Scalar::F64),
                    _ => return Err(self.error(format!("expected type, found keyword `{k}`"))),
                };
                self.bump();
                Ok(ty)
            }
            TokenKind::Ident(name) => match Type::from_name(&name) {
                Some(ty) => {
                    self.bump();
                    Ok(ty)
                }
                None => Err(self.error(format!("unknown type name `{name}`"))),
            },
            other => Err(self.error(format!("expected type, found {other}"))),
        }
    }

    // ------------------------------------------------------------- statements

    fn parse_block(&mut self) -> Result<Block> {
        self.expect_punct(Punct::LBrace)?;
        let mut stmts = Vec::new();
        while !self.at_punct(Punct::RBrace) {
            if matches!(self.peek_kind(), TokenKind::Eof) {
                return Err(self.error("unexpected end of input inside block"));
            }
            stmts.push(self.parse_stmt()?);
        }
        self.expect_punct(Punct::RBrace)?;
        Ok(Block { stmts })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        // Pragmas attach to the following loop.
        if let TokenKind::Pragma(text) = self.peek_kind().clone() {
            self.bump();
            if let Some(u) = parse_unroll_pragma(&text) {
                self.pending_unroll = Some(u);
            } else if parse_pipeline_pragma(&text) {
                self.pending_pipeline = true;
            }
            return self.parse_stmt();
        }
        let span = self.peek().span;
        match self.peek_kind().clone() {
            TokenKind::Punct(Punct::LBrace) => Ok(Stmt::Block(self.parse_block()?)),
            TokenKind::Punct(Punct::Semi) => {
                self.bump();
                Ok(Stmt::Block(Block::new()))
            }
            TokenKind::Keyword(Keyword::If) => self.parse_if(),
            TokenKind::Keyword(Keyword::For) => self.parse_for(),
            TokenKind::Keyword(Keyword::While) => self.parse_while(),
            TokenKind::Keyword(Keyword::Do) => self.parse_do_while(),
            TokenKind::Keyword(Keyword::Return) => {
                self.bump();
                let value =
                    if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Return(value, span))
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Break(span))
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.bump();
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Continue(span))
            }
            _ if self.at_type_start() => {
                let stmt = self.parse_decl()?;
                self.expect_punct(Punct::Semi)?;
                Ok(stmt)
            }
            _ => {
                let stmt = self.parse_simple_stmt()?;
                self.expect_punct(Punct::Semi)?;
                Ok(stmt)
            }
        }
    }

    /// A declaration without the trailing `;` (shared with `for` initialisers).
    fn parse_decl(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        let (base_ty, space) = self.parse_qualified_type()?;
        let mut decls: Vec<DeclStmt> = Vec::new();
        loop {
            let (name, _) = self.expect_ident()?;
            // Array suffixes.
            let mut dims = Vec::new();
            while self.eat_punct(Punct::LBracket) {
                match self.peek_kind().clone() {
                    TokenKind::IntLit(v) if v > 0 => {
                        self.bump();
                        dims.push(v as usize);
                    }
                    other => {
                        return Err(self.error(format!(
                            "array dimensions must be positive integer constants, found {other}"
                        )))
                    }
                }
                self.expect_punct(Punct::RBracket)?;
            }
            let mut ty = base_ty.clone();
            for d in dims.iter().rev() {
                ty = Type::Array(Box::new(ty), *d);
            }
            let init = if self.eat_punct(Punct::Eq) { Some(self.parse_expr()?) } else { None };
            decls.push(DeclStmt { name, ty, space, init, span });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        if decls.len() == 1 {
            Ok(Stmt::Decl(decls.pop().expect("one decl")))
        } else {
            Ok(Stmt::Block(Block { stmts: decls.into_iter().map(Stmt::Decl).collect() }))
        }
    }

    /// Assignment / expression / increment statement without the trailing `;`.
    fn parse_simple_stmt(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        // Prefix increment/decrement.
        if self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus) {
            let op = if self.eat_punct(Punct::PlusPlus) {
                BinOp::Add
            } else {
                self.bump();
                BinOp::Sub
            };
            let expr = self.parse_unary()?;
            let target = self.expr_to_lvalue(expr)?;
            let one = Expr::new(ExprKind::IntLit(1), span);
            return Ok(Stmt::Assign(AssignStmt { target, op: Some(op), value: one, span }));
        }
        let expr = self.parse_expr()?;
        // Postfix increment/decrement.
        if self.at_punct(Punct::PlusPlus) || self.at_punct(Punct::MinusMinus) {
            let op = if self.eat_punct(Punct::PlusPlus) {
                BinOp::Add
            } else {
                self.bump();
                BinOp::Sub
            };
            let target = self.expr_to_lvalue(expr)?;
            let one = Expr::new(ExprKind::IntLit(1), span);
            return Ok(Stmt::Assign(AssignStmt { target, op: Some(op), value: one, span }));
        }
        // Assignment operators.
        let assign_op = match self.peek_kind() {
            TokenKind::Punct(Punct::Eq) => Some(None),
            TokenKind::Punct(Punct::PlusEq) => Some(Some(BinOp::Add)),
            TokenKind::Punct(Punct::MinusEq) => Some(Some(BinOp::Sub)),
            TokenKind::Punct(Punct::StarEq) => Some(Some(BinOp::Mul)),
            TokenKind::Punct(Punct::SlashEq) => Some(Some(BinOp::Div)),
            TokenKind::Punct(Punct::PercentEq) => Some(Some(BinOp::Rem)),
            TokenKind::Punct(Punct::AmpEq) => Some(Some(BinOp::And)),
            TokenKind::Punct(Punct::PipeEq) => Some(Some(BinOp::Or)),
            TokenKind::Punct(Punct::CaretEq) => Some(Some(BinOp::Xor)),
            TokenKind::Punct(Punct::ShlEq) => Some(Some(BinOp::Shl)),
            TokenKind::Punct(Punct::ShrEq) => Some(Some(BinOp::Shr)),
            _ => None,
        };
        if let Some(op) = assign_op {
            self.bump();
            let value = self.parse_expr()?;
            let target = self.expr_to_lvalue(expr)?;
            return Ok(Stmt::Assign(AssignStmt { target, op, value, span }));
        }
        Ok(Stmt::Expr(expr))
    }

    fn expr_to_lvalue(&self, expr: Expr) -> Result<LValue> {
        let span = expr.span;
        match expr.kind {
            ExprKind::Var(name) => Ok(LValue::Var(name, span)),
            ExprKind::Index { base, index } => Ok(LValue::Index { base, index, span }),
            ExprKind::Member { base, lane } => match base.kind {
                ExprKind::Var(name) => Ok(LValue::Member { base: name, lane, span }),
                _ => Err(FrontendError::Parse {
                    message: "vector lane assignment requires a named vector".into(),
                    span,
                }),
            },
            _ => Err(FrontendError::Parse { message: "expression is not assignable".into(), span }),
        }
    }

    fn parse_if(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        self.bump(); // if
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        let then_block = self.parse_stmt_as_block()?;
        let else_block = if self.eat_keyword(Keyword::Else) {
            self.parse_stmt_as_block()?
        } else {
            Block::new()
        };
        Ok(Stmt::If(IfStmt { cond, then_block, else_block, span }))
    }

    fn parse_stmt_as_block(&mut self) -> Result<Block> {
        if self.at_punct(Punct::LBrace) {
            self.parse_block()
        } else {
            let stmt = self.parse_stmt()?;
            Ok(Block { stmts: vec![stmt] })
        }
    }

    fn parse_for(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        let unroll = self.pending_unroll.take();
        let pipeline = std::mem::take(&mut self.pending_pipeline);
        self.bump(); // for
        self.expect_punct(Punct::LParen)?;
        let init = if self.at_punct(Punct::Semi) {
            None
        } else if self.at_type_start() {
            Some(Box::new(self.parse_decl()?))
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect_punct(Punct::Semi)?;
        let cond = if self.at_punct(Punct::Semi) { None } else { Some(self.parse_expr()?) };
        self.expect_punct(Punct::Semi)?;
        let step = if self.at_punct(Punct::RParen) {
            None
        } else {
            Some(Box::new(self.parse_simple_stmt()?))
        };
        self.expect_punct(Punct::RParen)?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::For(ForStmt { init, cond, step, body, unroll, pipeline, span }))
    }

    fn parse_while(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        self.bump(); // while
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        let body = self.parse_stmt_as_block()?;
        Ok(Stmt::While(WhileStmt { cond, body, span }))
    }

    fn parse_do_while(&mut self) -> Result<Stmt> {
        let span = self.peek().span;
        self.bump(); // do
        let body = self.parse_stmt_as_block()?;
        if !self.eat_keyword(Keyword::While) {
            return Err(self.error("expected `while` after `do` body"));
        }
        self.expect_punct(Punct::LParen)?;
        let cond = self.parse_expr()?;
        self.expect_punct(Punct::RParen)?;
        self.expect_punct(Punct::Semi)?;
        Ok(Stmt::DoWhile(DoWhileStmt { body, cond, span }))
    }

    // ------------------------------------------------------------ expressions

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_binary(0)?;
        if self.eat_punct(Punct::Question) {
            let then_expr = self.parse_expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_expr = self.parse_ternary()?;
            let span = cond.span.merge(else_expr.span);
            Ok(Expr::new(
                ExprKind::Ternary {
                    cond: Box::new(cond),
                    then_expr: Box::new(then_expr),
                    else_expr: Box::new(else_expr),
                },
                span,
            ))
        } else {
            Ok(cond)
        }
    }

    fn binop_at(&self) -> Option<(BinOp, u8)> {
        let p = match self.peek_kind() {
            TokenKind::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::PipePipe => (BinOp::LogOr, 1),
            Punct::AmpAmp => (BinOp::LogAnd, 2),
            Punct::Pipe => (BinOp::Or, 3),
            Punct::Caret => (BinOp::Xor, 4),
            Punct::Amp => (BinOp::And, 5),
            Punct::EqEq => (BinOp::Eq, 6),
            Punct::Ne => (BinOp::Ne, 6),
            Punct::Lt => (BinOp::Lt, 7),
            Punct::Gt => (BinOp::Gt, 7),
            Punct::Le => (BinOp::Le, 7),
            Punct::Ge => (BinOp::Ge, 7),
            Punct::Shl => (BinOp::Shl, 8),
            Punct::Shr => (BinOp::Shr, 8),
            Punct::Plus => (BinOp::Add, 9),
            Punct::Minus => (BinOp::Sub, 9),
            Punct::Star => (BinOp::Mul, 10),
            Punct::Slash => (BinOp::Div, 10),
            Punct::Percent => (BinOp::Rem, 10),
            _ => return None,
        })
    }

    fn parse_binary(&mut self, min_prec: u8) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        while let Some((op, prec)) = self.binop_at() {
            if prec < min_prec {
                break;
            }
            self.bump();
            let rhs = self.parse_binary(prec + 1)?;
            let span = lhs.span.merge(rhs.span);
            lhs = Expr::new(ExprKind::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, span);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        if self.eat_punct(Punct::Minus) {
            let e = self.parse_unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(ExprKind::Unary { op: UnOp::Neg, expr: Box::new(e) }, sp));
        }
        if self.eat_punct(Punct::Plus) {
            return self.parse_unary();
        }
        if self.eat_punct(Punct::Bang) {
            let e = self.parse_unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(ExprKind::Unary { op: UnOp::Not, expr: Box::new(e) }, sp));
        }
        if self.eat_punct(Punct::Tilde) {
            let e = self.parse_unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(ExprKind::Unary { op: UnOp::BitNot, expr: Box::new(e) }, sp));
        }
        // Cast: `(` type `)` unary — only when the parenthesis encloses a
        // type. `(float4)(a, b, c, d)` is OpenCL's vector constructor.
        if self.at_punct(Punct::LParen) && self.cast_lookahead() {
            self.bump(); // (
            let (ty, _) = self.parse_qualified_type()?;
            self.expect_punct(Punct::RParen)?;
            if matches!(ty, Type::Vector(_, _)) && self.at_punct(Punct::LParen) {
                // Peek: a vector literal has a comma at depth 1; a plain
                // parenthesised operand does not.
                if self.vector_literal_lookahead() {
                    self.bump(); // (
                    let mut elems = Vec::new();
                    loop {
                        elems.push(self.parse_expr()?);
                        if !self.eat_punct(Punct::Comma) {
                            break;
                        }
                    }
                    let close = self.expect_punct(Punct::RParen)?;
                    let sp = span.merge(close);
                    return Ok(Expr::new(ExprKind::VectorLit { ty, elems }, sp));
                }
            }
            let e = self.parse_unary()?;
            let sp = span.merge(e.span);
            return Ok(Expr::new(ExprKind::Cast { ty, expr: Box::new(e) }, sp));
        }
        self.parse_postfix()
    }

    /// Checks whether the parenthesis at the cursor opens a multi-element
    /// vector literal (i.e. contains a comma at nesting depth 1).
    fn vector_literal_lookahead(&self) -> bool {
        let mut depth = 0usize;
        for i in 0..4096 {
            match self.peek_ahead(i) {
                TokenKind::Punct(Punct::LParen) | TokenKind::Punct(Punct::LBracket) => {
                    depth += 1;
                }
                TokenKind::Punct(Punct::RParen) | TokenKind::Punct(Punct::RBracket) => {
                    if depth <= 1 {
                        return false; // closed before any top-level comma
                    }
                    depth -= 1;
                }
                TokenKind::Punct(Punct::Comma) if depth == 1 => return true,
                TokenKind::Eof => return false,
                _ => {}
            }
        }
        false
    }

    /// Checks whether `( ... )` at the cursor is a cast rather than grouping.
    fn cast_lookahead(&self) -> bool {
        match self.peek_ahead(1) {
            TokenKind::Keyword(k) => matches!(
                k,
                Keyword::Bool
                    | Keyword::Char
                    | Keyword::Uchar
                    | Keyword::Short
                    | Keyword::Ushort
                    | Keyword::Int
                    | Keyword::Uint
                    | Keyword::Long
                    | Keyword::Ulong
                    | Keyword::Float
                    | Keyword::Double
                    | Keyword::SizeT
                    | Keyword::Unsigned
                    | Keyword::Signed
                    | Keyword::Global
                    | Keyword::Local
                    | Keyword::Constant
            ),
            TokenKind::Ident(name) => {
                Type::from_name(name).is_some()
                    && matches!(self.peek_ahead(2), TokenKind::Punct(Punct::RParen))
            }
            _ => false,
        }
    }

    fn parse_postfix(&mut self) -> Result<Expr> {
        let mut expr = self.parse_primary()?;
        loop {
            if self.eat_punct(Punct::LBracket) {
                let index = self.parse_expr()?;
                let close = self.expect_punct(Punct::RBracket)?;
                let span = expr.span.merge(close);
                expr = Expr::new(
                    ExprKind::Index { base: Box::new(expr), index: Box::new(index) },
                    span,
                );
            } else if self.at_punct(Punct::Dot) {
                self.bump();
                let (member, msp) = self.expect_ident()?;
                let lane = member_lane(&member).ok_or_else(|| FrontendError::Parse {
                    message: format!("unknown vector member `.{member}`"),
                    span: msp,
                })?;
                let span = expr.span.merge(msp);
                expr = Expr::new(ExprKind::Member { base: Box::new(expr), lane }, span);
            } else {
                break;
            }
        }
        Ok(expr)
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let span = self.peek().span;
        match self.peek_kind().clone() {
            TokenKind::IntLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::IntLit(v), span))
            }
            TokenKind::FloatLit(v) => {
                self.bump();
                Ok(Expr::new(ExprKind::FloatLit(v), span))
            }
            TokenKind::Punct(Punct::LParen) => {
                self.bump();
                let e = self.parse_expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    let close = self.expect_punct(Punct::RParen)?;
                    Ok(Expr::new(ExprKind::Call { name, args }, span.merge(close)))
                } else {
                    Ok(Expr::new(ExprKind::Var(name), span))
                }
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let (ty, _) = self.parse_qualified_type()?;
                let close = self.expect_punct(Punct::RParen)?;
                let bytes = ty.bytes().unwrap_or(0) as i64;
                Ok(Expr::new(ExprKind::IntLit(bytes), span.merge(close)))
            }
            other => Err(self.error(format!("expected expression, found {other}"))),
        }
    }
}

/// Parses `unroll` / `unroll N` pragma text.
fn parse_unroll_pragma(text: &str) -> Option<u32> {
    let mut it = text.split_whitespace();
    if it.next()? != "unroll" {
        return None;
    }
    match it.next() {
        Some(n) => n.parse().ok(),
        None => Some(0), // full unroll
    }
}

/// Recognises `#pragma pipeline` (Vivado-HLS style loop pipelining).
fn parse_pipeline_pragma(text: &str) -> bool {
    matches!(text.split_whitespace().next(), Some("pipeline" | "PIPELINE" | "HLS"))
        && !text.contains("unroll")
}

#[cfg(test)]
mod tests {
    use super::*;

    const ADD: &str = "
        __kernel __attribute__((reqd_work_group_size(64,1,1)))
        void add(__global int* a, __global int* b, int n) {
            int i = get_global_id(0);
            if (i < n) b[i] = a[i] + 1;
        }";

    #[test]
    fn parses_add_kernel() {
        let p = parse(ADD).expect("parse");
        assert_eq!(p.kernels.len(), 1);
        let k = &p.kernels[0];
        assert_eq!(k.name, "add");
        assert_eq!(k.params.len(), 3);
        assert_eq!(k.reqd_work_group_size(), Some((64, 1, 1)));
        assert!(k.params[0].ty.is_pointer());
        assert_eq!(k.body.stmts.len(), 2);
    }

    #[test]
    fn parses_for_with_unroll_pragma() {
        let p = parse(
            "__kernel void k(__global float* a) {
                float s = 0.0f;
                #pragma unroll 4
                for (int i = 0; i < 16; i++) { s += a[i]; }
                a[0] = s;
            }",
        )
        .expect("parse");
        let body = &p.kernels[0].body;
        let Stmt::For(f) = &body.stmts[1] else { panic!("expected for, got {:?}", body.stmts[1]) };
        assert_eq!(f.unroll, Some(4));
        assert!(f.init.is_some());
        assert!(f.cond.is_some());
        assert!(f.step.is_some());
    }

    #[test]
    fn parses_pipeline_pragma() {
        let p = parse(
            "__kernel void k(__global float* a) {
                float s = 0.0f;
                #pragma pipeline
                for (int i = 0; i < 16; i++) { s += a[i]; }
                a[0] = s;
            }",
        )
        .expect("parse");
        let Stmt::For(f) = &p.kernels[0].body.stmts[1] else { panic!() };
        assert!(f.pipeline);
        assert_eq!(f.unroll, None);
    }

    #[test]
    fn parses_local_array_decl() {
        let p = parse(
            "__kernel void k(__global float* a) {
                __local float tile[16][16];
                tile[0][0] = a[0];
            }",
        )
        .expect("parse");
        let Stmt::Decl(d) = &p.kernels[0].body.stmts[0] else { panic!() };
        assert_eq!(d.space, AddressSpace::Local);
        assert_eq!(d.ty, Type::Array(Box::new(Type::Array(Box::new(Type::float()), 16)), 16));
    }

    #[test]
    fn parses_compound_assign_and_increments() {
        let p = parse(
            "__kernel void k(__global int* a) {
                int i = 0;
                i += 2; i *= 3; i++; ++i; i--;
                a[0] = i;
            }",
        )
        .expect("parse");
        let n_assign =
            p.kernels[0].body.stmts.iter().filter(|s| matches!(s, Stmt::Assign(_))).count();
        assert_eq!(n_assign, 6);
    }

    #[test]
    fn parses_ternary_and_casts() {
        let p = parse(
            "__kernel void k(__global float* a, int n) {
                int i = get_global_id(0);
                a[i] = (i < n) ? (float)i : 0.0f;
            }",
        )
        .expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[1] else { panic!() };
        assert!(matches!(asn.value.kind, ExprKind::Ternary { .. }));
    }

    #[test]
    fn parses_vector_members() {
        let p = parse(
            "__kernel void k(__global float4* a) {
                float4 v = a[0];
                v.x = v.y + v.s2;
                a[0] = v;
            }",
        )
        .expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[1] else { panic!() };
        assert!(matches!(asn.target, LValue::Member { lane: 0, .. }));
    }

    #[test]
    fn parses_vector_literal_constructor() {
        let p = parse(
            "__kernel void k(__global float4* a, float s) {
                a[0] = (float4)(1.0f, 2.0f, s, 4.0f);
                a[1] = (float4)(0.5f);
            }",
        )
        .expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[0] else { panic!() };
        let ExprKind::VectorLit { elems, .. } = &asn.value.kind else {
            panic!("expected vector literal, got {:?}", asn.value.kind)
        };
        assert_eq!(elems.len(), 4);
        // The single-element form has no top-level comma, so it parses as
        // a (splatting) cast — semantically identical.
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[1] else { panic!() };
        assert!(matches!(asn.value.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn plain_cast_of_parenthesised_operand_still_works() {
        let p = parse("__kernel void k(__global float* a, int n) { a[0] = (float)(n + 1); }")
            .expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[0] else { panic!() };
        assert!(matches!(asn.value.kind, ExprKind::Cast { .. }));
    }

    #[test]
    fn parses_while_and_do_while() {
        let p = parse(
            "__kernel void k(__global int* a) {
                int i = 0;
                while (i < 10) { i++; }
                do { i--; } while (i > 0);
                a[0] = i;
            }",
        )
        .expect("parse");
        assert!(matches!(p.kernels[0].body.stmts[1], Stmt::While(_)));
        assert!(matches!(p.kernels[0].body.stmts[2], Stmt::DoWhile(_)));
    }

    #[test]
    fn rejects_non_void_kernel() {
        assert!(parse("__kernel int k() { return 0; }").is_err());
    }

    #[test]
    fn rejects_unassignable_target() {
        assert!(parse("__kernel void k(__global int* a) { 1 = 2; }").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("__kernel void k( {").is_err());
        assert!(parse("not a kernel").is_err());
    }

    #[test]
    fn precedence_mul_binds_tighter_than_add() {
        let p = parse("__kernel void k(__global int* a) { a[0] = 1 + 2 * 3; }").expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[0] else { panic!() };
        let ExprKind::Binary { op: BinOp::Add, rhs, .. } = &asn.value.kind else {
            panic!("expected top-level add")
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn sizeof_folds_to_constant() {
        let p =
            parse("__kernel void k(__global int* a) { a[0] = sizeof(float4); }").expect("parse");
        let Stmt::Assign(asn) = &p.kernels[0].body.stmts[0] else { panic!() };
        assert_eq!(asn.value.kind, ExprKind::IntLit(16));
    }

    #[test]
    fn multi_declarator_statement_splits() {
        let p = parse("__kernel void k(__global int* a) { int x = 1, y = 2; a[0] = x + y; }")
            .expect("parse");
        let Stmt::Block(b) = &p.kernels[0].body.stmts[0] else { panic!() };
        assert_eq!(b.stmts.len(), 2);
    }
}
