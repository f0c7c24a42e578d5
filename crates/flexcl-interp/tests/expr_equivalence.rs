//! Property test: for randomly generated integer expression trees, the
//! whole pipeline (lexer → parser → sema → lowering → interpreter) must
//! agree with a direct Rust evaluation under C `int` (wrapping 32-bit)
//! semantics.
//!
//! This is the strongest cheap correctness property the compiler substrate
//! has: any bug in literal handling, operator precedence printing/parsing,
//! constant typing, IR lowering of operators, or the interpreter's
//! arithmetic shows up as a mismatch.

use flexcl_interp::{run, KernelArg, NdRange, RunOptions};
use proptest::prelude::*;

/// An integer expression tree mirrored in Rust and printed as OpenCL C.
#[derive(Debug, Clone)]
enum E {
    Lit(i32),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    Mul(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Shl(Box<E>, u8),
    Shr(Box<E>, u8),
    Neg(Box<E>),
    BitNot(Box<E>),
    Lt(Box<E>, Box<E>),
    Ternary(Box<E>, Box<E>, Box<E>),
}

impl E {
    fn eval(&self) -> i32 {
        match self {
            E::Lit(v) => *v,
            E::Add(a, b) => a.eval().wrapping_add(b.eval()),
            E::Sub(a, b) => a.eval().wrapping_sub(b.eval()),
            E::Mul(a, b) => a.eval().wrapping_mul(b.eval()),
            E::And(a, b) => a.eval() & b.eval(),
            E::Or(a, b) => a.eval() | b.eval(),
            E::Xor(a, b) => a.eval() ^ b.eval(),
            E::Shl(a, s) => a.eval().wrapping_shl(u32::from(*s)),
            E::Shr(a, s) => a.eval().wrapping_shr(u32::from(*s)),
            E::Neg(a) => a.eval().wrapping_neg(),
            E::BitNot(a) => !a.eval(),
            E::Lt(a, b) => i32::from(a.eval() < b.eval()),
            E::Ternary(c, t, e) => {
                if c.eval() != 0 {
                    t.eval()
                } else {
                    e.eval()
                }
            }
        }
    }

    fn print(&self) -> String {
        match self {
            // Negative literals print as unary-minus applications, which
            // exercises the parser's prefix handling.
            E::Lit(v) => {
                if *v < 0 {
                    format!("(-{})", i64::from(*v).unsigned_abs())
                } else {
                    format!("{v}")
                }
            }
            E::Add(a, b) => format!("({} + {})", a.print(), b.print()),
            E::Sub(a, b) => format!("({} - {})", a.print(), b.print()),
            E::Mul(a, b) => format!("({} * {})", a.print(), b.print()),
            E::And(a, b) => format!("({} & {})", a.print(), b.print()),
            E::Or(a, b) => format!("({} | {})", a.print(), b.print()),
            E::Xor(a, b) => format!("({} ^ {})", a.print(), b.print()),
            E::Shl(a, s) => format!("({} << {s})", a.print()),
            E::Shr(a, s) => format!("({} >> {s})", a.print()),
            E::Neg(a) => format!("(-{})", a.print()),
            E::BitNot(a) => format!("(~{})", a.print()),
            E::Lt(a, b) => format!("({} < {})", a.print(), b.print()),
            E::Ternary(c, t, e) => {
                format!("(({}) != 0 ? {} : {})", c.print(), t.print(), e.print())
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = any::<i32>().prop_map(E::Lit);
    leaf.prop_recursive(5, 48, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(a.into(), b.into())),
            (inner.clone(), 0u8..31).prop_map(|(a, s)| E::Shl(a.into(), s)),
            (inner.clone(), 0u8..31).prop_map(|(a, s)| E::Shr(a.into(), s)),
            inner.clone().prop_map(|a| E::Neg(a.into())),
            inner.clone().prop_map(|a| E::BitNot(a.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Lt(a.into(), b.into())),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| E::Ternary(
                c.into(),
                t.into(),
                e.into()
            )),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pipeline_matches_rust_semantics(e in arb_expr()) {
        let src = format!(
            "__kernel void k(__global int* out) {{ out[0] = {}; }}",
            e.print()
        );
        let program = flexcl_frontend::parse_and_check(&src)
            .unwrap_or_else(|err| panic!("frontend rejected `{src}`: {err}"));
        let func = flexcl_ir::lower_kernel(&program.kernels[0]).expect("lowering");
        let mut args = vec![KernelArg::IntBuf(vec![0])];
        run(&func, &mut args, NdRange::new_1d(1, 1), RunOptions::default()).expect("run");
        let KernelArg::IntBuf(out) = &args[0] else { unreachable!() };
        let expected = i64::from(e.eval());
        prop_assert_eq!(out[0], expected, "src: {}", src);
    }

    #[test]
    fn optimizer_agrees_with_interpreter(e in arb_expr()) {
        // The constant folder must compute exactly the interpreter's value.
        let src = format!(
            "__kernel void k(__global int* out) {{ out[0] = {}; }}",
            e.print()
        );
        let program = flexcl_frontend::parse_and_check(&src).expect("frontend");
        let mut func = flexcl_ir::lower_kernel(&program.kernels[0]).expect("lowering");
        flexcl_ir::optimize(&mut func);
        let mut args = vec![KernelArg::IntBuf(vec![0])];
        run(&func, &mut args, NdRange::new_1d(1, 1), RunOptions::default()).expect("run");
        let KernelArg::IntBuf(out) = &args[0] else { unreachable!() };
        prop_assert_eq!(out[0], i64::from(e.eval()), "src: {}", src);
    }

    #[test]
    fn lexer_never_panics(s in "\\PC*") {
        let _ = flexcl_frontend::lexer::Lexer::new(&s).tokenize();
    }

    #[test]
    fn parser_never_panics(s in "[a-zA-Z0-9_{}()\\[\\];,+\\-*/<>=!&|^~?: .\\n]*") {
        let _ = flexcl_frontend::parse(&s);
    }
}
