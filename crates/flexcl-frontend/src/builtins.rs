//! OpenCL builtin functions recognised by the frontend.
//!
//! Builtins fall into four groups: work-item geometry queries, barriers,
//! math functions, and explicit conversions (`convert_<type>`). The IR
//! lowering maps each group onto dedicated IR opcodes; the FPGA latency
//! database is keyed by the same [`MathOp`] values.

use crate::error::{FrontendError, Result};
use crate::token::Span;
use crate::types::{Scalar, Type};
use std::fmt;

/// Work-item geometry query kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkItemFn {
    /// `get_global_id(dim)`.
    GlobalId,
    /// `get_local_id(dim)`.
    LocalId,
    /// `get_group_id(dim)`.
    GroupId,
    /// `get_global_size(dim)`.
    GlobalSize,
    /// `get_local_size(dim)`.
    LocalSize,
    /// `get_num_groups(dim)`.
    NumGroups,
    /// `get_work_dim()`.
    WorkDim,
}

impl fmt::Display for WorkItemFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkItemFn::GlobalId => "get_global_id",
            WorkItemFn::LocalId => "get_local_id",
            WorkItemFn::GroupId => "get_group_id",
            WorkItemFn::GlobalSize => "get_global_size",
            WorkItemFn::LocalSize => "get_local_size",
            WorkItemFn::NumGroups => "get_num_groups",
            WorkItemFn::WorkDim => "get_work_dim",
        };
        f.write_str(s)
    }
}

/// Math builtins, named after their OpenCL functions. Arity is given by
/// [`MathOp::arity`].
#[allow(missing_docs)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MathOp {
    Sqrt,
    Rsqrt,
    Exp,
    Exp2,
    Log,
    Log2,
    Sin,
    Cos,
    Tan,
    Fabs,
    Floor,
    Ceil,
    Round,
    Trunc,
    Pow,
    Fmod,
    Atan2,
    Hypot,
    Fmin,
    Fmax,
    Mad,
    Fma,
    Clamp,
    Mix,
    Min,
    Max,
    Abs,
    Mul24,
    Mad24,
    Select,
}

impl MathOp {
    /// Number of arguments the builtin takes.
    pub fn arity(self) -> usize {
        use MathOp::*;
        match self {
            Sqrt | Rsqrt | Exp | Exp2 | Log | Log2 | Sin | Cos | Tan | Fabs | Floor | Ceil
            | Round | Trunc | Abs => 1,
            Pow | Fmod | Atan2 | Hypot | Fmin | Fmax | Min | Max | Mul24 => 2,
            Mad | Fma | Clamp | Mix | Mad24 | Select => 3,
        }
    }

    /// Whether the builtin only accepts floating-point arguments.
    pub fn float_only(self) -> bool {
        use MathOp::*;
        matches!(
            self,
            Sqrt | Rsqrt
                | Exp
                | Exp2
                | Log
                | Log2
                | Sin
                | Cos
                | Tan
                | Fabs
                | Floor
                | Ceil
                | Round
                | Trunc
                | Pow
                | Fmod
                | Atan2
                | Hypot
                | Fmin
                | Fmax
                | Mad
                | Fma
                | Clamp
                | Mix
        )
    }

    /// Whether the builtin only accepts integer arguments.
    pub fn int_only(self) -> bool {
        matches!(self, MathOp::Mul24 | MathOp::Mad24)
    }
}

impl fmt::Display for MathOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MathOp::Sqrt => "sqrt",
            MathOp::Rsqrt => "rsqrt",
            MathOp::Exp => "exp",
            MathOp::Exp2 => "exp2",
            MathOp::Log => "log",
            MathOp::Log2 => "log2",
            MathOp::Sin => "sin",
            MathOp::Cos => "cos",
            MathOp::Tan => "tan",
            MathOp::Fabs => "fabs",
            MathOp::Floor => "floor",
            MathOp::Ceil => "ceil",
            MathOp::Round => "round",
            MathOp::Trunc => "trunc",
            MathOp::Pow => "pow",
            MathOp::Fmod => "fmod",
            MathOp::Atan2 => "atan2",
            MathOp::Hypot => "hypot",
            MathOp::Fmin => "fmin",
            MathOp::Fmax => "fmax",
            MathOp::Mad => "mad",
            MathOp::Fma => "fma",
            MathOp::Clamp => "clamp",
            MathOp::Mix => "mix",
            MathOp::Min => "min",
            MathOp::Max => "max",
            MathOp::Abs => "abs",
            MathOp::Mul24 => "mul24",
            MathOp::Mad24 => "mad24",
            MathOp::Select => "select",
        };
        f.write_str(s)
    }
}

/// A resolved builtin call.
#[derive(Debug, Clone, PartialEq)]
pub enum Builtin {
    /// A work-item geometry query.
    WorkItem(WorkItemFn),
    /// `barrier(flags)` — a work-group barrier.
    Barrier,
    /// `mem_fence(flags)` — treated like a barrier for modeling purposes.
    MemFence,
    /// A math function.
    Math(MathOp),
    /// `convert_<type>(x)` explicit conversion.
    Convert(Type),
}

/// Resolves a callee name to a builtin, if it is one.
///
/// `native_`-prefixed math functions resolve to the same [`MathOp`] as their
/// precise counterparts (the latency database distinguishes them only through
/// the platform profile, matching how FlexCL averages IP implementations).
pub fn resolve(name: &str) -> Option<Builtin> {
    use MathOp::*;
    let wi = match name {
        "get_global_id" => Some(WorkItemFn::GlobalId),
        "get_local_id" => Some(WorkItemFn::LocalId),
        "get_group_id" => Some(WorkItemFn::GroupId),
        "get_global_size" => Some(WorkItemFn::GlobalSize),
        "get_local_size" => Some(WorkItemFn::LocalSize),
        "get_num_groups" => Some(WorkItemFn::NumGroups),
        "get_work_dim" => Some(WorkItemFn::WorkDim),
        _ => None,
    };
    if let Some(wi) = wi {
        return Some(Builtin::WorkItem(wi));
    }
    if name == "barrier" {
        return Some(Builtin::Barrier);
    }
    if name == "mem_fence" || name == "read_mem_fence" || name == "write_mem_fence" {
        return Some(Builtin::MemFence);
    }
    if let Some(rest) = name.strip_prefix("convert_") {
        let ty = match rest {
            "char" => Type::Scalar(Scalar::I8),
            "uchar" => Type::Scalar(Scalar::U8),
            "short" => Type::Scalar(Scalar::I16),
            "ushort" => Type::Scalar(Scalar::U16),
            "int" => Type::Scalar(Scalar::I32),
            "uint" => Type::Scalar(Scalar::U32),
            "long" => Type::Scalar(Scalar::I64),
            "ulong" => Type::Scalar(Scalar::U64),
            "float" => Type::Scalar(Scalar::F32),
            "double" => Type::Scalar(Scalar::F64),
            other => Type::from_name(other)?,
        };
        return Some(Builtin::Convert(ty));
    }
    let base = name.strip_prefix("native_").unwrap_or(name);
    let m = match base {
        "sqrt" => Sqrt,
        "rsqrt" => Rsqrt,
        "exp" => Exp,
        "exp2" => Exp2,
        "log" => Log,
        "log2" => Log2,
        "sin" => Sin,
        "cos" => Cos,
        "tan" => Tan,
        "fabs" => Fabs,
        "floor" => Floor,
        "ceil" => Ceil,
        "round" => Round,
        "trunc" => Trunc,
        "pow" | "powr" => Pow,
        "fmod" => Fmod,
        "atan2" => Atan2,
        "hypot" => Hypot,
        "fmin" => Fmin,
        "fmax" => Fmax,
        "mad" => Mad,
        "fma" => Fma,
        "clamp" => Clamp,
        "mix" => Mix,
        "min" => Min,
        "max" => Max,
        "abs" => Abs,
        "mul24" => Mul24,
        "mad24" => Mad24,
        "select" => Select,
        _ => return None,
    };
    Some(Builtin::Math(m))
}

/// Type-checks a builtin call, returning the result type.
///
/// # Errors
///
/// Returns [`FrontendError::Sema`] on arity or argument-type mismatches.
pub fn check(builtin: &Builtin, args: &[Type], span: Span) -> Result<Type> {
    let err = |msg: String| FrontendError::Sema { message: msg, span };
    match builtin {
        Builtin::WorkItem(WorkItemFn::WorkDim) => {
            if !args.is_empty() {
                return Err(err("get_work_dim takes no arguments".into()));
            }
            Ok(Type::Scalar(Scalar::U32))
        }
        Builtin::WorkItem(wi) => {
            if args.len() != 1 {
                return Err(err(format!("{wi} takes exactly one dimension argument")));
            }
            if !args[0].is_int() {
                return Err(err(format!("{wi} dimension must be an integer")));
            }
            Ok(Type::Scalar(Scalar::U32))
        }
        Builtin::Barrier | Builtin::MemFence => {
            if args.len() > 1 {
                return Err(err("barrier takes at most one flags argument".into()));
            }
            Ok(Type::Void)
        }
        Builtin::Convert(ty) => {
            if args.len() != 1 {
                return Err(err("conversion takes exactly one argument".into()));
            }
            if args[0].lanes() != ty.lanes() {
                return Err(err(format!(
                    "cannot convert {} to {} (lane count differs)",
                    args[0], ty
                )));
            }
            Ok(ty.clone())
        }
        Builtin::Math(m) => {
            if args.len() != m.arity() {
                return Err(err(format!(
                    "{m} takes {} argument(s), got {}",
                    m.arity(),
                    args.len()
                )));
            }
            // All arguments must be scalar or same-width vectors.
            let lanes = args[0].lanes();
            for a in args {
                if a.element_scalar().is_none() {
                    return Err(err(format!("{m} arguments must be scalar or vector, got {a}")));
                }
                if a.lanes() != lanes && a.lanes() != 1 {
                    return Err(err(format!("{m} argument lane counts disagree")));
                }
            }
            let unified = args
                .iter()
                .filter_map(Type::element_scalar)
                .reduce(Scalar::unify)
                .expect("at least one argument");
            let result_scalar = if m.float_only() && !unified.is_float() {
                Scalar::F32
            } else if m.int_only() && unified.is_float() {
                return Err(err(format!("{m} requires integer arguments")));
            } else {
                unified
            };
            // `select` returns the value type of its first two args.
            Ok(if lanes > 1 {
                Type::Vector(result_scalar, lanes as u8)
            } else {
                Type::Scalar(result_scalar)
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolves_work_item_fns() {
        assert_eq!(resolve("get_global_id"), Some(Builtin::WorkItem(WorkItemFn::GlobalId)));
        assert_eq!(resolve("get_num_groups"), Some(Builtin::WorkItem(WorkItemFn::NumGroups)));
        assert_eq!(resolve("not_a_builtin"), None);
    }

    #[test]
    fn resolves_native_math_to_same_op() {
        assert_eq!(resolve("native_exp"), Some(Builtin::Math(MathOp::Exp)));
        assert_eq!(resolve("exp"), Some(Builtin::Math(MathOp::Exp)));
    }

    #[test]
    fn resolves_conversions() {
        assert_eq!(resolve("convert_int"), Some(Builtin::Convert(Type::int())));
        assert_eq!(resolve("convert_float4"), Some(Builtin::Convert(Type::Vector(Scalar::F32, 4))));
    }

    #[test]
    fn checks_arity() {
        let b = resolve("sqrt").expect("builtin");
        assert!(check(&b, &[Type::float()], Span::default()).is_ok());
        assert!(check(&b, &[Type::float(), Type::float()], Span::default()).is_err());
    }

    #[test]
    fn float_only_promotes_ints() {
        let b = resolve("sqrt").expect("builtin");
        let ty = check(&b, &[Type::int()], Span::default()).expect("check");
        assert_eq!(ty, Type::float());
    }

    #[test]
    fn work_item_fns_return_u32() {
        let b = resolve("get_global_id").expect("builtin");
        let ty = check(&b, &[Type::int()], Span::default()).expect("check");
        assert_eq!(ty, Type::Scalar(Scalar::U32));
    }

    #[test]
    fn mad_is_ternary() {
        assert_eq!(MathOp::Mad.arity(), 3);
        assert_eq!(MathOp::Sqrt.arity(), 1);
        assert_eq!(MathOp::Pow.arity(), 2);
    }

    #[test]
    fn vector_math_keeps_lanes() {
        let b = resolve("fmax").expect("builtin");
        let v4 = Type::Vector(Scalar::F32, 4);
        let ty = check(&b, &[v4.clone(), v4.clone()], Span::default()).expect("check");
        assert_eq!(ty, v4);
    }
}
