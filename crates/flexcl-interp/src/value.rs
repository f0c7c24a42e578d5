//! Kernel arguments and integer truncation for the IR interpreter.

use flexcl_frontend::types::Scalar;

/// Truncates/wraps an i64 to the width and signedness of `s`.
pub fn truncate_int(v: i64, s: Scalar) -> i64 {
    match s {
        Scalar::Bool => i64::from(v != 0),
        Scalar::I8 => v as i8 as i64,
        Scalar::U8 => v as u8 as i64,
        Scalar::I16 => v as i16 as i64,
        Scalar::U16 => v as u16 as i64,
        Scalar::I32 => v as i32 as i64,
        Scalar::U32 => v as u32 as i64,
        Scalar::I64 | Scalar::U64 => v,
        Scalar::F32 | Scalar::F64 => v,
    }
}

/// A kernel argument supplied by the host.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelArg {
    /// A scalar integer argument.
    Int(i64),
    /// A scalar float argument.
    Float(f64),
    /// A `__global`/`__constant` integer buffer (element-typed).
    IntBuf(Vec<i64>),
    /// A `__global`/`__constant` float buffer (element-typed).
    FloatBuf(Vec<f64>),
}

impl KernelArg {
    /// Length in elements for buffer arguments.
    pub fn len(&self) -> usize {
        match self {
            KernelArg::IntBuf(v) => v.len(),
            KernelArg::FloatBuf(v) => v.len(),
            _ => 0,
        }
    }

    /// Whether this is an empty buffer (scalars count as empty).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
