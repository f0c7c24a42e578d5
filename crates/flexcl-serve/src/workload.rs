//! Request compilation: OpenCL source → IR + synthesized workload.
//!
//! The server receives raw kernel source, so argument buffers must be
//! synthesized the same way the `flexcl` CLI does it: every pointer
//! parameter gets a buffer of small positive values, scalars get
//! caller-chosen defaults. Keeping this in one place means the offline
//! CLI, the server, and the bit-identicality tests all compile a request
//! to exactly the same [`Workload`] — the precondition for comparing a
//! served sweep against a direct [`flexcl_core::explore_space_cached`] call.

use flexcl_core::{FlexclError, Workload};
use flexcl_frontend::types::Type;
use flexcl_interp::KernelArg;
use flexcl_ir::Function;

/// Hard ceiling on synthesized buffer length (elements per pointer
/// parameter). A hostile `global` or `buf_elems` cannot make one request
/// allocate unbounded memory; at 4 Mi f32 elements a buffer caps at
/// 16 MiB per vector lane.
pub const MAX_BUF_ELEMS: u64 = 1 << 22;

/// A compiled request: lowered kernel plus synthesized workload.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The lowered kernel body.
    pub func: Function,
    /// Synthesized arguments + NDRange.
    pub workload: Workload,
}

/// Knobs for workload synthesis, all optional on the wire.
#[derive(Debug, Clone, Copy)]
pub struct SynthesisSpec {
    /// Elements per synthesized pointer buffer. Defaults to the global
    /// work size, clamped to [`MAX_BUF_ELEMS`].
    pub buf_elems: Option<u64>,
    /// Value for integer scalar parameters.
    pub scalar_int: i64,
    /// Value for float scalar parameters.
    pub scalar_float: f64,
}

impl Default for SynthesisSpec {
    fn default() -> Self {
        SynthesisSpec { buf_elems: None, scalar_int: 16, scalar_float: 1.0 }
    }
}

/// Parses `src`, lowers the selected kernel, and synthesizes a workload
/// for `global`.
///
/// With `kernel == None` the source must define exactly one kernel.
///
/// # Errors
///
/// [`FlexclError::Frontend`] for parse/check/lowering failures and
/// [`FlexclError::NoSuchKernel`] when the kernel name does not resolve —
/// the same typed kinds the sweep diagnostics use, so the server can
/// classify rejections without string matching.
pub fn prepare(
    src: &str,
    kernel: Option<&str>,
    global: (u64, u64),
    spec: SynthesisSpec,
) -> Result<Prepared, FlexclError> {
    let program = flexcl_frontend::parse_and_check(src)?;
    let k = match kernel {
        Some(name) => program
            .kernel(name)
            .ok_or_else(|| FlexclError::NoSuchKernel { name: name.to_string() })?,
        None if program.kernels.len() == 1 => &program.kernels[0],
        None => {
            let names: Vec<&str> = program.kernels.iter().map(|k| k.name.as_str()).collect();
            return Err(FlexclError::NoSuchKernel {
                name: format!("(unspecified; file defines: {})", names.join(", ")),
            });
        }
    };
    let func = flexcl_ir::lower_kernel(k)?;

    let total = global.0.saturating_mul(global.1).max(1);
    let buf_elems = spec.buf_elems.unwrap_or(total).clamp(1, MAX_BUF_ELEMS);
    let args: Vec<KernelArg> = func
        .params
        .iter()
        .map(|p| match &p.ty {
            Type::Pointer(elem, _) => {
                let lanes = u64::from(elem.lanes());
                if elem.is_float() {
                    KernelArg::FloatBuf(vec![1.0; (buf_elems * lanes) as usize])
                } else {
                    KernelArg::IntBuf(vec![1; (buf_elems * lanes) as usize])
                }
            }
            t if t.is_float() => KernelArg::Float(spec.scalar_float),
            _ => KernelArg::Int(spec.scalar_int),
        })
        .collect();
    Ok(Prepared { func, workload: Workload { args, global } })
}

#[cfg(test)]
mod tests {
    use super::*;

    const VADD: &str = "__kernel void vadd(__global float* a, __global float* b,
                                           __global float* c, int n) {
        int i = get_global_id(0);
        if (i < n) c[i] = a[i] + b[i];
    }";

    #[test]
    fn synthesizes_buffers_and_scalars() {
        let p = prepare(VADD, None, (1024, 1), SynthesisSpec::default()).expect("prepare");
        assert_eq!(p.workload.args.len(), 4);
        assert!(matches!(&p.workload.args[0], KernelArg::FloatBuf(b) if b.len() == 1024));
        assert!(matches!(p.workload.args[3], KernelArg::Int(16)));
        assert_eq!(p.workload.global, (1024, 1));
    }

    #[test]
    fn caps_buffer_length() {
        let spec = SynthesisSpec { buf_elems: Some(u64::MAX), ..SynthesisSpec::default() };
        let p = prepare(VADD, None, (64, 1), spec).expect("prepare");
        assert!(
            matches!(&p.workload.args[0], KernelArg::FloatBuf(b) if b.len() as u64 == MAX_BUF_ELEMS)
        );
    }

    #[test]
    fn typed_errors_for_bad_source_and_bad_kernel() {
        use flexcl_core::ErrorKind;
        let e = prepare("not opencl", None, (64, 1), SynthesisSpec::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Frontend);
        let e = prepare(VADD, Some("nope"), (64, 1), SynthesisSpec::default()).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::NoSuchKernel);
    }
}
