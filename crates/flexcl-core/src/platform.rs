//! FPGA platform profiles: operation latencies, DSP usage and resource
//! capacities.
//!
//! FlexCL associates each IR operation with the latency of the IP core that
//! implements it, "obtained through micro-benchmark profiling" (§3.2). On
//! real hardware SDAccel may pick among several implementations; FlexCL
//! uses the average — which the paper names as one of its two residual
//! error sources. Our tables carry the published Vivado-HLS-class latencies
//! at 200 MHz for a Virtex-7 (the ADM-PCIE-7V3 board of the evaluation) and
//! an UltraScale KU060 profile for the robustness experiment.

use flexcl_dram::DramConfig;
use flexcl_frontend::ast::{BinOp, UnOp};
use flexcl_frontend::builtins::MathOp;
use flexcl_frontend::types::Type;
use flexcl_ir::Op;
use flexcl_sched::ResourceClass;

/// A complete platform description.
#[derive(Debug, Clone, PartialEq)]
pub struct Platform {
    /// Human-readable name.
    pub name: String,
    /// Kernel clock in MHz (cycles → seconds conversions).
    pub frequency_mhz: f64,
    /// Total DSP slices on the device.
    pub total_dsps: u32,
    /// Total on-chip BRAM capacity in bytes.
    pub total_bram_bytes: u64,
    /// Read ports per local-memory array bank (BRAM is true dual ported;
    /// one port is reserved for writes in the common 1W-many-R usage).
    pub local_read_ports_per_bank: u32,
    /// Write ports per local-memory array bank.
    pub local_write_ports_per_bank: u32,
    /// Global memory access unit, in bits (SDAccel uses 512-bit AXI).
    pub mem_access_unit_bits: u32,
    /// Concurrent outstanding global-memory requests per CU.
    pub global_ports: u32,
    /// Independent DDR channels on the board; SDAccel assigns CUs to
    /// channels round-robin, so CUs only contend when they outnumber
    /// channels (the ADM-PCIE-7V3 carries two SODIMMs).
    pub dram_channels: u32,
    /// Work-group scheduling overhead `ΔL_comp^schedule`, in cycles.
    pub schedule_overhead: u32,
    /// Fixed kernel-launch overhead (host command path), in cycles.
    pub launch_overhead: u32,
    /// Fraction of the dispatch overhead hidden behind a running group:
    /// the scheduler prepares the next work-group while the current one
    /// drains, so warm dispatches cost `(1 − overlap) · ΔL`.
    pub dispatch_overlap: f64,
    /// Latency scale relative to the Virtex-7 reference tables (UltraScale
    /// fabric closes timing faster, so its effective latencies are lower).
    pub latency_scale: f64,
    /// Off-chip DRAM configuration.
    pub dram: DramConfig,
}

impl Platform {
    /// The paper's evaluation platform: ADM-PCIE-7V3 with a Virtex-7
    /// XC7VX690T and 16 GB DDR3 (8 banks, 1 KB row buffers), 200 MHz kernel
    /// clock.
    pub fn virtex7_adm7v3() -> Platform {
        Platform {
            name: "ADM-PCIE-7V3 (Virtex-7 XC7VX690T)".into(),
            frequency_mhz: 200.0,
            total_dsps: 3600,
            total_bram_bytes: 1470 * 36 * 1024 / 8, // 1470 BRAM36 blocks
            local_read_ports_per_bank: 2,
            local_write_ports_per_bank: 1,
            mem_access_unit_bits: 512,
            global_ports: 4,
            dram_channels: 2,
            schedule_overhead: 64,
            launch_overhead: 500,
            dispatch_overlap: 0.8,
            latency_scale: 1.0,
            dram: DramConfig::adm_pcie_7v3(),
        }
    }

    /// The robustness platform of §4.2: NAS-120A board with an UltraScale
    /// KU060.
    pub fn ku060_nas120a() -> Platform {
        Platform {
            name: "NAS-120A (Kintex UltraScale KU060)".into(),
            frequency_mhz: 200.0,
            total_dsps: 2760,
            total_bram_bytes: 1080 * 36 * 1024 / 8,
            local_read_ports_per_bank: 2,
            local_write_ports_per_bank: 1,
            mem_access_unit_bits: 512,
            global_ports: 4,
            dram_channels: 2,
            schedule_overhead: 48,
            launch_overhead: 400,
            dispatch_overlap: 0.8,
            latency_scale: 0.8,
            dram: DramConfig::nas_120a_ku060(),
        }
    }

    /// Latency in cycles of one IR operation on this platform.
    pub fn op_latency(&self, op: &Op, ty: &Type) -> u32 {
        let base = f64::from(reference_latency(op, ty));
        (base * self.latency_scale).round().max(0.0) as u32
    }

    /// DSP slices consumed by one instance of the operation.
    pub fn op_dsps(&self, op: &Op, ty: &Type) -> u32 {
        reference_dsps(op, ty)
    }

    /// The scheduler resource class of an operation.
    pub fn op_resource(&self, op: &Op, ty: &Type) -> ResourceClass {
        use flexcl_frontend::types::AddressSpace;
        match op {
            Op::Load { space: AddressSpace::Local, .. } => ResourceClass::LocalRead,
            Op::Store { space: AddressSpace::Local, .. } => ResourceClass::LocalWrite,
            Op::Load { space: AddressSpace::Global | AddressSpace::Constant, .. }
            | Op::Store { space: AddressSpace::Global, .. } => ResourceClass::GlobalPort,
            _ => {
                if self.op_dsps(op, ty) > 0 {
                    ResourceClass::Dsp
                } else {
                    ResourceClass::Fabric
                }
            }
        }
    }

    /// The fraction of `ΔL` a warm dispatch pays: `1 − dispatch_overlap`,
    /// floored at zero. The model and the simulator both scale the
    /// dispatch overhead by it, each in its own float order.
    pub fn warm_dispatch_fraction(&self) -> f64 {
        (1.0 - self.dispatch_overlap).max(0.0)
    }

    /// Converts a cycle count into seconds on this platform.
    pub fn cycles_to_seconds(&self, cycles: f64) -> f64 {
        cycles / (self.frequency_mhz * 1e6)
    }

    /// Checks the platform description's invariants.
    ///
    /// A hand-edited or corrupted platform table (zero port counts, NaN
    /// frequency) would otherwise surface deep inside the scheduler or the
    /// memory model; the sweep engine validates up front and reports a
    /// typed [`FlexclError::Platform`](crate::error::FlexclError::Platform).
    ///
    /// # Errors
    ///
    /// Returns [`FlexclError::Platform`](crate::error::FlexclError::Platform) naming the first violated
    /// invariant.
    pub fn validate(&self) -> Result<(), crate::error::FlexclError> {
        let fail = |detail: String| {
            Err(crate::error::FlexclError::Platform { platform: self.name.clone(), detail })
        };
        if !self.frequency_mhz.is_finite() || self.frequency_mhz <= 0.0 {
            return fail(format!(
                "frequency must be finite and positive, got {}",
                self.frequency_mhz
            ));
        }
        if self.total_dsps == 0 {
            return fail("device must have at least one DSP slice".into());
        }
        if self.total_bram_bytes == 0 {
            return fail("device must have BRAM capacity".into());
        }
        if self.local_read_ports_per_bank == 0 {
            return fail("local memory banks need at least one read port".into());
        }
        if self.local_write_ports_per_bank == 0 {
            return fail("local memory banks need at least one write port".into());
        }
        if self.mem_access_unit_bits < 8 || !self.mem_access_unit_bits.is_multiple_of(8) {
            return fail(format!(
                "global access unit must be a positive multiple of 8 bits, got {}",
                self.mem_access_unit_bits
            ));
        }
        if self.global_ports == 0 {
            return fail("CUs need at least one global memory port".into());
        }
        if self.dram_channels == 0 {
            return fail("the board needs at least one DRAM channel".into());
        }
        if !(0.0..=1.0).contains(&self.dispatch_overlap) {
            return fail(format!(
                "dispatch overlap must lie in [0, 1], got {}",
                self.dispatch_overlap
            ));
        }
        if !self.latency_scale.is_finite() || self.latency_scale <= 0.0 {
            return fail(format!(
                "latency scale must be finite and positive, got {}",
                self.latency_scale
            ));
        }
        Ok(())
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::virtex7_adm7v3()
    }
}

/// Reference (Virtex-7, 200 MHz) latency table.
fn reference_latency(op: &Op, ty: &Type) -> u32 {
    use flexcl_frontend::types::AddressSpace;
    let is_float = ty.is_float();
    let wide = ty.element_scalar().is_some_and(|s| s.bits() == 64);
    let scale64 = |v: u32| if wide { v + v / 2 } else { v };
    match op {
        Op::Bin(b) => {
            let v = match b {
                BinOp::Add | BinOp::Sub => {
                    if is_float {
                        4
                    } else {
                        1
                    }
                }
                // DSP-mapped multiplies pipeline to the same latency for
                // int32 and fp32 on 7-series (3 register stages).
                BinOp::Mul => 3,
                BinOp::Div | BinOp::Rem => {
                    if is_float {
                        14
                    } else {
                        18
                    }
                }
                BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => 1,
                BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                    if is_float {
                        2
                    } else {
                        1
                    }
                }
                BinOp::LogAnd | BinOp::LogOr => 1,
            };
            scale64(v)
        }
        Op::Un(u) => match u {
            UnOp::Neg => {
                if is_float {
                    2
                } else {
                    1
                }
            }
            UnOp::Not | UnOp::BitNot => 1,
        },
        Op::Select => 1,
        Op::Convert => {
            if is_float {
                4 // int↔float conversion cores
            } else {
                1
            }
        }
        Op::Math(m) => {
            let v = match m {
                MathOp::Sqrt | MathOp::Rsqrt => 14,
                MathOp::Exp | MathOp::Exp2 | MathOp::Log | MathOp::Log2 => 20,
                MathOp::Sin | MathOp::Cos | MathOp::Tan => 25,
                MathOp::Pow => 34,
                MathOp::Atan2 | MathOp::Hypot => 28,
                MathOp::Fmod => 16,
                MathOp::Fabs | MathOp::Floor | MathOp::Ceil | MathOp::Round | MathOp::Trunc => 2,
                MathOp::Fmin | MathOp::Fmax | MathOp::Min | MathOp::Max | MathOp::Abs => 1,
                MathOp::Mad | MathOp::Fma => 5,
                MathOp::Clamp | MathOp::Mix => 3,
                MathOp::Mul24 | MathOp::Mad24 => 2,
                MathOp::Select => 1,
            };
            scale64(v)
        }
        Op::WorkItem(_) => 0, // wired from the dispatch logic
        Op::Alloca { .. } => 0,
        Op::Load { space, .. } => match space {
            AddressSpace::Local => 2,                           // BRAM read
            AddressSpace::Private => 0,                         // registers
            AddressSpace::Global | AddressSpace::Constant => 1, // AXI issue
        },
        Op::Store { space, .. } => match space {
            AddressSpace::Local => 1,
            AddressSpace::Private => 0,
            AddressSpace::Global | AddressSpace::Constant => 1,
        },
        Op::Extract(_) | Op::Insert(_) | Op::Splat => 0,
        Op::Barrier => 1,
    }
}

/// Reference DSP usage table.
fn reference_dsps(op: &Op, ty: &Type) -> u32 {
    let is_float = ty.is_float();
    let lanes = ty.lanes();
    let per_lane = match op {
        Op::Bin(BinOp::Mul) if is_float => 3,
        Op::Bin(BinOp::Mul) => 1,
        Op::Bin(BinOp::Add | BinOp::Sub) if is_float => 2,
        Op::Bin(BinOp::Add | BinOp::Sub) => 0,
        Op::Math(MathOp::Mad | MathOp::Fma) => 4,
        Op::Math(MathOp::Sqrt | MathOp::Rsqrt) => 2,
        Op::Math(MathOp::Exp | MathOp::Exp2 | MathOp::Log | MathOp::Log2) => 6,
        Op::Math(MathOp::Sin | MathOp::Cos | MathOp::Tan) => 8,
        Op::Math(MathOp::Pow) => 12,
        Op::Math(MathOp::Atan2 | MathOp::Hypot) => 8,
        Op::Convert if is_float => 1,
        _ => 0,
    };
    per_lane * lanes
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcl_frontend::types::{AddressSpace, Scalar};
    use flexcl_ir::MemRoot;

    #[test]
    fn float_ops_slower_than_int() {
        let p = Platform::virtex7_adm7v3();
        let fadd = p.op_latency(&Op::Bin(BinOp::Add), &Type::float());
        let iadd = p.op_latency(&Op::Bin(BinOp::Add), &Type::int());
        assert!(fadd > iadd);
    }

    #[test]
    fn ku060_is_faster() {
        let v7 = Platform::virtex7_adm7v3();
        let ku = Platform::ku060_nas120a();
        let op = Op::Math(MathOp::Exp);
        assert!(ku.op_latency(&op, &Type::float()) < v7.op_latency(&op, &Type::float()));
    }

    #[test]
    fn resource_classes() {
        let p = Platform::virtex7_adm7v3();
        let local_load = Op::Load { space: AddressSpace::Local, root: MemRoot::Param(0) };
        assert_eq!(p.op_resource(&local_load, &Type::float()), ResourceClass::LocalRead);
        let fmul = Op::Bin(BinOp::Mul);
        assert_eq!(p.op_resource(&fmul, &Type::float()), ResourceClass::Dsp);
        let iadd = Op::Bin(BinOp::Add);
        assert_eq!(p.op_resource(&iadd, &Type::int()), ResourceClass::Fabric);
    }

    #[test]
    fn double_precision_costs_more() {
        let p = Platform::virtex7_adm7v3();
        let f32_div = p.op_latency(&Op::Bin(BinOp::Div), &Type::float());
        let f64_div = p.op_latency(&Op::Bin(BinOp::Div), &Type::Scalar(Scalar::F64));
        assert!(f64_div > f32_div);
    }

    #[test]
    fn vector_ops_use_lane_scaled_dsps() {
        let p = Platform::virtex7_adm7v3();
        let scalar = p.op_dsps(&Op::Bin(BinOp::Mul), &Type::float());
        let vec4 = p.op_dsps(&Op::Bin(BinOp::Mul), &Type::Vector(Scalar::F32, 4));
        assert_eq!(vec4, 4 * scalar);
    }

    #[test]
    fn cycles_to_seconds() {
        let p = Platform::virtex7_adm7v3();
        assert!((p.cycles_to_seconds(200e6) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stock_platforms_validate() {
        Platform::virtex7_adm7v3().validate().expect("virtex7");
        Platform::ku060_nas120a().validate().expect("ku060");
    }

    #[test]
    fn poisoned_platform_is_rejected_with_context() {
        use crate::error::{ErrorKind, FlexclError};
        let zero_ports = Platform { local_read_ports_per_bank: 0, ..Platform::default() };
        let err = zero_ports.validate().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Platform);
        assert!(matches!(err, FlexclError::Platform { .. }));
        assert!(err.to_string().contains("read port"));

        let nan_freq = Platform { frequency_mhz: f64::NAN, ..Platform::default() };
        assert_eq!(nan_freq.validate().unwrap_err().kind(), ErrorKind::Platform);

        let bad_unit = Platform { mem_access_unit_bits: 12, ..Platform::default() };
        assert!(bad_unit.validate().is_err());
    }
}
