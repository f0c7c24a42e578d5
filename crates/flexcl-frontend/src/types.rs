//! The OpenCL C type system subset used throughout FlexCL.

use std::fmt;

/// Scalar element types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scalar {
    /// `bool` — the result type of comparisons.
    Bool,
    /// `char` (8-bit signed).
    I8,
    /// `uchar` (8-bit unsigned).
    U8,
    /// `short` (16-bit signed).
    I16,
    /// `ushort` (16-bit unsigned).
    U16,
    /// `int` (32-bit signed).
    I32,
    /// `uint` / `size_t` (32-bit unsigned; SDAccel uses 32-bit size_t on-device).
    U32,
    /// `long` (64-bit signed).
    I64,
    /// `ulong` (64-bit unsigned).
    U64,
    /// `float` (IEEE-754 binary32).
    F32,
    /// `double` (IEEE-754 binary64).
    F64,
}

impl Scalar {
    /// Bit width of the scalar.
    pub fn bits(self) -> u32 {
        match self {
            Scalar::Bool => 1,
            Scalar::I8 | Scalar::U8 => 8,
            Scalar::I16 | Scalar::U16 => 16,
            Scalar::I32 | Scalar::U32 | Scalar::F32 => 32,
            Scalar::I64 | Scalar::U64 | Scalar::F64 => 64,
        }
    }

    /// Size in bytes when stored in memory (bool is stored as one byte).
    pub fn bytes(self) -> u32 {
        self.bits().max(8) / 8
    }

    /// Whether this is `float` or `double`.
    pub fn is_float(self) -> bool {
        matches!(self, Scalar::F32 | Scalar::F64)
    }

    /// Whether this is an unsigned integer type (bool counts as unsigned).
    pub fn is_unsigned_int(self) -> bool {
        matches!(self, Scalar::Bool | Scalar::U8 | Scalar::U16 | Scalar::U32 | Scalar::U64)
    }

    /// Whether this is any integer type.
    pub fn is_int(self) -> bool {
        !self.is_float()
    }

    /// The usual C arithmetic-conversion result of combining two scalars.
    pub fn unify(self, other: Scalar) -> Scalar {
        use Scalar::*;
        if self == other {
            return self;
        }
        // Floats dominate.
        if self == F64 || other == F64 {
            return F64;
        }
        if self == F32 || other == F32 {
            return F32;
        }
        // Integer promotion: widest wins; unsigned wins ties.
        let (a, b) = (self, other);
        let width = a.bits().max(b.bits()).max(32);
        let unsigned = (a.is_unsigned_int() && a.bits() >= width)
            || (b.is_unsigned_int() && b.bits() >= width);
        match (width, unsigned) {
            (64, true) => U64,
            (64, false) => I64,
            (_, true) => U32,
            (_, false) => I32,
        }
    }
}

impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scalar::Bool => "bool",
            Scalar::I8 => "char",
            Scalar::U8 => "uchar",
            Scalar::I16 => "short",
            Scalar::U16 => "ushort",
            Scalar::I32 => "int",
            Scalar::U32 => "uint",
            Scalar::I64 => "long",
            Scalar::U64 => "ulong",
            Scalar::F32 => "float",
            Scalar::F64 => "double",
        };
        f.write_str(s)
    }
}

/// OpenCL address spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AddressSpace {
    /// Off-chip DRAM shared by all work-items (`__global`).
    Global,
    /// On-chip memory shared within a work-group (`__local`).
    Local,
    /// Read-only memory initialised by the host (`__constant`).
    Constant,
    /// Per-work-item storage (`__private`) — registers or small arrays.
    #[default]
    Private,
}

impl fmt::Display for AddressSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AddressSpace::Global => "__global",
            AddressSpace::Local => "__local",
            AddressSpace::Constant => "__constant",
            AddressSpace::Private => "__private",
        };
        f.write_str(s)
    }
}

/// A type in the OpenCL subset.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Type {
    /// `void` — only valid as a function return type.
    Void,
    /// A scalar value.
    Scalar(Scalar),
    /// A vector of 2, 4, 8 or 16 scalar lanes (e.g. `float4`).
    Vector(Scalar, u8),
    /// A pointer into some address space.
    Pointer(Box<Type>, AddressSpace),
    /// A fixed-size array (used for `__local` / `__private` array declarations).
    Array(Box<Type>, usize),
}

impl Type {
    /// Shorthand for a scalar type.
    pub fn scalar(s: Scalar) -> Type {
        Type::Scalar(s)
    }

    /// Shorthand for `int`.
    pub fn int() -> Type {
        Type::Scalar(Scalar::I32)
    }

    /// Shorthand for `float`.
    pub fn float() -> Type {
        Type::Scalar(Scalar::F32)
    }

    /// Shorthand for a pointer to `elem` in `space`.
    pub fn pointer(elem: Type, space: AddressSpace) -> Type {
        Type::Pointer(Box::new(elem), space)
    }

    /// Returns the scalar element type of a scalar or vector, if any.
    pub fn element_scalar(&self) -> Option<Scalar> {
        match self {
            Type::Scalar(s) => Some(*s),
            Type::Vector(s, _) => Some(*s),
            _ => None,
        }
    }

    /// Number of vector lanes (1 for scalars).
    pub fn lanes(&self) -> u32 {
        match self {
            Type::Vector(_, n) => u32::from(*n),
            _ => 1,
        }
    }

    /// Size of a value of this type in bytes, if it has one.
    pub fn bytes(&self) -> Option<u64> {
        match self {
            Type::Void => None,
            Type::Scalar(s) => Some(u64::from(s.bytes())),
            Type::Vector(s, n) => Some(u64::from(s.bytes()) * u64::from(*n)),
            Type::Pointer(_, _) => Some(8),
            Type::Array(t, n) => Some(t.bytes()? * *n as u64),
        }
    }

    /// Whether the type is a scalar or vector of floats.
    pub fn is_float(&self) -> bool {
        self.element_scalar().is_some_and(Scalar::is_float)
    }

    /// Whether the type is a scalar or vector of integers.
    pub fn is_int(&self) -> bool {
        self.element_scalar().is_some_and(Scalar::is_int)
    }

    /// Whether the type is a pointer.
    pub fn is_pointer(&self) -> bool {
        matches!(self, Type::Pointer(_, _))
    }

    /// The pointee type and address space if this is a pointer.
    pub fn pointee(&self) -> Option<(&Type, AddressSpace)> {
        match self {
            Type::Pointer(t, s) => Some((t, *s)),
            _ => None,
        }
    }

    /// Parses vector type names such as `float4` or `int16`.
    pub fn from_name(name: &str) -> Option<Type> {
        let (base, lanes) =
            name.char_indices().find(|(_, c)| c.is_ascii_digit()).map(|(i, _)| name.split_at(i))?;
        let lanes: u8 = lanes.parse().ok()?;
        if !matches!(lanes, 2 | 4 | 8 | 16) {
            return None;
        }
        let scalar = match base {
            "char" => Scalar::I8,
            "uchar" => Scalar::U8,
            "short" => Scalar::I16,
            "ushort" => Scalar::U16,
            "int" => Scalar::I32,
            "uint" => Scalar::U32,
            "long" => Scalar::I64,
            "ulong" => Scalar::U64,
            "float" => Scalar::F32,
            "double" => Scalar::F64,
            _ => return None,
        };
        Some(Type::Vector(scalar, lanes))
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Void => write!(f, "void"),
            Type::Scalar(s) => write!(f, "{s}"),
            Type::Vector(s, n) => write!(f, "{s}{n}"),
            Type::Pointer(t, sp) => write!(f, "{sp} {t}*"),
            Type::Array(t, n) => write!(f, "{t}[{n}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_widths() {
        assert_eq!(Scalar::I32.bits(), 32);
        assert_eq!(Scalar::F64.bytes(), 8);
        assert_eq!(Scalar::Bool.bytes(), 1);
    }

    #[test]
    fn unify_promotes_to_float() {
        assert_eq!(Scalar::I32.unify(Scalar::F32), Scalar::F32);
        assert_eq!(Scalar::F32.unify(Scalar::F64), Scalar::F64);
        assert_eq!(Scalar::U8.unify(Scalar::I16), Scalar::I32);
        assert_eq!(Scalar::U64.unify(Scalar::I32), Scalar::U64);
    }

    #[test]
    fn vector_names_parse() {
        assert_eq!(Type::from_name("float4"), Some(Type::Vector(Scalar::F32, 4)));
        assert_eq!(Type::from_name("int16"), Some(Type::Vector(Scalar::I32, 16)));
        assert_eq!(Type::from_name("float3"), None);
        assert_eq!(Type::from_name("gid"), None);
    }

    #[test]
    fn type_sizes() {
        assert_eq!(Type::Vector(Scalar::F32, 4).bytes(), Some(16));
        assert_eq!(Type::Array(Box::new(Type::int()), 10).bytes(), Some(40));
        assert_eq!(Type::Void.bytes(), None);
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(Type::Vector(Scalar::F32, 4).to_string(), "float4");
        assert_eq!(
            Type::pointer(Type::float(), AddressSpace::Global).to_string(),
            "__global float*"
        );
    }
}
