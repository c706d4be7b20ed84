//! The EVEREST IR type system.
//!
//! Types are small, cheaply clonable values. Besides scalar types the IR
//! models the two data-centric abstractions the paper singles out —
//! *tensors* (dense multi-dimensional arrays) and *particles* (bags of
//! structured records) — plus `memref`-like buffers annotated with a memory
//! space, and stream/token types used by the dataflow dialect.

use std::fmt;

/// Memory spaces a buffer may live in on the EVEREST target (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum MemSpace {
    /// Host DRAM attached to the CPU.
    #[default]
    Host,
    /// Device DRAM local to an FPGA card.
    Device,
    /// On-chip BRAM/URAM scratchpad inside the FPGA fabric.
    Scratchpad,
    /// Remote memory reachable over the network (disaggregated node).
    Remote,
}

impl fmt::Display for MemSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemSpace::Host => "host",
            MemSpace::Device => "device",
            MemSpace::Scratchpad => "scratch",
            MemSpace::Remote => "remote",
        };
        f.write_str(s)
    }
}

/// A type in the EVEREST IR.
///
/// ```
/// use everest_ir::Type;
/// let t = Type::tensor(Type::F32, &[32, 32]);
/// assert_eq!(t.to_string(), "tensor<32x32xf32>");
/// assert_eq!(t.num_elements(), Some(1024));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// 1-bit boolean.
    I1,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// Platform-sized index (loop counters, extents).
    Index,
    /// Dense tensor with static shape.
    Tensor { elem: Box<Type>, shape: Vec<usize> },
    /// Buffer reference in a specific memory space.
    MemRef { elem: Box<Type>, shape: Vec<usize>, space: MemSpace },
    /// Unbounded stream of elements (dataflow channels).
    Stream(Box<Type>),
    /// Control token carrying no data (dataflow ordering edges).
    Token,
    /// Opaque byte string of known length (crypto payloads).
    Bytes(usize),
}

impl Type {
    /// Constructs a tensor type with the given element type and shape.
    pub fn tensor(elem: Type, shape: &[usize]) -> Type {
        Type::Tensor { elem: Box::new(elem), shape: shape.to_vec() }
    }

    /// Constructs a memref type in the given memory space.
    pub fn memref(elem: Type, shape: &[usize], space: MemSpace) -> Type {
        Type::MemRef { elem: Box::new(elem), shape: shape.to_vec(), space }
    }

    /// Constructs a stream-of-`elem` type.
    pub(crate) fn stream(elem: Type) -> Type {
        Type::Stream(Box::new(elem))
    }

    /// Returns `true` for scalar numeric types (including `index`).
    pub fn is_scalar(&self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64 | Type::F32 | Type::F64 | Type::Index)
    }

    /// Returns `true` for floating-point scalar types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::F32 | Type::F64)
    }

    /// Returns `true` for integer scalar types (including `i1` and `index`).
    pub(crate) fn is_int(&self) -> bool {
        matches!(self, Type::I1 | Type::I32 | Type::I64 | Type::Index)
    }

    /// Returns the shape for shaped types (tensor/memref), `None` otherwise.
    pub fn shape(&self) -> Option<&[usize]> {
        match self {
            Type::Tensor { shape, .. } | Type::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Returns the element type for shaped/stream types, `None` otherwise.
    pub fn elem(&self) -> Option<&Type> {
        match self {
            Type::Tensor { elem, .. } | Type::MemRef { elem, .. } | Type::Stream(elem) => {
                Some(elem)
            }
            _ => None,
        }
    }

    /// Total number of elements for shaped types.
    pub fn num_elements(&self) -> Option<usize> {
        self.shape().map(|s| s.iter().product())
    }

    /// Size of one scalar of this type in bytes, if meaningful.
    pub(crate) fn scalar_bytes(&self) -> Option<usize> {
        match self {
            Type::I1 => Some(1),
            Type::I32 | Type::F32 => Some(4),
            Type::I64 | Type::F64 | Type::Index => Some(8),
            _ => None,
        }
    }

    /// Total byte footprint of a value of this type (shaped types multiply
    /// element size by element count; `Bytes(n)` is `n`).
    pub fn byte_size(&self) -> Option<usize> {
        match self {
            Type::Bytes(n) => Some(*n),
            Type::Tensor { elem, .. } | Type::MemRef { elem, .. } => {
                Some(elem.scalar_bytes()? * self.num_elements()?)
            }
            t if t.is_scalar() => t.scalar_bytes(),
            _ => None,
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::I1 => f.write_str("i1"),
            Type::I32 => f.write_str("i32"),
            Type::I64 => f.write_str("i64"),
            Type::F32 => f.write_str("f32"),
            Type::F64 => f.write_str("f64"),
            Type::Index => f.write_str("index"),
            Type::Tensor { elem, shape } => {
                f.write_str("tensor<")?;
                for d in shape {
                    write!(f, "{d}x")?;
                }
                write!(f, "{elem}>")
            }
            Type::MemRef { elem, shape, space } => {
                f.write_str("memref<")?;
                for d in shape {
                    write!(f, "{d}x")?;
                }
                write!(f, "{elem}, {space}>")
            }
            Type::Stream(elem) => write!(f, "stream<{elem}>"),
            Type::Token => f.write_str("token"),
            Type::Bytes(n) => write!(f, "bytes<{n}>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_shapes() {
        assert_eq!(Type::tensor(Type::F32, &[4, 8]).to_string(), "tensor<4x8xf32>");
        assert_eq!(
            Type::memref(Type::F64, &[16], MemSpace::Scratchpad).to_string(),
            "memref<16xf64, scratch>"
        );
        assert_eq!(Type::stream(Type::I32).to_string(), "stream<i32>");
        assert_eq!(Type::Bytes(64).to_string(), "bytes<64>");
    }

    #[test]
    fn scalar_predicates() {
        assert!(Type::F32.is_scalar());
        assert!(Type::F32.is_float());
        assert!(!Type::F32.is_int());
        assert!(Type::Index.is_int());
        assert!(!Type::tensor(Type::F32, &[2]).is_scalar());
    }

    #[test]
    fn byte_sizes() {
        assert_eq!(Type::tensor(Type::F32, &[32, 32]).byte_size(), Some(4096));
        assert_eq!(Type::F64.byte_size(), Some(8));
        assert_eq!(Type::Bytes(100).byte_size(), Some(100));
        assert_eq!(Type::Token.byte_size(), None);
    }

    #[test]
    fn zero_dim_tensor_is_scalar_like_but_shaped() {
        let t = Type::tensor(Type::F32, &[]);
        assert_eq!(t.num_elements(), Some(1));
        assert_eq!(t.to_string(), "tensor<f32>");
    }

    #[test]
    fn elem_accessor() {
        let t = Type::stream(Type::F64);
        assert_eq!(t.elem(), Some(&Type::F64));
        assert_eq!(Type::I32.elem(), None);
    }
}
