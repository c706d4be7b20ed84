//! Operation attributes: compile-time constant metadata attached to ops.
//!
//! Attributes carry everything that is not an SSA operand: literal constants,
//! DSL annotations ("data characteristics and requirements", paper III-B),
//! HLS directives, and security labels.

use crate::types::Type;
use std::fmt;

/// An attribute value.
///
/// ```
/// use everest_ir::Attr;
/// let a = Attr::Array(vec![Attr::Int(1), Attr::Int(2)]);
/// assert_eq!(a.to_string(), "[1, 2]");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Attr {
    /// Signed integer literal.
    Int(i64),
    /// Floating point literal.
    Float(f64),
    /// Quoted string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Type attribute.
    Type(Type),
    /// Homogeneous or heterogeneous array of attributes.
    Array(Vec<Attr>),
}

impl Attr {
    /// Returns the integer payload, if this is an [`Attr::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Attr::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the float payload, accepting integer attributes as well.
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Attr::Float(v) => Some(*v),
            Attr::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Returns the string payload, if this is an [`Attr::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Attr::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the array payload, if this is an [`Attr::Array`].
    pub fn as_array(&self) -> Option<&[Attr]> {
        match self {
            Attr::Array(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: an array attribute of integers.
    pub(crate) fn ints(values: &[i64]) -> Attr {
        Attr::Array(values.iter().map(|v| Attr::Int(*v)).collect())
    }

    /// Extracts a `Vec<i64>` from an integer-array attribute.
    pub fn to_ints(&self) -> Option<Vec<i64>> {
        self.as_array()?.iter().map(Attr::as_int).collect()
    }
}

impl From<i64> for Attr {
    fn from(v: i64) -> Attr {
        Attr::Int(v)
    }
}

impl From<f64> for Attr {
    fn from(v: f64) -> Attr {
        Attr::Float(v)
    }
}

impl From<&str> for Attr {
    fn from(v: &str) -> Attr {
        Attr::Str(v.to_owned())
    }
}

impl From<bool> for Attr {
    fn from(v: bool) -> Attr {
        Attr::Bool(v)
    }
}

impl fmt::Display for Attr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Attr::Int(v) => write!(f, "{v}"),
            // Always keep a decimal point so the parser can distinguish
            // floats from ints on the way back in.
            Attr::Float(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Attr::Str(s) => write!(f, "\"{}\"", s.escape_default()),
            Attr::Bool(b) => write!(f, "{b}"),
            Attr::Type(t) => write!(f, "!{t}"),
            Attr::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Attr::Int(7).as_int(), Some(7));
        assert_eq!(Attr::Int(7).as_float(), Some(7.0));
        assert_eq!(Attr::Float(2.5).as_float(), Some(2.5));
        assert_eq!(Attr::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Attr::Int(7).as_str(), None);
    }

    #[test]
    fn int_array_round_trip() {
        let a = Attr::ints(&[3, 1, 4]);
        assert_eq!(a.to_ints(), Some(vec![3, 1, 4]));
        assert_eq!(Attr::Array(vec![Attr::Bool(true)]).to_ints(), None);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Attr::Float(2.0).to_string(), "2.0");
        assert_eq!(Attr::Float(0.5).to_string(), "0.5");
        assert_eq!(Attr::Str("a\"b".into()).to_string(), "\"a\\\"b\"");
        assert_eq!(Attr::Type(Type::F32).to_string(), "!f32");
        assert_eq!(Attr::ints(&[1]).to_string(), "[1]");
    }

    #[test]
    fn from_impls() {
        assert_eq!(Attr::from(3i64), Attr::Int(3));
        assert_eq!(Attr::from(true), Attr::Bool(true));
        assert_eq!(Attr::from("hi"), Attr::Str("hi".into()));
    }
}
