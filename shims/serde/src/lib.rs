//! Offline stand-in for `serde`.
//!
//! Instead of upstream serde's generic serializer/deserializer pair, this
//! shim routes everything through one concrete data model, [`value::Value`]
//! (a JSON-shaped tree). `#[derive(Serialize, Deserialize)]` is provided by
//! the sibling `serde_derive` shim and follows serde's conventions:
//! structs become objects, unit enum variants become strings, and tuple
//! variants become externally-tagged single-key objects.

pub use serde_derive::{Deserialize, Serialize};

pub mod value {
    //! The tree data model shared by serialization and deserialization.

    /// A JSON-shaped value tree.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Absent / null.
        Null,
        /// Boolean.
        Bool(bool),
        /// Signed integer (covers every integer the workspace serializes).
        Int(i64),
        /// Unsigned integer too large for `i64`.
        UInt(u64),
        /// Floating point.
        Float(f64),
        /// String.
        Str(String),
        /// Ordered array.
        Array(Vec<Value>),
        /// Ordered key/value map (insertion order preserved).
        Object(Vec<(String, Value)>),
    }

    impl Value {
        /// Looks up a key in an object value.
        pub fn get(&self, key: &str) -> Option<&Value> {
            match self {
                Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        /// Short description of the value's kind (for error messages).
        pub fn kind(&self) -> &'static str {
            match self {
                Value::Null => "null",
                Value::Bool(_) => "bool",
                Value::Int(_) | Value::UInt(_) => "integer",
                Value::Float(_) => "float",
                Value::Str(_) => "string",
                Value::Array(_) => "array",
                Value::Object(_) => "object",
            }
        }
    }
}

use std::sync::Arc;
use value::Value;

/// Deserialization failure: what was expected vs. what was found.
#[derive(Debug, Clone, PartialEq)]
pub struct DeError(pub String);

impl std::fmt::Display for DeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DeError {}

impl DeError {
    /// Builds a "expected X, found Y" error.
    pub fn expected(what: &str, found: &Value) -> DeError {
        DeError(format!("expected {what}, found {}", found.kind()))
    }
}

/// Types that can render themselves into the [`Value`] data model.
pub trait Serialize {
    /// Converts `self` to a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can be rebuilt from the [`Value`] data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] on shape or type mismatches.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Value, DeError> {
        Ok(v.clone())
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<bool, DeError> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(DeError::expected("bool", other)),
        }
    }
}

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                let wide = match v {
                    Value::Int(i) => *i as i128,
                    Value::UInt(u) => *u as i128,
                    other => return Err(DeError::expected("integer", other)),
                };
                <$t>::try_from(wide).map_err(|_| DeError(format!(
                    "integer {wide} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let wide = *self as u64;
                if wide <= i64::MAX as u64 {
                    Value::Int(wide as i64)
                } else {
                    Value::UInt(wide)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                let wide: u64 = match v {
                    Value::Int(i) if *i >= 0 => *i as u64,
                    Value::UInt(u) => *u,
                    other => return Err(DeError::expected("unsigned integer", other)),
                };
                <$t>::try_from(wide).map_err(|_| DeError(format!(
                    "integer {wide} out of range for {}", stringify!($t)
                )))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Float(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<$t, DeError> {
                match v {
                    Value::Float(f) => Ok(*f as $t),
                    Value::Int(i) => Ok(*i as $t),
                    Value::UInt(u) => Ok(*u as $t),
                    other => Err(DeError::expected("number", other)),
                }
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<String, DeError> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        self.as_slice().to_value()
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Vec<T>, DeError> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(DeError::expected("array", other)),
        }
    }
}

/// A shared value serializes as what it points to, so sharing a field
/// changes no serialized byte.
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl Deserialize for Arc<str> {
    fn from_value(v: &Value) -> Result<Arc<str>, DeError> {
        match v {
            Value::Str(s) => Ok(Arc::from(s.as_str())),
            other => Err(DeError::expected("string", other)),
        }
    }
}

impl<T: Deserialize> Deserialize for Arc<[T]> {
    fn from_value(v: &Value) -> Result<Arc<[T]>, DeError> {
        Vec::<T>::from_value(v).map(Arc::from)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Option<T>, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_round_trip_through_the_model() {
        assert_eq!(u64::from_value(&(u64::MAX).to_value()).unwrap(), u64::MAX);
        assert_eq!(i64::from_value(&(-5i64).to_value()).unwrap(), -5);
        assert!(u32::from_value(&Value::Int(-1)).is_err());
    }

    #[test]
    fn shared_strings_and_slices_serialize_as_owned_ones() {
        let (text, items) = (Arc::<str>::from("mm"), Arc::<[u8]>::from(vec![1, 2]));
        assert_eq!(text.to_value(), String::from("mm").to_value());
        assert_eq!(items.to_value(), vec![1u8, 2].to_value());
        assert_eq!(Arc::<str>::from_value(&text.to_value()).unwrap(), text);
        assert_eq!(Arc::<[u8]>::from_value(&items.to_value()).unwrap(), items);
        assert!(Arc::<str>::from_value(&Value::Int(1)).is_err());
    }

    #[test]
    fn options_map_to_null() {
        assert_eq!(None::<u8>.to_value(), Value::Null);
        assert_eq!(Option::<u8>::from_value(&Value::Null).unwrap(), None);
        assert_eq!(Option::<u8>::from_value(&Value::Int(3)).unwrap(), Some(3));
    }
}
