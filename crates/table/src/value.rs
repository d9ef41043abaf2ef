//! Cell values.
//!
//! PFDs are constraints over cell *strings* — pattern matching, tokenizing
//! and capturing all operate on text — so the storage model is
//! string-centric: a cell is either `Null` (absent/disguised-missing) or a
//! `Text` string exactly as ingested. Typed interpretation (integer, float,
//! date…) is a profiling-time concern; see
//! [`InferredType`](crate::profile::InferredType).

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::fmt;

/// Does the field string `s` denote an absent value?
///
/// The empty field and the conventional null tokens `NULL`, `null`,
/// `NA`, `N/A` and `\N` do, matched exactly (no trimming, no case
/// folding). The CSV reader, the op-log reader and [`Value::from_field`]
/// all ask this one function, so "what counts as null" is decided in
/// exactly one place.
#[must_use]
pub fn is_null_field(s: &str) -> bool {
    matches!(s, "" | "NULL" | "null" | "NA" | "N/A" | "\\N")
}

/// One table cell.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Value {
    /// An absent value: the empty field or a null token
    /// ([`is_null_field`]).
    Null,
    /// A textual value, stored verbatim.
    Text(String),
}

impl Value {
    /// Construct from a CSV field: the fields [`is_null_field`] names
    /// (the empty field and the conventional null tokens) become
    /// [`Value::Null`].
    #[must_use]
    pub fn from_field(s: &str) -> Value {
        if is_null_field(s) {
            Value::Null
        } else {
            Value::Text(s.to_string())
        }
    }

    /// A non-null text value.
    #[must_use]
    pub fn text(s: impl Into<String>) -> Value {
        Value::Text(s.into())
    }

    /// The string content, or `None` for nulls.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Null => None,
            Value::Text(s) => Some(s),
        }
    }

    /// Is this a null?
    #[must_use]
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// CSV rendering: nulls become the empty field.
    #[must_use]
    pub fn render(&self) -> Cow<'_, str> {
        match self {
            Value::Null => Cow::Borrowed(""),
            Value::Text(s) => Cow::Borrowed(s),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "∅"),
            Value::Text(s) => write!(f, "{s}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::from_field(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        if s.is_empty() {
            Value::Null
        } else {
            Value::Text(s)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Op;

    #[test]
    fn from_field_null_tokens() {
        for s in ["", "NULL", "null", "NA", "N/A", "\\N"] {
            assert!(Value::from_field(s).is_null(), "{s:?} should be null");
        }
        assert!(!Value::from_field("0").is_null());
        assert!(!Value::from_field(" ").is_null());
    }

    #[test]
    fn as_str_and_render() {
        let v = Value::text("Los Angeles");
        assert_eq!(v.as_str(), Some("Los Angeles"));
        assert_eq!(v.render(), "Los Angeles");
        assert_eq!(Value::Null.as_str(), None);
        assert_eq!(Value::Null.render(), "");
    }

    #[test]
    fn display() {
        assert_eq!(Value::text("x").to_string(), "x");
        assert_eq!(Value::Null.to_string(), "∅");
    }

    #[test]
    fn from_string_empty_is_null() {
        let v: Value = String::new().into();
        assert!(v.is_null());
    }

    /// The null tokens are a fixed set, matched exactly: near misses
    /// stay text through the CSV reader and the op-log reader alike.
    #[test]
    fn null_policy_default_tokens() {
        for s in ["", "NULL", "null", "NA", "N/A", "\\N"] {
            assert!(is_null_field(s), "{s:?} should be null");
        }
        let near_misses = ["Null", " NULL", "n/a", "nan"];
        for s in near_misses.iter().chain(&["-", "0"]) {
            assert!(!is_null_field(s), "{s:?} should be text");
        }

        let csv = crate::csv::read_str("a,b,c,d,e\nNULL,null,NA,N/A,\\N\nNull, NULL,n/a,nan,x\n")
            .unwrap();
        let log = crate::oplog::parse("+,NULL,null,NA,N/A,\\N\n+,Null, NULL,n/a,nan,x\n").unwrap();
        let [Op::Insert(nulls), Op::Insert(texts)] = log.as_slice() else {
            panic!("two inserts, got {log:?}");
        };
        for (c, id) in nulls.iter().enumerate() {
            assert!(csv.cell(0, c).is_null(), "CSV cell {c}");
            assert!(id.is_null(), "op-log cell {c}");
        }
        for (c, s) in near_misses.into_iter().enumerate() {
            assert_eq!(csv.cell_str(1, c), Some(s), "CSV cell {c}");
            assert_eq!(texts[c].as_str(), Some(s), "op-log cell {c}");
        }
    }
}
