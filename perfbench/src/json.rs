//! A minimal JSON value for result records, plus field extraction from
//! the flat single-line JSON the server and tracer emit.

use std::fmt;

/// A JSON value. Non-finite numbers render as `null`.
#[derive(Debug, Clone)]
pub enum J {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object, in insertion order.
    Obj(Vec<(String, J)>),
}

impl J {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

impl From<f64> for J {
    fn from(v: f64) -> J {
        J::Num(v)
    }
}

impl From<usize> for J {
    fn from(v: usize) -> J {
        J::Num(v as f64)
    }
}

impl From<u64> for J {
    fn from(v: u64) -> J {
        J::Num(v as f64)
    }
}

impl From<&str> for J {
    fn from(v: &str) -> J {
        J::Str(v.to_string())
    }
}

impl From<String> for J {
    fn from(v: String) -> J {
        J::Str(v)
    }
}

impl From<bool> for J {
    fn from(v: bool) -> J {
        J::Bool(v)
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

impl fmt::Display for J {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rust's shortest round-trip float formatting keeps every
            // digit that was measured.
            J::Num(v) if v.is_finite() => write!(f, "{v}"),
            J::Num(_) => f.write_str("null"),
            J::Str(s) => write_str(f, s),
            J::Bool(b) => write!(f, "{b}"),
            J::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            J::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// The raw text of a scalar field `"key":value` in a flat JSON line
/// (strings without their quotes). Good enough for the server's reply
/// lines and the tracer's records, whose keys never recur nested.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(s) = rest.strip_prefix('"') {
        return s.find('"').map(|end| &s[..end]);
    }
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// [`field`] parsed as a number.
pub fn num(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::from(1.5)),
            ("b", J::Arr(vec![J::from("x\"y"), J::from(true)])),
            ("c", J::Num(f64::INFINITY)),
        ]);
        assert_eq!(v.to_string(), r#"{"a":1.5,"b":["x\"y",true],"c":null}"#);
    }

    #[test]
    fn extracts_flat_fields() {
        let line = r#"{"score":0.25,"verdict":"clean","cached":false,"batch_size":2}"#;
        assert_eq!(num(line, "score"), Some(0.25));
        assert_eq!(field(line, "verdict"), Some("clean"));
        assert_eq!(field(line, "cached"), Some("false"));
        assert_eq!(num(line, "batch_size"), Some(2.0));
        assert_eq!(field(line, "missing"), None);
    }
}
