//! Minimal JSON output for the raw measurement file (the repository has
//! no JSON dependency, and the file only needs objects, arrays, strings
//! and numbers). Strings are escaped as `dise-obs` records escape them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number (non-finite values render as `null`).
    Num(f64),
    /// A boolean.
    Bool(bool),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with sorted keys.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// An object of numbers.
    pub fn nums<K: AsRef<str>>(pairs: impl IntoIterator<Item = (K, f64)>) -> Json {
        Json::obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.as_ref().to_string(), Json::Num(v))),
        )
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => {
                out.push('"');
                dise_obs::escape_into(out, s);
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values_with_escapes() {
        let v = Json::obj([
            (
                "b",
                Json::Arr(vec![Json::Num(1.5), Json::Bool(true), Json::Num(f64::NAN)]),
            ),
            ("a", Json::Str("q\"\\\n".into())),
        ]);
        assert_eq!(v.render(), r#"{"a":"q\"\\\n","b":[1.5,true,null]}"#);
    }
}
