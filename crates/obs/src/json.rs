//! The one JSON implementation behind every artifact: the [`Value`]
//! every writer builds, its `Display` writer, a strict [`parse`]r, and
//! the required keys of every artifact schema ([`check_artifact`]),
//! shared by `obscheck` and the writer crates' tests.
//!
//! Objects keep insertion order. Integers are written exactly; floats
//! always carry a `.` or an exponent, so they parse back as floats,
//! and a non-finite float is written as `null`. The one layout puts a
//! container on one line when no member is a non-empty container, and
//! otherwise each member on its own line, indented two spaces.
//!
//! ```
//! use mpise_obs::json::{parse, Value};
//! let doc = Value::object([("name", "a\"b".into()), ("cycles", 1446u64.into())]);
//! assert_eq!(doc.to_string(), r#"{"name": "a\"b", "cycles": 1446}"#);
//! assert_eq!(parse(&doc.to_string()), Ok(doc));
//! assert!(parse("[1, 2,]").is_err());
//! ```

use std::fmt::{self, Write};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    /// A number without fraction or exponent.
    Int(i128),
    /// A number with a fraction or exponent.
    Float(f64),
    String(String),
    Array(Vec<Value>),
    /// Members in order.
    Object(Vec<(String, Value)>),
}

static NULL: Value = Value::Null;

/// Builds a [`Value::Object`] from `"key": value` members, in order,
/// converting each value with `Value::from`.
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Value::Object(vec![$(($key.to_owned(), $crate::json::Value::from($value))),*])
    };
}

impl Value {
    /// Builds an object from `(key, value)` members, in order.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let members: Vec<(Option<&str>, &Value)> = match self {
            Value::Null => return f.write_str("null"),
            Value::Bool(b) => return write!(f, "{b}"),
            Value::Int(i) => return write!(f, "{i}"),
            // `{:?}` is the shortest round-trip form and keeps a `.0`.
            Value::Float(x) if x.is_finite() => return write!(f, "{x:?}"),
            Value::Float(_) => return f.write_str("null"),
            Value::String(s) => return write_string(f, s),
            Value::Array(items) => items.iter().map(|v| (None, v)).collect(),
            Value::Object(members) => members.iter().map(|(k, v)| (Some(&**k), v)).collect(),
        };
        let (open, close) = match self {
            Value::Array(_) => ('[', ']'),
            _ => ('{', '}'),
        };
        let multiline = members.iter().any(|(_, v)| match v {
            Value::Array(items) => !items.is_empty(),
            Value::Object(members) => !members.is_empty(),
            _ => false,
        });
        f.write_char(open)?;
        for (i, (key, value)) in members.iter().enumerate() {
            f.write_str(match (i, multiline) {
                (0, false) => "",
                (_, false) => ", ",
                (0, true) => "\n",
                (_, true) => ",\n",
            })?;
            if multiline {
                write!(f, "{:1$}", "", indent + 2)?;
            }
            if let Some(key) = key {
                write_string(f, key)?;
                f.write_str(": ")?;
            }
            value.write(f, indent + 2)?;
        }
        if multiline {
            write!(f, "\n{:1$}", "", indent)?;
        }
        f.write_char(close)
    }
}

/// Writes `s` quoted, with `"`, `\` and every control character
/// U+0000–U+001F escaped, as RFC 8259 §7 requires.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if c < ' ' => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

/// `value["key"]`: the member, or `null` when there is none.
impl std::ops::Index<&str> for Value {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        match self {
            Value::Object(members) => members
                .iter()
                .find(|(k, _)| k == key)
                .map_or(&NULL, |m| &m.1),
            _ => &NULL,
        }
    }
}

/// `value[i]`: the element, or `null` when there is none.
impl std::ops::Index<usize> for Value {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        match self {
            Value::Array(items) => items.get(i).unwrap_or(&NULL),
            _ => &NULL,
        }
    }
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr),*) => {$(
        impl From<$t> for Value {
            fn from($v: $t) -> Value {
                $e
            }
        }
    )*};
}

from!(bool => |b| Value::Bool(b), f64 => |x| Value::Float(x), String => |s| Value::String(s),
    &str => |s| Value::String(s.to_owned()), i8 => |i| Value::Int(i.into()),
    u64 => |i| Value::Int(i.into()), usize => |i| Value::Int(i as i128));

/// `None` is `null`: an absent measurement, not a zero.
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Value {
        v.map_or(Value::Null, Into::into)
    }
}

impl<T: Into<Value>> FromIterator<T> for Value {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Value {
        Value::Array(iter.into_iter().map(Into::into).collect())
    }
}

/// Nesting deeper than this is rejected rather than recursed into.
const MAX_DEPTH: usize = 128;

/// Parses one RFC 8259 document strictly: it rejects trailing commas,
/// invalid escapes, unpaired surrogates, raw control characters in
/// strings, malformed numbers, duplicate member names, truncation, and
/// anything but whitespace after the document.
///
/// # Errors
///
/// `byte <offset>: <what is wrong there>` for the first offending byte.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos < text.len() {
        return Err(p.error("trailing bytes after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    /// An error at the current byte; every error at the end of the
    /// input is a truncation.
    fn error(&self, message: &str) -> String {
        let at_end = self.pos >= self.text.len();
        let message = if at_end {
            "unexpected end of input"
        } else {
            message
        };
        format!("byte {}: {message}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, b: u8, message: &str) -> Result<(), String> {
        self.skip_ws();
        self.eat(b).then_some(()).ok_or_else(|| self.error(message))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'"') => self.string().map(Value::String),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => {
                let mut items = Vec::new();
                self.elements(b']', |p| {
                    items.push(p.value(depth + 1)?);
                    Ok(())
                })?;
                Ok(Value::Array(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Value)> = Vec::new();
                self.elements(b'}', |p| {
                    p.skip_ws();
                    if p.peek() != Some(b'"') {
                        return Err(p.error("expected a member name"));
                    }
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(p.error("duplicate member name"));
                    }
                    p.expect(b':', "expected `:`")?;
                    members.push((key, p.value(depth + 1)?));
                    Ok(())
                })?;
                Ok(Value::Object(members))
            }
            _ => {
                let literals = [
                    ("true", Value::Bool(true)),
                    ("false", Value::Bool(false)),
                    ("null", Value::Null),
                ];
                for (word, v) in literals {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(v);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// The comma-separated elements of an array or object, from its
    /// opening bracket through `close`; `element` parses one.
    fn elements(
        &mut self,
        close: u8,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.pos += 1;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            element(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            self.expect(b',', "expected `,` or a closing bracket")?;
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1;
        let mut out = String::new();
        loop {
            // Copy up to the next quote, backslash or control byte; all
            // are ASCII, so the run ends on a char boundary.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                _ => return Err(self.error("raw control character in string")),
            }
        }
    }

    fn escape(&mut self) -> Result<char, String> {
        let simple = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) {
                    let escaped = self.eat(b'\\') && self.eat(b'u');
                    let low = if escaped { self.hex4()? } else { 0 };
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("unpaired surrogate"));
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code).ok_or_else(|| self.error("unpaired surrogate"));
            }
            _ => return Err(self.error("invalid escape")),
        };
        self.pos += 1;
        Ok(simple)
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        self.eat(b'-');
        let mut valid = self.eat(b'0') || self.digits() > 0;
        let fraction = self.eat(b'.');
        if fraction {
            valid &= self.digits() > 0;
        }
        let exponent = self.eat(b'e') || self.eat(b'E');
        if exponent {
            let _ = self.eat(b'+') || self.eat(b'-');
            valid &= self.digits() > 0;
        }
        let literal = &self.text[start..self.pos];
        match literal.parse::<i128>() {
            _ if !valid => Err(self.error("invalid number")),
            Ok(i) if !fraction && !exponent => Ok(Value::Int(i)),
            _ => literal
                .parse()
                .map(Value::Float)
                .map_err(|_| self.error("invalid number")),
        }
    }
}

/// A JSON type an artifact schema requires at a key path.
#[derive(Debug, Clone, Copy)]
enum Type {
    Bool,
    Number,
    String,
    Array,
    Object,
}

/// The required keys of every artifact schema: `(schema, dotted key
/// path, type)`, where a `*` path segment stands for every element of
/// an array or every member of an object. Schema `*` rows (the
/// provenance block) apply to every schema.
const SCHEMA_KEYS: &[(&str, &str, Type)] = &[
    ("*", "provenance.git_commit", Type::String),
    ("*", "provenance.host", Type::String),
    ("*", "provenance.timestamp", Type::String),
    ("*", "provenance.unix_secs", Type::Number),
    ("mpise-obs/v1", "metrics", Type::Array),
    ("mpise-obs/v1", "metrics.*.name", Type::String),
    ("mpise-obs/v1", "metrics.*.type", Type::String),
    ("mpise-obs/v1", "metrics.*.series", Type::Array),
    ("mpise-obs/v1", "spans", Type::Object),
    ("mpise-bench/v1", "mode", Type::String),
    ("mpise-bench/v1", "kernels", Type::Array),
    ("mpise-bench/v1", "kernels.*.cycles", Type::Number),
    ("mpise-bench/v1", "action.op_counts", Type::Object),
    ("mpise-bench/v1", "action.estimated", Type::Array),
    ("mpise-bench/v1", "action.direct_sim", Type::Array),
    ("mpise-bench/v1", "gate.table4_claims", Type::Bool),
    ("mpise-loadgen/v1", "mode", Type::String),
    ("mpise-loadgen/v1", "passes", Type::Array),
    ("mpise-loadgen/v1", "passes.*.elapsed_secs", Type::Number),
    ("mpise-loadgen/v1", "payloads.digest_fnv1a64", Type::String),
    ("mpise-loadgen/v1", "gate.pass", Type::Bool),
    ("mpise-difftest/v1", "modes.isa_fuzz", Type::Object),
    ("mpise-difftest/v1", "modes.kernel_difftest", Type::Object),
    ("mpise-difftest/v1", "modes.kat_corpus", Type::Object),
    ("mpise-difftest/v1", "modes.*.failures", Type::Array),
    ("mpise-difftest/v1", "modes.*.failures.*", Type::String),
    ("mpise-difftest/v1", "pass", Type::Bool),
];

/// Whether every value `path` reaches from `v` has type `ty`.
fn has_type(v: &Value, path: &[&str], ty: Type) -> bool {
    match (path, v) {
        (["*", rest @ ..], Value::Array(items)) => items.iter().all(|x| has_type(x, rest, ty)),
        (["*", rest @ ..], Value::Object(m)) => m.iter().all(|(_, x)| has_type(x, rest, ty)),
        (["*", ..], _) => false,
        ([key, rest @ ..], _) => has_type(&v[*key], rest, ty),
        ([], _) => matches!(
            (ty, v),
            (Type::Bool, Value::Bool(_))
                | (Type::Number, Value::Int(_) | Value::Float(_))
                | (Type::String, Value::String(_))
                | (Type::Array, Value::Array(_))
                | (Type::Object, Value::Object(_))
        ),
    }
}

/// Checks an artifact against the schema its `schema` key declares:
/// every `SCHEMA_KEYS` row of that schema must hold. Returns the
/// schema name.
///
/// # Errors
///
/// Names the unknown schema or the first missing or mistyped key.
pub fn check_artifact(doc: &Value) -> Result<&'static str, String> {
    let declared = |s: &&str| *s != "*" && doc["schema"] == (*s).into();
    let Some(&(schema, ..)) = SCHEMA_KEYS.iter().find(|(s, ..)| declared(s)) else {
        return Err(format!("unknown schema {}", doc["schema"]));
    };
    let rows = SCHEMA_KEYS
        .iter()
        .filter(|(s, ..)| ["*", schema].contains(s));
    for (_, path, ty) in rows {
        if !has_type(doc, &path.split('.').collect::<Vec<_>>(), *ty) {
            return Err(format!("{schema}: `{path}` is missing or not {ty:?}"));
        }
    }
    Ok(schema)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Value {
        Value::from(v)
    }

    #[test]
    fn writer_escapes_quotes_backslashes_and_control_characters() {
        assert_eq!(s("plain é 😀").to_string(), "\"plain é 😀\"");
        assert_eq!(s("a\"b\\c").to_string(), r#""a\"b\\c""#);
        assert_eq!(
            s("l1\nl2\tx\r\u{1}\u{1f}\u{0}").to_string(),
            r#""l1\nl2\tx\r\u0001\u001f\u0000""#
        );
    }

    #[test]
    fn writer_numbers_and_layout() {
        assert_eq!(Value::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Value::from(-5i8).to_string(), "-5");
        assert_eq!(Value::from(2.0).to_string(), "2.0");
        assert_eq!(Value::from(1e-7).to_string(), "1e-7");
        assert_eq!(Value::from(f64::NAN).to_string(), "null");
        assert_eq!(Value::from(None::<u64>).to_string(), "null");
        let flat = Value::object([("a", Value::from(1u64)), ("b", Value::Array(vec![]))]);
        assert_eq!(flat.to_string(), r#"{"a": 1, "b": []}"#);
        let nested = Value::object([("k", [1u64, 2].into_iter().collect()), ("x", true.into())]);
        assert_eq!(nested.to_string(), "{\n  \"k\": [1, 2],\n  \"x\": true\n}");
    }

    #[test]
    fn parser_accepts_rfc_8259() {
        let v = parse(
            " {\"a\": [1, -0.5e+2, true, false, null], \"b\": \"\\u00e9\\ud83d\\ude00\\/\"}\n",
        )
        .expect("valid");
        assert_eq!(v["a"][0], Value::Int(1));
        assert_eq!(v["a"][1], Value::Float(-50.0));
        assert_eq!(v["a"][4], Value::Null);
        assert_eq!(v["b"], s("é😀/"));
        assert_eq!(v["missing"][3], Value::Null);
        assert_eq!(parse("1E3"), Ok(Value::Float(1000.0)));
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "[1, 2,]",
            "{\"a\": 1,}",
            "\"\\x\"",
            "\"a\tb\"",
            "\"\\ud800\"",
            "\"\\udc00\"",
            "\"abc",
            "{\"a\": [1, 2",
            "01",
            "1.",
            "-",
            "1e",
            "+1",
            ".5",
            "tru",
            "NaN",
            "{\"a\": 1, \"a\": 2}",
            "{1: 2}",
            "{\"a\" 1}",
            "[1 2]",
            "{} x",
            "\"metrics\" \"spans\" \"git_commit\"",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
    }

    #[test]
    fn schema_check_types_required_keys() {
        let text = r#"{"schema": "mpise-difftest/v1",
            "provenance": {"git_commit": "x", "host": "h", "timestamp": "t", "unix_secs": 1},
            "modes": {"isa_fuzz": {"failures": []}, "kernel_difftest": {"failures": ["a"]},
                      "kat_corpus": {"failures": []}},
            "pass": false}"#;
        let check = |text: &str| check_artifact(&parse(text).expect("valid"));
        assert_eq!(check(text), Ok("mpise-difftest/v1"));
        for (from, to, path) in [
            ("[\"a\"]", "[1]", "`modes.*.failures.*`"),
            ("\"pass\": false", "\"pass\": \"no\"", "`pass`"),
            ("\"git_commit\": \"x\", ", "", "`provenance.git_commit`"),
            ("\"kat_corpus\"", "\"kat\"", "`modes.kat_corpus`"),
        ] {
            let err = check(&text.replace(from, to)).unwrap_err();
            assert!(err.contains(path), "{err}");
        }
        assert!(check(r#"{"schema": "other/v9"}"#).is_err());
        assert!(check("[]").is_err());
    }
}
