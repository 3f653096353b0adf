//! A small JSON value with an emitter and a parser — the result line, the
//! history file, the trace file and `BENCHMARK.json` all go through it, so
//! the package needs no crate from outside the repository.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so emitted files diff cleanly.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Value>),
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(o) => Some(o),
            _ => None,
        }
    }

    /// Compact single-line encoding. Non-finite numbers become `null`
    /// (JSON has no spelling for them).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, false);
        out
    }

    /// Single-line encoding with a space after every `,` and `:`, for files
    /// people read.
    pub fn encode_spaced(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, true);
        out
    }

    fn write(&self, out: &mut String, spaced: bool) {
        let (comma, colon) = if spaced { (", ", ": ") } else { (",", ":") };
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(n) if n.is_finite() => {
                // Rust prints the shortest digits that round-trip, so a
                // measured value keeps every digit it has.
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    v.write(out, spaced);
                }
                out.push(']');
            }
            Value::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(comma);
                    }
                    write_str(out, k);
                    out.push_str(colon);
                    v.write(out, spaced);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&bt_obs::profile::json_escape(s));
    out.push('"');
}

/// Parses one JSON document.
///
/// # Errors
/// Returns the byte offset and what was expected there.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("end of document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, expected: &str) -> String {
        format!("JSON: expected {expected} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.skip_ws();
                if self.eat("}") {
                    return Ok(Value::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    if !self.eat(":") {
                        return Err(self.err("':'"));
                    }
                    members.push((key, self.value()?));
                    self.skip_ws();
                    if self.eat("}") {
                        return Ok(Value::Obj(members));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or '}'"));
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.eat("]") {
                    return Ok(Value::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    if self.eat("]") {
                        return Ok(Value::Arr(items));
                    }
                    if !self.eat(",") {
                        return Err(self.err("',' or ']'"));
                    }
                }
            }
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Value::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.pos;
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Num)
                    .ok_or_else(|| self.err("a number"))
            }
            _ => Err(self.err("a value")),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("'\"'"));
        }
        let mut out = Vec::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or_else(|| self.err("closing '\"'"))?;
            self.pos += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.err("UTF-8")),
                b'\\' => {
                    let e = *self.bytes.get(self.pos).ok_or_else(|| self.err("an escape"))?;
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.err("four hex digits of a scalar value"))?;
                            self.pos += 4;
                            out.extend_from_slice(hex.encode_utf8(&mut [0; 4]).as_bytes());
                        }
                        _ => return Err(self.err("a known escape")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emitter_and_parser_round_trip() {
        let v = Value::obj([
            ("correct", Value::Bool(true)),
            ("attempted", Value::Num(1000.0)),
            ("failed", Value::Num(0.0)),
            (
                "metrics",
                Value::obj([(
                    "op_ms_p50",
                    Value::obj([
                        ("value", Value::Num(412.034_567_891_234_5)),
                        ("unit", Value::Str("ms".into())),
                    ]),
                )]),
            ),
            ("note", Value::Str("tab\t quote\" slash\\ nl\n é ✓".into())),
            (
                "list",
                Value::Arr(vec![Value::Null, Value::Num(-1.5e-9), Value::Arr(vec![])]),
            ),
        ]);
        let text = v.encode();
        assert!(!text.contains('\n'), "one line: {text}");
        assert!(
            text.contains("\"attempted\":1000,"),
            "whole numbers print without a fraction: {text}"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn measured_values_keep_all_digits() {
        let x = 1.203_456_789_012_345_6_f64;
        let back = parse(&Value::Num(x).encode()).unwrap().as_f64().unwrap();
        assert_eq!(back.to_bits(), x.to_bits());
    }

    #[test]
    fn malformed_documents_are_errors() {
        for bad in ["", "{", "{\"a\" 1}", "[1,]", "tru", "{\"a\":1} x", "\"\\q\"", "1e"] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Value::Num(f64::NAN).encode(), "null");
    }
}
