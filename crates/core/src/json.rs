//! A minimal JSON reader and writer.
//!
//! The workspace is dependency-free by policy (the vendored `serde` is a
//! binary codec, not a JSON one), and the serve protocol only needs flat
//! request objects, so a ~150-line recursive-descent parser is the whole
//! story. Numbers are kept as `f64` — the protocol's only numeric fields
//! are ids and node counts, both well inside the exact-integer range.
//!
//! `Writer` renders the pretty-printed `BENCH_host.json` snapshot
//! (`hostbench`). Serve formats its compact wire responses itself, with
//! [`escape`]: perfbench's traced what-if run rebuilds those bytes on its
//! own and compares them, so they must not depend on a writer shared with
//! the snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes resolved).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. Sorted keys — the protocol never uses duplicate keys and
    /// responses are emitted by hand, so ordering here is irrelevant.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Object field lookup (`None` on non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The boolean, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The protocol nests
/// three levels; the bound keeps a hostile line of brackets from
/// overflowing the recursive descent's stack.
const MAX_DEPTH: usize = 64;

/// Parse one JSON document, requiring it to consume the whole input.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parse the value at `pos`, which sits inside `depth` open containers.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos, depth + 1)? {
                    Value::Str(s) => s,
                    other => return Err(format!("object key must be a string, got {other:?}")),
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return Err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true").map(|_| Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false").map(|_| Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null").map(|_| Value::Null),
        Some(_) => parse_number(b, pos).map(Value::Num),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        *pos += 4;
                        // Surrogate pairs are not needed by the protocol;
                        // map lone surrogates to the replacement character.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte sequences included).
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|_| "invalid UTF-8")?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

/// Escape `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Ordered, pretty-printing JSON writer: two-space indentation, one
/// member per line, members in call order. It owns the commas, the
/// indentation and string escaping, so callers only name keys and values.
/// Non-finite numbers render as `null`, so the output always parses.
pub(crate) struct Writer {
    out: String,
    depth: usize,
}

impl Writer {
    /// Render a document whose root object holds what `body` writes.
    pub fn document(body: impl FnOnce(&mut Writer)) -> String {
        let mut w = Writer {
            out: String::from("{"),
            depth: 1,
        };
        body(&mut w);
        w.out.push_str("\n}\n");
        w.out
    }

    /// Member `key`: an object holding what `body` writes.
    pub fn object(&mut self, key: &str, body: impl FnOnce(&mut Self)) -> &mut Self {
        self.container(Some(key), ('{', '}'), body)
    }

    /// Member `key`: an array of one object per item, each holding what
    /// `row` writes for that item.
    pub fn array<T>(
        &mut self,
        key: &str,
        items: impl IntoIterator<Item = T>,
        mut row: impl FnMut(&mut Self, T),
    ) -> &mut Self {
        self.container(Some(key), ('[', ']'), |w| {
            for item in items {
                w.container(None, ('{', '}'), |w| row(w, item));
            }
        })
    }

    /// Member `key`: a string.
    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.member(Some(key));
        self.quoted(value);
        self
    }

    /// Member `key`: a number with `decimals` fractional digits.
    pub fn num(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
        self.member(Some(key));
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Member `key`: an integer.
    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.member(Some(key));
        let _ = write!(self.out, "{value}");
        self
    }

    /// Member `key`: `null`.
    pub fn null(&mut self, key: &str) -> &mut Self {
        self.member(Some(key));
        self.out.push_str("null");
        self
    }

    fn container(
        &mut self,
        key: Option<&str>,
        (open, close): (char, char),
        body: impl FnOnce(&mut Self),
    ) -> &mut Self {
        self.member(key);
        self.out.push(open);
        self.depth += 1;
        body(self);
        self.depth -= 1;
        self.newline();
        self.out.push(close);
        self
    }

    /// Separate from the previous member, indent, and write `"key": `.
    /// Only a container just opened leaves the output ending in a bracket:
    /// every value ends in a digit, a letter, a quote or a close bracket.
    fn member(&mut self, key: Option<&str>) {
        if !self.out.ends_with(['{', '[']) {
            self.out.push(',');
        }
        self.newline();
        if let Some(key) = key {
            self.quoted(key);
            self.out.push_str(": ");
        }
    }

    fn newline(&mut self) {
        self.out.push('\n');
        self.out.push_str(&"  ".repeat(self.depth));
    }

    fn quoted(&mut self, s: &str) {
        self.out.push('"');
        self.out.push_str(&escape(s));
        self.out.push('"');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_pretty_prints_in_call_order() {
        let doc = Writer::document(|w| {
            w.object("b", |w| {
                w.int("n", 7).num("x", 2.5, 3).null("z");
            });
            w.array("a", ["q\"uote\\", ""], |w, s| {
                if !s.is_empty() {
                    w.str("s", s);
                }
            });
            w.array("empty", [(); 0], |_, _| {})
                .num("inf", f64::INFINITY, 1);
        });
        let want = "{\n  \"b\": {\n    \"n\": 7,\n    \"x\": 2.500,\n    \"z\": null\n  },\n  \
                    \"a\": [\n    {\n      \"s\": \"q\\\"uote\\\\\"\n    },\n    {\n    }\n  ],\n  \
                    \"empty\": [\n  ],\n  \"inf\": null\n}\n";
        assert_eq!(doc, want);
        parse(&doc).expect("the writer's output parses");
    }

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id": 3, "queries": [{"app":"alya","nodes":16,"io":true}]}"#).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(3));
        let q = &v.get("queries").unwrap().as_array().unwrap()[0];
        assert_eq!(q.get("app").unwrap().as_str(), Some("alya"));
        assert_eq!(q.get("nodes").unwrap().as_u64(), Some(16));
        assert_eq!(q.get("io").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndA"));
        assert_eq!(escape("a\"b\\c\nd"), r#"a\"b\\c\nd"#);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{1: 2}").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.starts_with("nesting deeper than 64 levels"), "{err}");
    }

    #[test]
    fn numbers_and_literals() {
        assert_eq!(parse("-2.5e3").unwrap().as_f64(), Some(-2500.0));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
    }
}
