//! A minimal JSON reader and writer.
//!
//! The workspace is dependency-free by policy (the vendored `serde` is a
//! binary codec, not a JSON one), and the serve protocol only needs flat
//! request objects, so a ~150-line recursive-descent parser is the whole
//! story. Numbers must match RFC 8259's grammar and are kept as `f64`; the
//! protocol's only numeric fields are ids and node counts, which
//! [`Value::as_u64`] admits only below 2^53, where every integer has an
//! `f64` of its own, so no id is ever rounded into another.
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

    /// The number as a non-negative integer below 2^53, if it is one
    /// exactly. Larger integers are refused: 2^53 + 1 already parses to the
    /// same `f64` as 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < 2f64.powi(53) => Some(*n as u64),
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

/// Parse the run of number characters at `pos`, which must match
/// RFC 8259's `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` whole.
fn parse_number(b: &[u8], pos: &mut usize) -> Result<f64, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let run = &b[start..*pos];
    std::str::from_utf8(run)
        .ok()
        .filter(|_| is_json_number(run))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad number at byte {start}"))
}

/// Does `s` match RFC 8259's number grammar?
fn is_json_number(s: &[u8]) -> bool {
    let mut i = 0;
    let digits = |i: &mut usize| {
        let from = *i;
        while s.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    if s.get(i) == Some(&b'-') {
        i += 1;
    }
    match s.get(i) {
        Some(b'0') => i += 1,
        Some(b'1'..=b'9') => {
            digits(&mut i);
        }
        _ => return false,
    }
    if s.get(i) == Some(&b'.') {
        i += 1;
        if !digits(&mut i) {
            return false;
        }
    }
    if matches!(s.get(i), Some(b'e' | b'E')) {
        i += 1;
        if matches!(s.get(i), Some(b'+' | b'-')) {
            i += 1;
        }
        if !digits(&mut i) {
            return false;
        }
    }
    i == s.len()
}

/// Read the four hex digits of a `\u` escape at `pos`.
fn parse_hex4(b: &[u8], pos: &mut usize) -> Result<u32, String> {
    let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
    // `from_str_radix` alone would also take a sign: `\u+041`.
    let code = std::str::from_utf8(hex)
        .ok()
        .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or("bad \\u escape")?;
    *pos += 4;
    Ok(code)
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
                        let mut code = parse_hex4(b, pos)?;
                        // A high surrogate followed by an escaped low one
                        // is one scalar; a lone surrogate becomes U+FFFD.
                        if (0xd800..0xdc00).contains(&code) && b[*pos..].starts_with(b"\\u") {
                            let mut after = *pos + 2;
                            let low = parse_hex4(b, &mut after)?;
                            if (0xdc00..0xe000).contains(&low) {
                                code = 0x1_0000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                                *pos = after;
                            }
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("unknown escape '\\{}'", *other as char)),
                }
            }
            Some(_) => {
                // Copy the run of plain characters up to the next quote or
                // backslash as one slice. Both are ASCII, so the run ends
                // on a char boundary, and each byte is validated once.
                let end = b[*pos..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| *pos + n);
                let run = std::str::from_utf8(&b[*pos..end]).map_err(|_| "invalid UTF-8")?;
                out.push_str(run);
                *pos = end;
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
        // A surrogate pair is one scalar; a lone or mismatched surrogate
        // becomes U+FFFD, one per escape.
        for (text, want) in [
            (r#""\ud83d\ude00""#, "😀"),
            (r#""\uD834\uDD1E""#, "𝄞"),
            (r#""\ud800""#, "\u{fffd}"),
            (r#""\udc00x""#, "\u{fffd}x"),
            (r#""\ud83d\u0041""#, "\u{fffd}A"),
            (r#""\ud83d\ud83d\ude00""#, "\u{fffd}😀"),
        ] {
            assert_eq!(parse(text).unwrap().as_str(), Some(want), "{text}");
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // Serve admits request lines up to 1 MiB, so parse time must stay
        // linear in the length of one string value.
        let unit = "plain text aé€𝄞 \"quoted\" back\\slash\n";
        let s = unit.repeat(512 * 1024 / unit.len() + 1);
        let doc = format!("{{\"k\": \"{}\"}}", escape(&s));
        let t0 = std::time::Instant::now();
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").and_then(Value::as_str), Some(s.as_str()));
        assert!(t0.elapsed().as_secs_f64() < 2.0, "took {:?}", t0.elapsed());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("{1: 2}").is_err());
        for bad in ["+1", ".5", "01", "1.", "-", "1e", "1.e3", "-01", "1e+"] {
            assert_eq!(parse(bad), Err("bad number at byte 0".into()), "{bad}");
        }
        assert_eq!(
            parse(r#"{"id": +1}"#),
            Err("bad number at byte 7".into()),
            "a signed id"
        );
        assert_eq!(parse(r#""\u+041""#), Err("bad \\u escape".into()));
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
        assert_eq!(parse("0").unwrap().as_u64(), Some(0));
        assert_eq!(parse("-0").unwrap().as_f64(), Some(0.0));
        assert_eq!(parse("1E+2").unwrap().as_u64(), Some(100));
        assert_eq!(parse("0.5e-1").unwrap().as_f64(), Some(0.05));
        assert_eq!(parse("true").unwrap().as_bool(), Some(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("1.5").unwrap().as_u64(), None);
        assert_eq!(
            parse("9007199254740991").unwrap().as_u64(),
            Some((1 << 53) - 1)
        );
        // 2^53 + 1 parses to the same f64 as 2^53: refuse both.
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
    }
}
