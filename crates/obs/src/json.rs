//! The workspace's one JSON writer and its minimal recursive-descent
//! parser (pure std).
//!
//! Every JSON document the workspace emits outside `benchmark/` — event
//! lines, series, CLI output, figure reports, the audit report — is
//! written through [`object`]: a compact writer that appends
//! into the caller's `String`, escapes every string and key, and
//! separates fields itself, so no caller formats a quote, comma or brace.
//! Numbers follow one rule: integers and `bool`s render exactly, finite
//! `f64`s use Rust's shortest-roundtrip `Display`, and a non-finite `f64`
//! renders as `0`, so every line parses.
//!
//! [`parse`] reads that JSON back without external crates, for tests and
//! the benchmark's result files. It supports the full grammar the writer
//! produces: objects, arrays, strings with escapes, numbers (parsed as
//! `f64`), booleans and `null`. It rejects trailing input, and nesting
//! deeper than [`MAX_DEPTH`] (the parser recurses once per level, so
//! unbounded nesting would overflow the stack). `InOrder` reads an object
//! whose keys and their order are known — an event line as the writer
//! wrote it — in place: `ObsEvent::from_json_line` and
//! `RecordingSink::evicted_of` read every JSONL line through it.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, as `f64`.
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `&str`, when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as `f64`, when it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `u64`, when it is a non-negative integral number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a bool, when it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's fields, when it is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The value's elements, when it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Appends `s` as a JSON string literal, quotes included. Strings that
/// need no escaping (every key, registry tag and series name the
/// workspace itself produces) are copied whole.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    if !needs_escape(s) {
        out.push_str(s);
        out.push('"');
        return;
    }
    for c in s.chars() {
        match c {
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
    out.push('"');
}

/// Whether `s` holds a byte JSON requires escaped: a control character,
/// `"` or `\`. A table lookup folded over every byte, without an early
/// exit, keeps this check cheap on the short strings the writer sees.
fn needs_escape(s: &str) -> bool {
    const ESCAPED: [bool; 256] = {
        let mut table = [false; 256];
        let mut b = 0;
        while b < 0x20 {
            table[b] = true;
            b += 1;
        }
        table[b'"' as usize] = true;
        table[b'\\' as usize] = true;
        table
    };
    s.bytes()
        .fold(false, |esc, b| esc | ESCAPED[usize::from(b)])
}

/// Appends one compact JSON object to `out`; `fill` writes its fields.
pub fn object(out: &mut String, fill: impl FnOnce(&mut Obj<'_>)) {
    Val(out).obj(fill);
}

/// The fields of an object being written by [`object`] or [`Val::obj`].
pub struct Obj<'a> {
    out: &'a mut String,
    first: bool,
}

impl Obj<'_> {
    /// Starts the field `key`, an identifier that needs no escaping; the
    /// returned [`Val`] writes its value.
    // Runs once per field of every event line. The compiler does not
    // inline it into the large generated `ObsEvent::write_json` by
    // itself; called, and with `push_str` for the punctuation, it cost
    // about 35 ns an event (+25 %) against the per-kind key literals this
    // writer replaced. Inlined with single-byte pushes the gap is ≈ 8 ns.
    #[inline(always)]
    pub fn key(&mut self, key: &'static str) -> Val<'_> {
        debug_assert!(!needs_escape(key), "JSON key {key:?} needs escaping");
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out.push('"');
        self.out.push_str(key);
        self.out.push('"');
        self.out.push(':');
        Val(self.out)
    }
}

/// The elements of an array being written by [`Val::arr`].
pub struct Arr<'a> {
    out: &'a mut String,
    first: bool,
}

impl Arr<'_> {
    /// Starts the next element; the returned [`Val`] writes it.
    pub fn item(&mut self) -> Val<'_> {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        Val(self.out)
    }
}

/// One value slot: a field of an [`Obj`] or an element of an [`Arr`].
/// Exactly one of its methods writes the value.
#[must_use = "a key or array slot needs its value written"]
pub struct Val<'a>(&'a mut String);

impl Val<'_> {
    /// A string, escaped.
    pub fn str(self, v: &str) {
        write_str(self.0, v);
    }

    /// An unsigned integer.
    pub fn u64(self, v: u64) {
        self.num(v);
    }

    /// A signed integer.
    pub fn i64(self, v: i64) {
        self.num(v);
    }

    /// A float in shortest-roundtrip form; a non-finite one renders as
    /// `0`, JSON having no NaN or infinity.
    pub fn f64(self, v: f64) {
        if v.is_finite() {
            self.num(v);
        } else {
            self.0.push('0');
        }
    }

    /// `true` or `false`.
    pub fn bool(self, v: bool) {
        self.0.push_str(if v { "true" } else { "false" });
    }

    /// `null`.
    pub fn null(self) {
        self.0.push_str("null");
    }

    /// A number, written with its `Display`.
    fn num(self, text: impl std::fmt::Display) {
        let _ = write!(self.0, "{text}");
    }

    /// A nested object; `fill` writes its fields.
    pub fn obj(self, fill: impl FnOnce(&mut Obj<'_>)) {
        self.0.push('{');
        fill(&mut Obj {
            out: &mut *self.0,
            first: true,
        });
        self.0.push('}');
    }

    /// A nested array; `fill` writes its elements.
    pub fn arr(self, fill: impl FnOnce(&mut Arr<'_>)) {
        self.0.push('[');
        fill(&mut Arr {
            out: &mut *self.0,
            first: true,
        });
        self.0.push(']');
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts: far deeper
/// than any document the workspace writes.
pub const MAX_DEPTH: usize = 128;

/// Parses `input` as a single JSON value, rejecting trailing input and
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos, MAX_DEPTH)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

/// Reads one object whose keys are known in advance and stand in a known
/// order, in the compact form [`object`] writes them (`{"a":1,"b":"x"}`),
/// without building a map. Each step names the key it expects; any other
/// text — whitespace outside a value, another key or order, an escaped
/// key, a repeated or a missing one — makes it return `None`. So an
/// object read here is one [`parse`] reads to the same keys and values.
pub(crate) struct InOrder<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> InOrder<'a> {
    /// Opens `input`, which must start with `{`.
    pub(crate) fn new(input: &'a str) -> Option<Self> {
        let b = input.as_bytes();
        (b.first() == Some(&b'{')).then_some(InOrder { b, pos: 1 })
    }

    /// Steps past `"key":`, preceded by a `,` unless it is the first key.
    fn key(&mut self, key: &str) -> Option<()> {
        if self.pos > 1 {
            self.expect(b",")?;
        }
        self.expect(b"\"")?;
        self.expect(key.as_bytes())?;
        self.expect(b"\":")
    }

    fn expect(&mut self, text: &[u8]) -> Option<()> {
        let end = self.pos + text.len();
        (self.b.get(self.pos..end)? == text).then(|| self.pos = end)
    }

    /// The value of the next member, which must be `key`, starting right
    /// after its `:`.
    pub(crate) fn value(&mut self, key: &str) -> Option<Value> {
        self.key(key)?;
        if matches!(self.b.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            return None;
        }
        parse_value(self.b, &mut self.pos, MAX_DEPTH - 1).ok()
    }

    /// The next member's string value, borrowed from the input, when the
    /// member is `key` and its value a string without escapes.
    pub(crate) fn str(&mut self, key: &str) -> Option<&'a str> {
        self.key(key)?;
        self.expect(b"\"")?;
        let len = self.b[self.pos..]
            .iter()
            .position(|c| matches!(c, b'"' | b'\\'))?;
        let start = self.pos;
        self.pos += len;
        self.expect(b"\"")?;
        std::str::from_utf8(&self.b[start..start + len]).ok()
    }

    /// Closes the object: `}` and the end of the input.
    pub(crate) fn finish(mut self) -> Option<()> {
        self.expect(b"}")?;
        (self.pos == self.b.len()).then_some(())
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value; `depth` is how many more levels of arrays and
/// objects may open.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == 0 => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(b, pos, depth - 1),
        Some(b'[') => parse_array(b, pos, depth - 1),
        Some(b'"') => parse_string(b, pos).map(Value::Str),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(b, pos),
        Some(c) => Err(format!("unexpected byte {:?} at {}", *c as char, *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    // A short run of plain digits, which is every integer the workspace
    // writes, is read as it is scanned: below 10^15 < 2^53 every integer
    // is an exact f64, the very value `str::parse` rounds it to.
    let digits = *pos;
    let mut n = 0u64;
    while let Some(d) = b.get(*pos).filter(|c| c.is_ascii_digit()) {
        n = n.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *pos += 1;
    }
    let integer = !matches!(b.get(*pos), Some(b'.' | b'e' | b'E' | b'+' | b'-'));
    if integer && (1..=15).contains(&(*pos - digits)) {
        let n = n as f64;
        return Ok(Value::Num(if digits > start { -n } else { n }));
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Value::Num)
        .map_err(|_| format!("invalid number {text:?} at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash whole. Both
                // are ASCII, so in the valid &str input the run ends on a
                // char boundary.
                let len = b[*pos..]
                    .iter()
                    .position(|c| matches!(c, b'"' | b'\\'))
                    .unwrap_or(b.len() - *pos);
                let run = std::str::from_utf8(&b[*pos..*pos + len]).map_err(|e| e.to_string())?;
                out.push_str(run);
                *pos += len;
            }
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '{'
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        let value = parse_value(b, pos, depth)?;
        map.insert(key, value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize, depth: usize) -> Result<Value, String> {
    *pos += 1; // '['
    let mut arr = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(arr));
    }
    loop {
        let value = parse_value(b, pos, depth)?;
        arr.push(value);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(arr));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(r#"{"a":[1,2.5,-3],"b":{"c":true,"d":null},"s":"x\ny"}"#).unwrap();
        let obj = v.as_object().unwrap();
        let arr = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].as_f64(), Some(2.5));
        assert_eq!(arr[2].as_f64(), Some(-3.0));
        let b = obj.get("b").unwrap().as_object().unwrap();
        assert_eq!(b.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(b.get("d"), Some(&Value::Null));
        assert_eq!(obj.get("s").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn rejects_trailing_and_malformed_input() {
        assert!(parse("{} x").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("").is_err());
    }

    /// Short plain integers skip `str::parse`, to the same value.
    #[test]
    fn numbers_read_as_str_parse_reads_them() {
        for text in [
            "0",
            "-0",
            "7",
            "007",
            "-42",
            "123456789012345",
            "999999999999999",
            "1234567890123456",
            "9007199254740993",
            "-9007199254740993",
            "5.5",
            "1e3",
            "-1E-2",
            "2.",
            "1e309",
        ] {
            let want: f64 = text.parse().expect("a number");
            let got = parse(text).expect("parses").as_f64().expect("a number");
            assert_eq!(got.to_bits(), want.to_bits(), "{text}");
        }
        for bad in ["-", "1-2", "1e", "--1", "1.2.3"] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |levels| format!("{}{}", "[".repeat(levels), "]".repeat(levels));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        assert!(parse(&"{\"k\":".repeat(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn parses_empty_containers_and_unicode() {
        assert_eq!(parse("{}").unwrap(), Value::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(parse("\"\\u0041é\"").unwrap().as_str(), Some("Aé"));
    }

    #[test]
    fn written_strings_parse_back_to_themselves() {
        for s in [
            "",
            "lc1-v2_ok",
            "a\"b\\c",
            "x\ny\rz\t",
            "\u{1}\u{1f}é\u{1F600}",
        ] {
            let mut lit = String::new();
            write_str(&mut lit, s);
            assert_eq!(parse(&lit).unwrap().as_str(), Some(s), "{lit}");
        }
        let mut lit = String::new();
        write_str(&mut lit, "lc1-v2_ok");
        assert_eq!(lit, "\"lc1-v2_ok\"");
    }

    #[test]
    fn writer_is_compact_and_parses_back() {
        let mut out = String::from("prefix ");
        object(&mut out, |o| {
            o.key("s").str("a\"b");
            o.key("u").u64(u64::MAX);
            o.key("i").i64(-7);
            o.key("f").f64(0.25);
            o.key("t").bool(true);
            o.key("n").null();
            o.key("raw").num(format_args!("{}.{:03}", 12, 5));
            o.key("o").obj(|_| {});
            o.key("a").arr(|a| {
                a.item().u64(1);
                a.item().obj(|o| o.key("k").bool(false));
                a.item().arr(|_| {});
            });
        });
        let doc = out.strip_prefix("prefix ").unwrap();
        assert_eq!(
            doc,
            "{\"s\":\"a\\\"b\",\"u\":18446744073709551615,\"i\":-7,\"f\":0.25,\"t\":true,\
             \"n\":null,\"raw\":12.005,\"o\":{},\"a\":[1,{\"k\":false},[]]}"
        );
        let v = parse(doc).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.get("s").unwrap().as_str(), Some("a\"b"));
        assert_eq!(obj.get("raw").unwrap().as_f64(), Some(12.005));
        assert_eq!(obj.get("a").unwrap().as_array().unwrap().len(), 3);
    }

    #[test]
    fn non_finite_floats_render_as_zero() {
        let mut out = String::new();
        object(&mut out, |o| {
            for (key, v) in [
                ("nan", f64::NAN),
                ("inf", f64::INFINITY),
                ("ninf", -f64::INFINITY),
            ] {
                o.key(key).f64(v);
            }
            o.key("neg").f64(-1.5e-7);
        });
        assert_eq!(out, "{\"nan\":0,\"inf\":0,\"ninf\":0,\"neg\":-0.00000015}");
        parse(&out).unwrap();
    }

    #[test]
    fn integral_check_guards_as_u64() {
        assert_eq!(parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse("7.5").unwrap().as_u64(), None);
        assert_eq!(parse("-7").unwrap().as_u64(), None);
    }
}
