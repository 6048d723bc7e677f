//! A hand-rolled JSON value, encoder, and parser.
//!
//! The build environment vendors no external crates, so structured
//! emission cannot lean on serde. [`Json`] is a small document model
//! with a compact writer ([`Json::to_compact`]), a pretty writer
//! ([`Json::to_pretty`]) and a strict parser ([`parse`]), so reports
//! can be validated without leaving Rust.
//!
//! Object keys keep insertion order — reports read top-to-bottom the
//! way they were built.
//!
//! Keys and string values are [`Text`]: a literal is borrowed, so a
//! node built from literals (a trace event, millions of times) costs
//! no allocation for its text.

use std::borrow::Cow;
use std::fmt::Write as _;

/// The text of a string value or an object key: a borrowed literal
/// ([`Text::lit`]) or an owned string. Two texts are equal when their
/// contents are, whichever way each is held.
#[derive(Clone, PartialEq, Eq)]
pub struct Text(Cow<'static, str>);

impl Text {
    /// A literal, borrowed for the life of the program.
    pub const fn lit(s: &'static str) -> Text {
        Text(Cow::Borrowed(s))
    }

    /// The contents.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::ops::Deref for Text {
    type Target = str;
    fn deref(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Debug for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

impl std::fmt::Display for Text {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self)
    }
}

impl From<String> for Text {
    fn from(s: String) -> Text {
        Text(Cow::Owned(s))
    }
}

impl From<&str> for Text {
    fn from(s: &str) -> Text {
        Text(Cow::Owned(s.to_string()))
    }
}

impl PartialEq<str> for Text {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Text {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialEq<String> for Text {
    fn eq(&self, other: &String) -> bool {
        self.as_str() == other
    }
}

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`. Also what non-finite floats encode to.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer (parser only produces this for values < 0).
    I64(i64),
    /// A finite float.
    F64(f64),
    /// A string.
    Str(Text),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(Text, Json)>),
}

impl Json {
    /// An empty object, for builder-style construction.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Add or replace a field (builder style).
    pub fn field(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => {
                match fields.iter_mut().find(|(k, _)| k == key) {
                    Some((_, v)) => *v = value.into(),
                    None => fields.push((key.into(), value.into())),
                }
                self
            }
            _ => panic!("Json::field on a non-object"),
        }
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value as `f64`, if this is any number.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(v) => Some(v as f64),
            Json::I64(v) => Some(v as f64),
            Json::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Single-line encoding.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    /// Append the single-line encoding to `out`.
    pub fn write_compact(&self, out: &mut String) {
        self.write(out, None, 0);
    }

    /// Indented multi-line encoding (two-space indent).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::U64(v) => write_u64(out, *v),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                });
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                });
            }
        }
    }
}

fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(w) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', w * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(w) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', w * depth));
    }
    out.push(close);
}

/// Decimal digits of `v`, without the `fmt` machinery.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"));
}

/// Everything that needs escaping is one ASCII byte, so the runs in
/// between — the whole string, usually — are appended as slices.
fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut clean_from = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[clean_from..i]);
        clean_from = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[clean_from..]);
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}
impl From<u32> for Json {
    fn from(v: u32) -> Json {
        Json::U64(v as u64)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Json {
        if v >= 0 {
            Json::U64(v as u64)
        } else {
            Json::I64(v)
        }
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::F64(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.into())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v.into())
    }
}
impl From<Text> for Json {
    fn from(v: Text) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}
impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        match v {
            Some(v) => v.into(),
            None => Json::Null,
        }
    }
}

/// A parse failure: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable description.
    pub message: String,
    /// Byte offset in the input.
    pub at: usize,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (trailing whitespace allowed,
/// trailing garbage rejected).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(self.string()?.into()),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key.into(), value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates are rejected rather than paired:
                            // the encoder never emits them.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("\\u escape is not a scalar value"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume a maximal run of plain characters in one
                    // slice. The delimiters (quote, backslash, control
                    // bytes) are all ASCII, so stopping on them never
                    // splits a UTF-8 scalar, and validating only the
                    // run keeps parsing linear in the document size.
                    let start = self.pos;
                    while let Some(&c) = self.bytes.get(self.pos) {
                        if c == b'"' || c == b'\\' || c < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let s =
                        std::str::from_utf8(&self.bytes[start..self.pos]).expect("input was utf-8");
                    out.push_str(s);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if !is_float {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Json::I64(v));
            }
        }
        text.parse::<f64>()
            .map(Json::F64)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_encoding() {
        let doc = Json::obj()
            .field("name", "whisper")
            .field("n", 42u64)
            .field("frac", 0.25)
            .field("ok", true)
            .field("missing", Json::Null)
            .field("list", Json::Arr(vec![1u64.into(), 2u64.into()]));
        assert_eq!(
            doc.to_compact(),
            r#"{"name":"whisper","n":42,"frac":0.25,"ok":true,"missing":null,"list":[1,2]}"#
        );
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote\" backslash\\ newline\n tab\t ctrl\u{1} unicode\u{30c4}";
        let doc = Json::from(nasty);
        let enc = doc.to_compact();
        assert_eq!(parse(&enc).unwrap(), doc);
    }

    #[test]
    fn encoder_output_parses_back_identically() {
        let doc = Json::obj()
            .field("a", Json::Arr(vec![Json::Null, false.into(), 3.5.into()]))
            .field("b", Json::obj().field("nested", 7u64))
            .field("c", "s");
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).to_compact(), "null");
        assert_eq!(Json::F64(f64::INFINITY).to_compact(), "null");
    }

    #[test]
    fn field_replaces_existing_key() {
        let doc = Json::obj().field("k", 1u64).field("k", 2u64);
        assert_eq!(doc.get("k"), Some(&Json::U64(2)));
        assert_eq!(doc.to_compact(), r#"{"k":2}"#);
    }

    #[test]
    fn integers_print_their_digits() {
        assert_eq!(Json::U64(0).to_compact(), "0");
        assert_eq!(Json::U64(u64::MAX).to_compact(), "18446744073709551615");
        // Around every change of length: 9|10, 99|100, …
        let mut power = 1u64;
        while let Some(next) = power.checked_mul(10) {
            for v in [next - 1, next] {
                assert_eq!(Json::U64(v).to_compact(), v.to_string());
            }
            power = next;
        }
    }

    #[test]
    fn escapes_between_clean_runs() {
        // Every escaped class, between and beside runs that are copied
        // whole, some of them multi-byte.
        let text = "plain\"q\\b\nn\rr\tt\u{0}\u{1f}\u{7f}é\u{30c4}\"\"\u{1f980}";
        assert_eq!(
            Json::from(text).to_compact(),
            "\"plain\\\"q\\\\b\\nn\\rr\\tt\\u0000\\u001f\u{7f}é\u{30c4}\\\"\\\"\u{1f980}\""
        );
        assert_eq!(parse(&Json::from(text).to_compact()).unwrap(), text.into());
        for clean in ["", "x", "é", "no escapes at all"] {
            assert_eq!(Json::from(clean).to_compact(), format!("\"{clean}\""));
        }
    }

    #[test]
    fn a_literal_is_its_content() {
        let (lit, owned) = (Text::lit("key"), Text::from(String::from("key")));
        assert_eq!(lit, owned);
        let string = String::from("key");
        assert!(lit == "key" && lit == *"key" && lit == string);
        assert_ne!(lit, Text::lit("other"));
        assert_eq!(format!("{lit} {lit:?} {}", lit.len()), "key \"key\" 3");

        // Lookup and replacement go by content, whichever way the key
        // is held, and both forms encode the same.
        let borrowed = Json::Obj(vec![(Text::lit("k"), Text::lit("v").into())]);
        let built = Json::obj().field("k", "v");
        assert_eq!(borrowed, built);
        assert_eq!(borrowed.to_compact(), built.to_compact());
        assert_eq!(borrowed.get("k").and_then(Json::as_str), Some("v"));
        assert_eq!(borrowed.field("k", 2u64).to_compact(), r#"{"k":2}"#);
    }

    #[test]
    fn a_half_literal_document_round_trips() {
        let doc = Json::Obj(vec![
            (Text::lit("lit"), Text::lit("a \"literal\"").into()),
            (Text::lit("n"), u64::MAX.into()),
        ])
        .field("owned", String::from("tab\there"))
        .field("list", vec![Json::from(Text::lit("x")), Json::from("y")]);
        assert_eq!(parse(&doc.to_compact()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
    }

    #[test]
    fn parser_accepts_numbers() {
        assert_eq!(parse("0").unwrap(), Json::U64(0));
        assert_eq!(parse("-12").unwrap(), Json::I64(-12));
        assert_eq!(parse("3.5e2").unwrap(), Json::F64(350.0));
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn negative_i64_from_impl() {
        assert_eq!(Json::from(-5i64), Json::I64(-5));
        assert_eq!(Json::from(5i64), Json::U64(5));
    }
}
