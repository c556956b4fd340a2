//! The workspace's one JSON codec: a hand-rolled recursive-descent parser
//! ([`Json::parse`]; the full grammar, nesting up to [`MAX_DEPTH`], `\uXXXX`
//! escapes including surrogate pairs, errors with a byte offset so 400
//! responses can say where a body went wrong), the one string escaper
//! ([`escape_into`]), and the [`Writer`] every emitted document goes
//! through.

use std::fmt::{self, Write as _};

/// Maximum nesting depth accepted by [`Json::parse`]; deeper documents are
/// rejected rather than risking a recursion overflow on hostile input.
pub const MAX_DEPTH: usize = 32;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// Any number. Stored as `f64`; [`Json::as_u64`] checks exactness.
    Num(f64),
    /// A string, with all escapes resolved.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, pairs kept in document order. Duplicate keys are
    /// preserved; [`Json::get`] returns the first match.
    Obj(Vec<(String, Json)>),
}

/// A parse failure: what went wrong and the byte offset it went wrong at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
    /// Human-readable description of the problem.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

/// Why a JSON value could not be decoded as an exact `u64`
/// ([`Json::to_u64`]). Named variants, so decode failures surface as a
/// specific rejection instead of a silently clamped cast or an anonymous
/// `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumError {
    /// The value is not a number at all.
    NotANumber,
    /// The number is negative; a `u64` field cannot hold it.
    Negative,
    /// The number has a fractional part.
    Fractional,
    /// The number exceeds 2⁵³, beyond which an `f64` no longer represents
    /// every integer and a cast would silently lose (or clamp) bits.
    TooLarge,
}

impl fmt::Display for NumError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NumError::NotANumber => "not a number",
            NumError::Negative => "is negative",
            NumError::Fractional => "has a fractional part",
            NumError::TooLarge => "exceeds 2^53 (the exact-integer range of JSON numbers)",
        })
    }
}

impl std::error::Error for NumError {}

impl Json {
    /// Parses a complete JSON document (one value, surrounded by optional
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] describing the first syntax problem.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after value"));
        }
        Ok(value)
    }

    /// Looks up `key` in an object (first match wins); `None` for missing
    /// keys and non-objects.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as an exact unsigned integer: a number with no fractional
    /// part that round-trips through `u64` unchanged. Convenience wrapper
    /// over [`Json::to_u64`] for callers that don't need the reason.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.to_u64().ok()
    }

    /// Decodes the value as an exact unsigned integer, naming exactly why a
    /// value is rejected. Never clamps: a negative, fractional, or
    /// out-of-range number (beyond 2⁵³, where `f64` stops representing
    /// every integer — so anything near or past 2⁶⁴ too) is an error, not a
    /// silently saturated cast.
    ///
    /// # Errors
    ///
    /// The [`NumError`] variant describing the rejection.
    pub fn to_u64(&self) -> Result<u64, NumError> {
        let n = self.as_f64().ok_or(NumError::NotANumber)?;
        if n < 0.0 {
            return Err(NumError::Negative);
        }
        if n > 9_007_199_254_740_992.0 {
            return Err(NumError::TooLarge);
        }
        if n.fract() != 0.0 {
            return Err(NumError::Fractional);
        }
        Ok(n as u64)
    }

    /// The element slice, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The elements as strings, if this is an array of strings.
    #[must_use]
    pub fn str_items(&self) -> Option<Vec<&str>> {
        self.as_arr()?.iter().map(Json::as_str).collect()
    }

    /// The keys of an object, in document order.
    #[must_use]
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

/// Appends `s` to `out` escaped for a JSON string literal (quotes not
/// included): quote, backslash, newline, carriage return and tab get their
/// short escapes, the other C0 controls `\u00XX`; everything else passes
/// through unchanged.
pub fn escape_into(out: &mut String, s: &str) {
    // Keys and most values need no escape: copy them whole.
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
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
}

/// How a [`Writer`] container places its members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// All members on one line, separated by `, `: `{"a": 1, "b": 2}`.
    Inline,
    /// One member per line, indented two spaces per enclosing `Lines`
    /// container, the closing bracket on its own line. An empty container
    /// stays `{}` / `[]`.
    Lines,
}

/// Appends one JSON value to a caller's `String`, placing every separator.
/// [`key`](Writer::key) names the next value inside an object; containers
/// close with [`end`](Writer::end).
///
/// ```
/// use sigcomp_obs::json::{Layout, Writer};
///
/// let mut out = String::new();
/// let mut w = Writer::new(&mut out);
/// w.object(Layout::Lines);
/// w.key("name").str("a\"b");
/// w.key("sizes").array(Layout::Inline).raw(1).raw(2).end();
/// w.key("cpi").float(f64::INFINITY, 6);
/// w.end();
/// assert_eq!(out, "{\n  \"name\": \"a\\\"b\",\n  \"sizes\": [1, 2],\n  \"cpi\": null\n}");
/// ```
pub struct Writer<'a> {
    out: &'a mut String,
    /// Closing bracket and layout of each open container, outermost first;
    /// writers nest no deeper than [`Json::parse`] reads.
    open: [(char, Layout); MAX_DEPTH],
    depth: usize,
    /// The innermost open container has no member yet.
    empty: bool,
    /// A key was just written: the next value is its value, not a member.
    keyed: bool,
}

impl<'a> Writer<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        Writer {
            out,
            open: [('}', Layout::Inline); MAX_DEPTH],
            depth: 0,
            empty: true,
            keyed: false,
        }
    }

    /// Starts an object member: separator, then `"key": ` with `key`
    /// escaped. The next value written is the member's value.
    pub fn key(&mut self, key: &str) -> &mut Self {
        self.separator();
        self.out.push('"');
        escape_into(self.out, key);
        self.out.push_str("\": ");
        self.keyed = true;
        self
    }

    /// Writes a string value, escaped and quoted.
    pub fn str(&mut self, value: &str) -> &mut Self {
        self.value();
        self.out.push('"');
        escape_into(self.out, value);
        self.out.push('"');
        self
    }

    /// Writes a value verbatim: a number, a boolean, `null`, or an already
    /// rendered JSON document.
    pub fn raw(&mut self, value: impl fmt::Display) -> &mut Self {
        self.value();
        let _ = write!(self.out, "{value}");
        self
    }

    /// Writes `value` with `decimals` fixed decimals, or `null` when it is
    /// not finite (`inf` and `NaN` are not JSON numbers).
    pub fn float(&mut self, value: f64, decimals: usize) -> &mut Self {
        self.value();
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Opens an object as the next value.
    pub fn object(&mut self, layout: Layout) -> &mut Self {
        self.open_container('{', '}', layout)
    }

    /// Opens an array as the next value.
    pub fn array(&mut self, layout: Layout) -> &mut Self {
        self.open_container('[', ']', layout)
    }

    /// Closes the innermost open container.
    pub fn end(&mut self) -> &mut Self {
        self.depth = self.depth.checked_sub(1).expect("no open container");
        let (close, layout) = self.open[self.depth];
        if layout == Layout::Lines && !self.empty {
            self.newline();
        }
        self.out.push(close);
        self.empty = false;
        self
    }

    fn open_container(&mut self, open: char, close: char, layout: Layout) -> &mut Self {
        self.value();
        self.open[self.depth] = (close, layout);
        self.depth += 1;
        self.out.push(open);
        self.empty = true;
        self
    }

    /// Before a value: a keyed value follows its key directly; anything
    /// else is a new member of the innermost container.
    fn value(&mut self) {
        if self.keyed {
            self.keyed = false;
        } else {
            self.separator();
        }
    }

    /// The separator before a member of the innermost open container.
    fn separator(&mut self) {
        let Some(&(_, layout)) = self.open[..self.depth].last() else {
            return;
        };
        if !self.empty {
            self.out.push(',');
        }
        if layout == Layout::Lines {
            self.newline();
        } else if !self.empty {
            self.out.push(' ');
        }
        self.empty = false;
    }

    /// A line break indented two spaces per open `Lines` container.
    fn newline(&mut self) {
        self.out.push('\n');
        for &(_, layout) in &self.open[..self.depth] {
            if layout == Layout::Lines {
                self.out.push_str("  ");
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.peek() == Some(b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_literal(&mut self, literal: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.expect_literal("null", Json::Null),
            Some(b't') => self.expect_literal("true", Json::Bool(true)),
            Some(b'f') => self.expect_literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // [
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            if self.eat(b']') {
                return Ok(Json::Arr(items));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or ']' in array"));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.pos += 1; // {
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            if self.peek() != Some(b'"') {
                return Err(self.err("expected object key"));
            }
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return Err(self.err("expected ':' after object key"));
            }
            self.skip_ws();
            let value = self.value(depth + 1)?;
            pairs.push((key, value));
            self.skip_ws();
            if self.eat(b'}') {
                return Ok(Json::Obj(pairs));
            }
            if !self.eat(b',') {
                return Err(self.err("expected ',' or '}' in object"));
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.pos += 1; // opening quote
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
                    out.push(self.escape_char()?);
                }
                Some(b) if b < 0x20 => return Err(self.err("control character in string")),
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: the input is a &str and `pos` only
                    // ever advances by whole scalars, so slicing here is a
                    // char boundary and decoding one char is O(1) — no
                    // re-validation of the remaining input.
                    let c = self.text[self.pos..]
                        .chars()
                        .next()
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn escape_char(&mut self) -> Result<char, JsonError> {
        let b = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match b {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => return self.unicode_escape(),
            _ => return Err(self.err("unknown escape sequence")),
        })
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let first = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&first) {
            // High surrogate: a low surrogate must follow.
            if !(self.eat(b'\\') && self.eat(b'u')) {
                return Err(self.err("unpaired surrogate"));
            }
            let second = self.hex4()?;
            if !(0xdc00..0xe000).contains(&second) {
                return Err(self.err("invalid low surrogate"));
            }
            0x10000 + ((first - 0xd800) << 10) + (second - 0xdc00)
        } else if (0xdc00..0xe000).contains(&first) {
            return Err(self.err("unpaired surrogate"));
        } else {
            first
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (b as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        let _ = self.eat(b'-');
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.eat(b'.') {
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ASCII by construction");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            Json::parse(r#""a\n\"b\" é 😀""#).unwrap(),
            Json::Str("a\n\"b\" é 😀".to_owned())
        );
        let doc =
            Json::parse(r#"{"workload": "pgp", "sizes": ["tiny", "large"], "n": 3}"#).unwrap();
        assert_eq!(doc.get("workload").and_then(Json::as_str), Some("pgp"));
        assert_eq!(
            doc.get("sizes").and_then(Json::str_items),
            Some(vec!["tiny", "large"])
        );
        assert_eq!(doc.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(doc.keys(), vec!["workload", "sizes", "n"]);
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "nul",
            "\"unterminated",
            "\"bad \\q escape\"",
            "\"\\ud800 alone\"",
            "1 2",
            "{\"a\": 1} extra",
            "\u{0007}",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn rejects_hostile_nesting() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(Json::parse(&deep).unwrap_err().message, "nesting too deep");
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Json::parse("18").unwrap().as_u64(), Some(18));
        assert_eq!(Json::parse("18.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-1").unwrap().as_u64(), None);
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }

    #[test]
    fn to_u64_names_every_rejection_instead_of_clamping() {
        // Regression: a float cast (`n as u64`) would silently clamp
        // negatives to 0 and huge values to u64::MAX; the decoder must
        // reject with a named error instead.
        assert_eq!(Json::parse("18").unwrap().to_u64(), Ok(18));
        assert_eq!(Json::parse("0").unwrap().to_u64(), Ok(0));
        // 2^53 is the last exactly-representable integer and is accepted.
        assert_eq!(
            Json::parse("9007199254740992").unwrap().to_u64(),
            Ok(9_007_199_254_740_992)
        );
        for (text, expected) in [
            ("-1", NumError::Negative),
            ("-0.5", NumError::Negative),
            ("-1e999", NumError::Negative),
            ("18.5", NumError::Fractional),
            // Would clamp to u64::MAX through a bare cast.
            ("1e300", NumError::TooLarge),
            ("1e999", NumError::TooLarge),
            ("18446744073709551616", NumError::TooLarge),
            // Past 2^53 the round trip through f64 loses bits even though
            // the value fits in u64.
            ("9007199254740994", NumError::TooLarge),
        ] {
            assert_eq!(Json::parse(text).unwrap().to_u64(), Err(expected), "{text}");
        }
        assert_eq!(
            Json::parse("\"7\"").unwrap().to_u64(),
            Err(NumError::NotANumber)
        );
        assert_eq!(
            Json::parse("null").unwrap().to_u64(),
            Err(NumError::NotANumber)
        );
        // The message names the constraint for 400 bodies.
        assert!(NumError::TooLarge.to_string().contains("2^53"));
    }

    /// A fixed hostile string, then random strings over every C0 control,
    /// quote, backslash, DEL and multi-byte and astral characters, written
    /// as keys and as values through the writer in both layouts, parse back
    /// unchanged.
    #[test]
    fn escape_round_trips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{0001}é😀";
        let mut text = String::new();
        Writer::new(&mut text).str(nasty);
        assert_eq!(text, "\"a\\\"b\\\\c\\nd\\te\\u0001é😀\"");
        assert_eq!(Json::parse(&text).unwrap(), Json::Str(nasty.to_owned()));

        let alphabet: Vec<char> = (0u32..0x20)
            .filter_map(char::from_u32)
            .chain([
                '"',
                '\\',
                '/',
                '\u{7f}',
                'a',
                ' ',
                'é',
                '€',
                '\u{2028}',
                '😀',
                '\u{10ffff}',
            ])
            .collect();
        // xorshift64: obs has no dependencies, so no shared RNG.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut random = || -> String {
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let len = (next() % 12) as usize;
            (0..len)
                .map(|_| alphabet[(next() % alphabet.len() as u64) as usize])
                .collect()
        };
        for case in 0..500 {
            let (key, value) = (random(), random());
            let layout = if case % 2 == 0 {
                Layout::Inline
            } else {
                Layout::Lines
            };
            let mut out = String::new();
            let mut w = Writer::new(&mut out);
            w.object(layout);
            w.key(&key).str(&value);
            w.key("items").array(layout).str(&value).str(&key).end();
            w.end();
            let doc = Json::parse(&out).unwrap_or_else(|e| panic!("{e}: {out:?}"));
            assert_eq!(doc.keys(), vec![key.as_str(), "items"], "{out:?}");
            assert_eq!(doc.get(&key), Some(&Json::Str(value.clone())), "{out:?}");
            assert_eq!(
                doc.get("items").and_then(Json::str_items),
                Some(vec![value.as_str(), key.as_str()])
            );
        }
    }

    #[test]
    fn writer_places_separators_for_both_layouts() {
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Lines);
        w.key("inline").object(Layout::Inline);
        w.key("a").raw(1).key("b").raw(true).end();
        w.key("empty").object(Layout::Lines).end();
        w.key("rows").array(Layout::Lines);
        w.object(Layout::Inline).key("x").float(0.5, 1).end();
        w.array(Layout::Inline).end();
        w.end();
        w.end();
        assert_eq!(
            out,
            "{\n  \"inline\": {\"a\": 1, \"b\": true},\n  \"empty\": {},\n  \"rows\": [\n    \
             {\"x\": 0.5},\n    []\n  ]\n}"
        );
        // An inline container's Lines child indents by Lines ancestors only.
        let mut out = String::new();
        let mut w = Writer::new(&mut out);
        w.object(Layout::Inline).key("n").raw(2);
        w.key("rows").array(Layout::Lines).raw(1).raw(2).end();
        w.end();
        assert_eq!(out, "{\"n\": 2, \"rows\": [\n  1,\n  2\n]}");
        let mut out = String::new();
        Writer::new(&mut out).float(f64::NAN, 6);
        assert_eq!(out, "null");
    }
}
