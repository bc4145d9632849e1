//! A minimal JSON value type: parse, inspect, and re-serialize.
//!
//! The serve daemon ([`crate::serve`], `stq-core::server`) speaks
//! line-delimited JSON, and the build environment has no registry
//! access, so this module provides the exact slice of JSON handling the
//! wire protocol needs: a recursive-descent parser into a [`Json`]
//! value tree, accessors that map cleanly onto protocol fields, and a
//! compact `Display` serialization whose output round-trips through the
//! parser.
//!
//! Numbers are kept as `f64` (the JSON data model); [`Json::as_u64`]
//! checks integrality so protocol fields like `deadline_ms` reject
//! `1.5` rather than silently truncating. JSON has no infinities or NaN,
//! so a non-finite number serializes as `null`. Object member order is
//! preserved, so re-serializing an incoming value (e.g. echoing a
//! request `id`) is byte-faithful for everything but number formatting
//! and string escapes.
//!
//! # Examples
//!
//! ```
//! use stq_util::json::Json;
//!
//! let v = Json::parse(r#"{"id":7,"method":"stats","params":{}}"#).unwrap();
//! assert_eq!(v.get("method").and_then(Json::as_str), Some("stats"));
//! assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
//! assert!(v.get("missing").is_none());
//! assert_eq!(v.to_string(), r#"{"id":7,"method":"stats","params":{}}"#);
//! ```

use std::fmt;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in source order (duplicate keys keep the first).
    Obj(Vec<(String, Json)>),
}

/// A parse failure: byte offset plus a short description.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    pub offset: usize,
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document; trailing non-whitespace is an
    /// error (each protocol line is exactly one document).
    ///
    /// # Errors
    ///
    /// A [`JsonError`] locating the first malformed byte.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object member lookup (first occurrence); `None` for non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer; `None` for `1.5`, `-3`,
    /// non-numbers, and magnitudes beyond 2^53 (where `f64` loses
    /// integer precision).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && *n >= 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// An object with `members` in the given order — how report
    /// documents are built, each schema one field list.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }
}

/// Escapes `s` for inclusion in a JSON string literal (no quotes added).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    let _ = write_escaped(&mut out, s);
    out
}

/// Writes `s` escaped (no quotes) straight into `out`: plain runs are
/// copied whole, and only `"`, `\` and control characters are rewritten.
/// Every byte needing an escape is ASCII, so each run boundary is a
/// character boundary.
fn write_escaped(out: &mut impl fmt::Write, s: &str) -> fmt::Result {
    let mut plain = 0;
    for (i, &b) in s.as_bytes().iter().enumerate() {
        if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
            continue;
        }
        out.write_str(&s[plain..i])?;
        match b {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            _ => write!(out, "\\u{b:04x}")?,
        }
        plain = i + 1;
    }
    out.write_str(&s[plain..])
}

// Conversions for building report documents: `Json::from(3u64)`,
// `"text".into()`, `None::<u64>.into()` (→ `null`), and `collect()` into
// an array.
impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_owned())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Json {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no infinities or NaN; `null` keeps the document
            // parseable.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => {
                // Integers print without a fractional part so ids echo
                // back the way clients sent them.
                if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                write_escaped(f, s)?;
                f.write_str("\"")
            }
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(members) => {
                f.write_str("{")?;
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    f.write_str("\"")?;
                    write_escaped(f, k)?;
                    write!(f, "\":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Nesting beyond this depth is rejected rather than risking a stack
/// overflow on adversarial input (the daemon parses untrusted bytes).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn eat(&mut self, b: u8, what: &str) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn eat_keyword(&mut self, kw: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{kw}`")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.eat_keyword("null", Json::Null),
            Some(b't') => self.eat_keyword("true", Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("expected a JSON value")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[', "`[`")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{', "`{`")?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "`:`")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if !members.iter().any(|(k, _)| *k == key) {
                members.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    /// Parses a string literal in time linear in its length: each
    /// maximal run of plain bytes (anything but `"`, `\` and control
    /// bytes) is validated and copied in one step, so only escapes and
    /// delimiters take the byte-at-a-time path.
    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"', "`\"`")?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(rest.len());
            if run > 0 {
                // The run is delimited by ASCII bytes, so it starts and
                // ends on character boundaries of the `&str` input.
                let plain =
                    std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?;
                out.push_str(plain);
                self.pos += run;
            }
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1; // past `u`, onto the first digit
                            let unit = self.hex4()?;
                            // Surrogate pairs: a high surrogate must be
                            // followed by `\uXXXX` with a low one.
                            let c = if (0xD800..0xDC00).contains(&unit) {
                                if self.peek() == Some(b'\\')
                                    && self.bytes.get(self.pos + 1) == Some(&b'u')
                                {
                                    self.pos += 2;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let cp = 0x10000
                                        + ((u32::from(unit) - 0xD800) << 10)
                                        + (u32::from(low) - 0xDC00);
                                    char::from_u32(cp)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&unit) {
                                return Err(self.err("lone low surrogate"));
                            } else {
                                char::from_u32(u32::from(unit))
                            };
                            match c {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid unicode escape")),
                            }
                            continue;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                // The plain run above stopped here, so this is a
                // control byte.
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// Reads 4 hex digits starting at `pos`, leaving `pos` past the last.
    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for i in 0..4 {
            let d = self
                .bytes
                .get(self.pos + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.err("expected 4 hex digits"))?;
            v = (v << 4) | d as u16;
        }
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
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
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-1.5e2").unwrap(), Json::Num(-150.0));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::Str("hi".into()));
    }

    #[test]
    fn parses_nested_structures_and_preserves_order() {
        let v = Json::parse(r#"{"b":[1,{"c":null}],"a":"x"}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"b":[1,{"c":null}],"a":"x"}"#);
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x"));
        assert_eq!(
            v.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn string_escapes_round_trip() {
        let v = Json::parse(r#""a\"b\\c\ndAé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"b\\c\ndAé"));
        let re = Json::parse(&v.to_string()).unwrap();
        assert_eq!(re, v);
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        let escaped = Json::parse("\"\\u0041\\ud83d\\ude00\"").unwrap();
        assert_eq!(escaped.as_str(), Some("A😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(Json::parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn as_u64_rejects_fractions_and_negatives() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
    }

    #[test]
    fn malformed_documents_error_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            let err = Json::parse(bad).expect_err(bad);
            assert!(!err.message.is_empty(), "{bad}: {err}");
        }
    }

    #[test]
    fn duplicate_keys_keep_the_first() {
        let v = Json::parse(r#"{"a":1,"a":2}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn deep_nesting_is_rejected_not_a_stack_overflow() {
        let deep = "[".repeat(10_000) + &"]".repeat(10_000);
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn long_mixed_strings_decode_and_round_trip() {
        // (JSON source, decoded text) pieces: plain runs of several
        // lengths, every escape, an escaped surrogate pair, and raw
        // multibyte characters on both sides of each.
        let pieces: [(&str, &str); 17] = [
            ("plain ascii run ", "plain ascii run "),
            (r#"\""#, "\""),
            (r"\\", "\\"),
            (r"\/", "/"),
            (r"\b", "\u{8}"),
            (r"\f", "\u{c}"),
            (r"\n", "\n"),
            (r"\r", "\r"),
            (r"\t", "\t"),
            ("\\u0041\\u00e9\\u4e16", "Aé世"),
            ("\\ud83d\\ude00", "😀"),
            (r"😀", "😀"),
            ("héllo → 世界 😀", "héllo → 世界 😀"),
            ("x", "x"),
            ("", ""),
            (
                "int pos f(int pos x) { return x; }",
                "int pos f(int pos x) { return x; }",
            ),
            (r"\u001f", "\u{1f}"),
        ];
        let (mut source, mut expected) = (String::from("\""), String::new());
        for i in 0..2_000 {
            let (json, text) = pieces[i % pieces.len()];
            source.push_str(&json.repeat(1 + i % 7));
            expected.push_str(&text.repeat(1 + i % 7));
        }
        source.push('"');
        let v = Json::parse(&source).unwrap();
        assert_eq!(v.as_str(), Some(expected.as_str()));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
        let doc = Json::Obj(vec![("source".into(), v)]);
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn raw_control_character_in_a_long_run_errors_at_its_byte() {
        // Multibyte characters first, so a character offset would differ
        // from the byte offset.
        let prefix = "é世".repeat(1_000) + &"a".repeat(5_000);
        let doc = format!("\"{prefix}\u{1}tail\"");
        let err = Json::parse(&doc).unwrap_err();
        assert_eq!(err.offset, 1 + prefix.len());
        assert_eq!(err.message, "raw control character in string");
        let unterminated = format!("\"{prefix}");
        assert_eq!(
            Json::parse(&unterminated).unwrap_err().offset,
            unterminated.len()
        );
    }

    #[test]
    fn eight_mib_string_parses_in_linear_time() {
        // A byte-at-a-time parser that revalidates the rest of the input
        // per character would take hours here.
        let chunk = "int pos x = (int pos) 1; /* é → 世 */\\n";
        let body = chunk.repeat((8 << 20) / chunk.len());
        let doc = format!("{{\"id\":1,\"method\":\"check\",\"params\":{{\"source\":\"{body}\"}}}}");
        let start = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let elapsed = start.elapsed();
        let source = v
            .get("params")
            .and_then(|p| p.get("source"))
            .and_then(Json::as_str);
        assert_eq!(
            source.map(str::len),
            Some(body.len() - body.matches("\\n").count())
        );
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "8 MiB parse took {elapsed:?}"
        );
    }

    #[test]
    fn non_finite_numbers_serialize_as_null_and_round_trip() {
        let doc = Json::obj([
            ("inf", Json::Num(f64::INFINITY)),
            ("ninf", Json::Num(f64::NEG_INFINITY)),
            ("nan", Json::Num(f64::NAN)),
            ("ms", Json::Num(12.3)),
        ]);
        let text = doc.to_string();
        assert_eq!(text, r#"{"inf":null,"ninf":null,"nan":null,"ms":12.3}"#);
        let back = Json::parse(&text).expect("serialized output parses");
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("ms").and_then(Json::as_f64), Some(12.3));
    }

    #[test]
    fn built_documents_escape_like_escape_and_round_trip() {
        let text = "q\"b\\s\n\r\t\u{1}\u{1f} é 😀";
        assert_eq!(escape(text), "q\\\"b\\\\s\\n\\r\\t\\u0001\\u001f é 😀");
        let doc = Json::obj([
            ("text", Json::from(text)),
            ("list", ["a", "b"].into_iter().collect()),
            ("none", None::<u64>.into()),
            ("count", 7usize.into()),
            ("flag", true.into()),
        ]);
        assert_eq!(
            doc.to_string(),
            format!(
                r#"{{"text":"{}","list":["a","b"],"none":null,"count":7,"flag":true}}"#,
                escape(text)
            )
        );
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"héllo → 世界\"").unwrap();
        assert_eq!(v.as_str(), Some("héllo → 世界"));
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
