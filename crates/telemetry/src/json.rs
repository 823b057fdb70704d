//! Strict (RFC 8259) JSON parsing into a small value tree.
//!
//! The serve daemon's line-delimited request protocol and the workspace's
//! telemetry artifacts both promise *strict* JSON — no `NaN`, no trailing
//! commas, no unquoted keys. This module is the consuming side of that
//! promise: a dependency-free recursive-descent parser that either yields a
//! [`JsonValue`] tree or a positioned error. It accepts exactly the grammar
//! the integration suite's validator accepts, nested at most [`MAX_DEPTH`]
//! levels deep.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; integers up to 2^53 are exact).
    Num(f64),
    /// A string with escapes resolved.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source key order (duplicate keys are rejected).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a whole number in
    /// `u64` range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as a boolean, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse`] accepts. The parser
/// recurses once per level, so a bound keeps a hostile line from
/// overflowing the stack; the serve protocol nests 2 levels deep and the
/// telemetry artifacts 4.
pub const MAX_DEPTH: usize = 128;

/// Parses one strict-JSON document (a full line/file; trailing non-space
/// content is an error, and so is nesting deeper than [`MAX_DEPTH`]).
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    /// Parses one value nested inside `depth` arrays/objects.
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth >= MAX_DEPTH => {
                Err(self.fail(&format!("nesting deeper than {MAX_DEPTH} levels")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal(b"true", JsonValue::Bool(true)),
            Some(b'f') => self.literal(b"false", JsonValue::Bool(false)),
            Some(b'n') => self.literal(b"null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, lit: &[u8], v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.fail("bad literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.skip_ws();
        let mut fields: Vec<(String, JsonValue)> = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if fields.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key {key:?}")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value(depth)?;
            fields.push((key, val));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(JsonValue::Object(fields)),
                _ => return Err(self.fail("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.skip_ws();
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(JsonValue::Array(items)),
                _ => return Err(self.fail("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let cp = self.hex4()?;
                        // Surrogate pairs for astral-plane characters.
                        let ch = if (0xD800..0xDC00).contains(&cp) {
                            if self.bump() != Some(b'\\') || self.bump() != Some(b'u') {
                                return Err(self.fail("unpaired surrogate"));
                            }
                            let lo = self.hex4()?;
                            if !(0xDC00..0xE000).contains(&lo) {
                                return Err(self.fail("bad low surrogate"));
                            }
                            let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                            char::from_u32(c).ok_or_else(|| self.fail("bad surrogate pair"))?
                        } else if (0xDC00..0xE000).contains(&cp) {
                            return Err(self.fail("unpaired low surrogate"));
                        } else {
                            char::from_u32(cp).ok_or_else(|| self.fail("bad \\u escape"))?
                        };
                        out.push(ch);
                    }
                    _ => return Err(self.fail("bad escape")),
                },
                Some(c) if c < 0x20 => return Err(self.fail("raw control char in string")),
                Some(c) if c < 0x80 => out.push(c as char),
                Some(c) => {
                    // Re-assemble the UTF-8 sequence (input is a &str, so
                    // the bytes are valid UTF-8 by construction).
                    let len = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump();
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.fail("invalid UTF-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let c = self.bump().ok_or_else(|| self.fail("bad \\u escape"))?;
            let d = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.fail("bad \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.fail("bad number (NaN/Infinity are not JSON)")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("bad fraction"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !self.peek().is_some_and(|c| c.is_ascii_digit()) {
                return Err(self.fail("bad exponent"));
            }
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.fail("invalid UTF-8"))?;
        let n: f64 = text.parse().map_err(|_| self.fail("unparseable number"))?;
        if !n.is_finite() {
            return Err(self.fail("number overflows f64"));
        }
        Ok(JsonValue::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_values() {
        let v =
            parse(r#"{"op": "query", "point_id": 3, "eps": 0.5, "tags": [true, null]}"#).unwrap();
        assert_eq!(v.get("op").and_then(JsonValue::as_str), Some("query"));
        assert_eq!(v.get("point_id").and_then(JsonValue::as_u64), Some(3));
        assert_eq!(v.get("eps").and_then(JsonValue::as_f64), Some(0.5));
        assert_eq!(
            v.get("tags").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn resolves_escapes() {
        let v = parse(r#""a\u00e9\n\t\"\u0041\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("aé\n\t\"A😀"));
    }

    #[test]
    fn rejects_json_extensions() {
        for bad in [
            "{\"x\": NaN}",
            "{\"x\": Infinity}",
            "{\"x\": 1,}",
            "[1, 2,]",
            "{\"x\": .5}",
            "{\"x\": 01}",
            "{'x': 1}",
            "{\"x\": 1} extra",
            "{\"x\": 1, \"x\": 2}",
            "\"unpaired \\ud800\"",
        ] {
            assert!(parse(bad).is_err(), "parser accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded_with_a_positioned_error() {
        let arrays = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&arrays(MAX_DEPTH)).unwrap().as_array().is_some());
        let objects = format!(
            "{}{{}}{}",
            "{\"a\": ".repeat(MAX_DEPTH - 1),
            "}".repeat(MAX_DEPTH - 1)
        );
        parse(&objects).unwrap();
        assert_eq!(
            parse(&arrays(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        // Far past the bound, the parser stops at the bound instead of
        // recursing until the stack overflows.
        let err = parse(&arrays(100_000)).unwrap_err();
        assert!(err.ends_with(&format!("at byte {MAX_DEPTH}")), "{err}");
        let err = parse(&"{\"a\": ".repeat(100_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn numbers_round_trip_exactly_in_integer_range() {
        let v = parse("[0, -1, 4294967295, 1.5e3, -2.25]").unwrap();
        let items = v.as_array().unwrap();
        assert_eq!(items[0].as_u64(), Some(0));
        assert_eq!(items[1].as_u64(), None);
        assert_eq!(items[1].as_f64(), Some(-1.0));
        assert_eq!(items[2].as_u64(), Some(4_294_967_295));
        assert_eq!(items[3].as_f64(), Some(1500.0));
        assert_eq!(items[4].as_f64(), Some(-2.25));
    }
}
