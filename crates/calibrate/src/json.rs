//! A minimal JSON reader for machine profiles.
//!
//! The build environment has no registry access, so profile
//! deserialization cannot lean on `serde`; this module implements the
//! small strict subset of JSON the profile format needs (objects,
//! arrays, strings, finite numbers, booleans, null) as a recursive
//! descent parser. Writing stays in hand-formatted strings like every
//! other JSON emitter in the workspace; only reading needs a parser.

use mmjoin_env::{EnvError, Result};

/// One parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (parsed as `f64`; the profile format never needs
    /// integers above 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are rejected).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object member lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object member lookup that errors with the missing key's name.
    pub fn req(&self, key: &str) -> Result<&Json> {
        self.get(key)
            .ok_or_else(|| EnvError::InvalidConfig(format!("profile: missing field '{key}'")))
    }

    /// The value as a finite number.
    pub fn as_f64(&self) -> Result<f64> {
        match self {
            Json::Num(n) => Ok(*n),
            other => Err(type_err("number", other)),
        }
    }

    /// The value as a non-negative integer.
    pub fn as_u64(&self) -> Result<u64> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
            return Err(EnvError::InvalidConfig(format!(
                "profile: expected a non-negative integer, got {n}"
            )));
        }
        Ok(n as u64)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Json::Str(s) => Ok(s),
            other => Err(type_err("string", other)),
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Result<bool> {
        match self {
            Json::Bool(b) => Ok(*b),
            other => Err(type_err("boolean", other)),
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json]> {
        match self {
            Json::Arr(items) => Ok(items),
            other => Err(type_err("array", other)),
        }
    }
}

fn type_err(wanted: &str, got: &Json) -> EnvError {
    let kind = match got {
        Json::Null => "null",
        Json::Bool(_) => "boolean",
        Json::Num(_) => "number",
        Json::Str(_) => "string",
        Json::Arr(_) => "array",
        Json::Obj(_) => "object",
    };
    EnvError::InvalidConfig(format!("profile: expected a {wanted}, got a {kind}"))
}

/// The workspace's one JSON string escaper, re-exported where the
/// profile writer (and the perf harness) import it.
pub use mmjoin_env::trace::escape;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> EnvError {
        EnvError::InvalidConfig(format!("profile JSON (byte {}): {msg}", self.pos))
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected character '{}'", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn object(&mut self) -> Result<Json> {
        self.expect(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.err(&format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json> {
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

    fn string(&mut self) -> Result<String> {
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
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            // Surrogate pairs never appear in profile
                            // strings; reject rather than mis-decode.
                            let c = char::from_u32(code)
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
                    // Copy one UTF-8 scalar (the input is a &str, so the
                    // bytes are valid UTF-8).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let n: f64 = text
            .parse()
            .map_err(|_| self.err(&format!("bad number '{text}'")))?;
        if !n.is_finite() {
            return Err(self.err(&format!("non-finite number '{text}'")));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = Json::parse(
            r#"{"a": [1, 2.5, -3e-2], "b": {"c": "x\ny", "d": true, "e": null}, "f": 0}"#,
        )
        .unwrap();
        assert_eq!(doc.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            doc.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "x\ny"
        );
        assert!(doc.get("b").unwrap().get("d").unwrap().as_bool().unwrap());
        assert_eq!(doc.get("f").unwrap().as_u64().unwrap(), 0);
        let n = doc.get("a").unwrap().as_arr().unwrap()[2].as_f64().unwrap();
        assert!((n + 0.03).abs() < 1e-15);
    }

    #[test]
    fn numbers_round_trip_through_display() {
        for v in [
            6.0e-3,
            0.1e-6,
            2.5e-6,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            123456789.125,
        ] {
            let doc = Json::parse(&format!("{{\"v\": {v}}}")).unwrap();
            let back = doc.get("v").unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\": }",
            "{\"a\": 1,}",
            "[1 2]",
            "{\"a\": 1} trailing",
            "{\"a\": 1, \"a\": 2}",
            "\"unterminated",
            "{\"a\": nul}",
            "{\"a\": 1e999}",
            "{\"a\": --3}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn type_errors_name_both_sides() {
        let doc = Json::parse("{\"a\": 1}").unwrap();
        let err = doc.get("a").unwrap().as_str().unwrap_err().to_string();
        assert!(err.contains("string") && err.contains("number"), "{err}");
        let err = doc.req("zzz").unwrap_err().to_string();
        assert!(err.contains("zzz"), "{err}");
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}f";
        let doc = Json::parse(&format!("{{\"v\": \"{}\"}}", escape(s))).unwrap();
        assert_eq!(doc.get("v").unwrap().as_str().unwrap(), s);
    }
}
