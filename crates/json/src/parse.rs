//! Recursive-descent JSON parser with positioned errors.

use std::error::Error;
use std::fmt;

use crate::Json;

/// Maximum nesting depth accepted by the parser.
///
/// PowerPlay documents (designs, library elements) are shallow; the limit
/// exists so hostile input received over the network cannot overflow the
/// stack.
const MAX_DEPTH: usize = 128;

/// Error produced when parsing malformed JSON, with a byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseJsonError {
    offset: usize,
    message: String,
}

impl ParseJsonError {
    /// Byte offset into the input at which parsing failed.
    pub fn offset(&self) -> usize {
        self.offset
    }
}

impl fmt::Display for ParseJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Error for ParseJsonError {}

impl Json {
    /// Parses a complete JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`ParseJsonError`] on malformed input, trailing garbage, or
    /// nesting deeper than an internal limit.
    ///
    /// ```
    /// use powerplay_json::Json;
    /// # fn main() -> Result<(), powerplay_json::ParseJsonError> {
    /// let v = Json::parse("[1, 2.5, \"x\", null, true]")?;
    /// assert_eq!(v[1].as_f64(), Some(2.5));
    /// # Ok(())
    /// # }
    /// ```
    pub fn parse(input: &str) -> Result<Json, ParseJsonError> {
        let mut p = Parser {
            text: input,
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(value)
    }
}

struct Parser<'a> {
    /// The input, for copying string runs as `&str` slices.
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn error(&self, message: &str) -> ParseJsonError {
        ParseJsonError {
            offset: self.pos,
            message: message.to_owned(),
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

    fn expect(&mut self, byte: u8) -> Result<(), ParseJsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseJsonError> {
        if depth > MAX_DEPTH {
            return Err(self.error("document nested too deeply"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.error("unexpected character")),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, ParseJsonError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.error(&format!("invalid literal, expected `{text}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseJsonError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseJsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseJsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let first = self.hex4()?;
                            let ch = if (0xD800..0xDC00).contains(&first) {
                                // High surrogate: require a low surrogate.
                                if !self.bytes[self.pos..].starts_with(b"\\u") {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                self.pos += 2;
                                let second = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&second) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                                char::from_u32(code).ok_or_else(|| self.error("bad codepoint"))?
                            } else if (0xDC00..0xE000).contains(&first) {
                                return Err(self.error("unpaired surrogate"));
                            } else {
                                char::from_u32(first).ok_or_else(|| self.error("bad codepoint"))?
                            };
                            out.push(ch);
                            continue; // hex4 already advanced past the digits
                        }
                        _ => return Err(self.error("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(c) if c < 0x20 => return Err(self.error("control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, backslash or
                    // control byte in one go. Those bytes are ASCII, so
                    // the run ends on a char boundary.
                    let start = self.pos;
                    let run = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(self.bytes.len() - start);
                    self.pos += run;
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseJsonError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("bad \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("bad \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseJsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.error("invalid number")),
        }
        // Fraction.
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        // Exponent.
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.error("digits required in exponent"));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        let value: f64 = text.parse().map_err(|_| self.error("invalid number"))?;
        Ok(Json::Number(value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("false").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Number(42.0));
        assert_eq!(Json::parse("-2.5e-3").unwrap(), Json::Number(-2.5e-3));
        assert_eq!(Json::parse("\"hi\"").unwrap(), Json::from("hi"));
    }

    #[test]
    fn nested_document() {
        let v = Json::parse(r#"{"rows": [{"n": "LUT", "p": 7.976e-5}], "total": null}"#).unwrap();
        assert_eq!(v["rows"][0]["n"].as_str(), Some("LUT"));
        assert_eq!(v["rows"][0]["p"].as_f64(), Some(7.976e-5));
        assert!(v["total"].is_null());
    }

    #[test]
    fn string_escapes() {
        let v = Json::parse(r#""a\n\t\"\\Aé""#).unwrap();
        assert_eq!(v.as_str(), Some("a\n\t\"\\Aé"));
    }

    #[test]
    fn surrogate_pairs() {
        let v = Json::parse(r#""😀""#).unwrap();
        assert_eq!(v.as_str(), Some("😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::parse("\"µW ≈ 10⁻⁶ W\"").unwrap();
        assert_eq!(v.as_str(), Some("µW ≈ 10⁻⁶ W"));
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[",
            "{\"a\"}",
            "{\"a\":}",
            "[1,]",
            "{,}",
            "01",
            "1.",
            "1e",
            "+1",
            "\"\\x\"",
            "tru",
            "[1] garbage",
            "\"unterminated",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn error_reports_offset() {
        let err = Json::parse("[1, x]").unwrap_err();
        assert_eq!(err.offset(), 4);
        assert!(err.to_string().contains("byte 4"));
    }

    #[test]
    fn depth_limit() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn whitespace_tolerated() {
        let v = Json::parse(" \r\n\t{ \"a\" : [ 1 , 2 ] } \n").unwrap();
        assert_eq!(v["a"][1].as_f64(), Some(2.0));
    }

    #[test]
    fn control_chars_rejected_in_strings() {
        assert!(Json::parse("\"a\u{0001}b\"").is_err());
    }
}
