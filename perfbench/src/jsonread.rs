//! A linear-time JSON reader for checking responses.
//!
//! The checks read every recorded answer after the timed window. They
//! use this reader rather than the program's `Json::parse`, so that a
//! check never depends on the parser being measured, and so that
//! reading thousands of answers stays cheap whatever that parser costs.

use powerplay_json::Json;

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Reader {
        b: text.as_bytes(),
        pos: 0,
    };
    let value = p.value()?;
    p.ws();
    if p.pos != p.b.len() {
        return Err(format!("trailing bytes at {}", p.pos));
    }
    Ok(value)
}

struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn ws(&mut self) {
        while matches!(self.b.get(self.pos), Some(b' ' | b'\n' | b'\r' | b'\t')) {
            self.pos += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn eat(&mut self, lit: &[u8]) -> bool {
        if self.b[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.b.get(self.pos) {
            Some(b'{') => {
                self.pos += 1;
                let mut members = Vec::new();
                self.ws();
                if self.eat(b"}") {
                    return Ok(Json::Object(members));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    if !self.eat(b":") {
                        return self.err("expected ':'");
                    }
                    members.push((key, self.value()?));
                    self.ws();
                    if self.eat(b",") {
                        continue;
                    }
                    if self.eat(b"}") {
                        return Ok(Json::Object(members));
                    }
                    return self.err("expected ',' or '}'");
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.ws();
                if self.eat(b"]") {
                    return Ok(Json::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    if self.eat(b",") {
                        continue;
                    }
                    if self.eat(b"]") {
                        return Ok(Json::Array(items));
                    }
                    return self.err("expected ',' or ']'");
                }
            }
            Some(b'"') => Ok(Json::String(self.string()?)),
            Some(b't') if self.eat(b"true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat(b"false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat(b"null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.b.get(self.pos),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.pos]).expect("ASCII digits");
                match text.parse::<f64>() {
                    Ok(n) => Ok(Json::Number(n)),
                    Err(_) => self.err("bad number"),
                }
            }
            _ => self.err("unexpected byte"),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat(b"\"") {
            return self.err("expected string");
        }
        let mut out = Vec::new();
        loop {
            let Some(&c) = self.b.get(self.pos) else {
                return self.err("unterminated string");
            };
            self.pos += 1;
            match c {
                b'"' => break,
                b'\\' => {
                    let Some(&e) = self.b.get(self.pos) else {
                        return self.err("truncated escape");
                    };
                    self.pos += 1;
                    match e {
                        b'"' | b'\\' | b'/' => out.push(e),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xD800..0xDC00).contains(&code) && self.eat(b"\\u") {
                                let low = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return self.err("invalid low surrogate");
                                }
                                code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                            }
                            let ch = char::from_u32(code).unwrap_or('\u{fffd}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(ch.encode_utf8(&mut buf).as_bytes());
                        }
                        _ => return self.err("bad escape"),
                    }
                }
                _ => out.push(c),
            }
        }
        String::from_utf8(out).or_else(|_| self.err("invalid UTF-8"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let Some(digits) = self.b.get(self.pos..self.pos + 4) else {
            return self.err("truncated \\u escape");
        };
        let text = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
        self.pos += 4;
        u32::from_str_radix(text, 16).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_what_the_program_writes() {
        let doc = Json::object([
            ("s", Json::from("q\"uote\\ \u{e9} \n\t")),
            ("n", Json::from(0.1 + 0.2)),
            ("i", Json::from(-42.0)),
            (
                "a",
                Json::array([Json::Null, Json::Bool(true), Json::Bool(false)]),
            ),
            ("o", Json::object([("e", Json::array([]))])),
        ]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
        assert_eq!(parse(&doc.to_pretty()).unwrap(), doc);
        assert_eq!(
            parse("\"\\ud83d\\ude00\"").unwrap(),
            Json::from("\u{1f600}")
        );
        assert!(parse("{\"a\": 1,}").is_err());
        assert!(parse("[1] x").is_err());
    }
}
