//! A minimal JSON reader.
//!
//! The workspace builds offline with zero external crates, but two tools
//! need to *read* JSON the workspace itself wrote: `colorist-perfgate`
//! (diffing `bench_summary.json` documents) and trace validation
//! (round-tripping the chrome-trace export). This is a strict, small
//! recursive-descent parser for exactly that job — standard JSON,
//! unsigned integer literals as exact `u64` (64-bit counters and
//! checksums), other numbers as `f64`, objects as ordered key/value
//! vectors. It is not a general
//! serde replacement and does not aim to be.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal without sign, fraction or exponent that fits a
    /// `u64`, kept exact.
    Int(u64),
    /// Any other JSON number, as `f64`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in document order (duplicates preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(s: &str) -> Result<Json, String> {
        let mut p = Parser { b: s.as_bytes(), i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != p.b.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }

    /// Member `key` of an object; `None` on non-objects / absent keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is a number (an [`Json::Int`] above 2^53
    /// rounds to the nearest `f64`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(n) => Some(*n as f64),
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an exact non-negative integer, if it is one: an
    /// integer literal as written, or an integral `f64` up to 2^53.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Int(n) => Some(*n),
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= EXACT => Some(*n as u64),
            _ => None,
        }
    }

    /// The string, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
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

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.i)
    }

    fn ws(&mut self) {
        while matches!(self.b.get(self.i), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", c as char)))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.i) {
            Some(b'n') => self.lit("null", Json::Null),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.ws();
            out.push(self.value()?);
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        self.ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let k = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let v = self.value()?;
            out.push((k, v));
            self.ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.b.get(self.i).copied();
                    self.i += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            self.i += 4;
                            // no surrogate-pair support: the workspace never
                            // writes astral characters via \u
                            out.push(
                                char::from_u32(hex).ok_or_else(|| self.err("bad \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(&c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(_) => {
                    // copy one UTF-8 scalar
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.b.len() && (self.b[self.i] & 0xC0) == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                self.i += 1;
            }
            while matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
                self.i += 1;
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
        if let Ok(n) = text.parse::<u64>() {
            return Ok(Json::Int(n));
        }
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let j = Json::parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny"}, "d": true, "e": null}"#)
            .expect("parses");
        assert_eq!(j.get("a").and_then(|a| a.as_arr()).map(<[Json]>::len), Some(3));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(j.get("a").unwrap().as_arr().unwrap()[2].as_f64(), Some(-300.0));
        assert_eq!(j.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\ny"));
        assert_eq!(j.get("d"), Some(&Json::Bool(true)));
        assert_eq!(j.get("e"), Some(&Json::Null));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn as_u64_is_exact() {
        assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.0").unwrap().as_u64(), Some(7));
        assert_eq!(Json::parse("7.5").unwrap().as_u64(), None);
        assert_eq!(Json::parse("-7").unwrap().as_u64(), None);
        // beyond 2^53 an f64 cannot hold every integer: literals stay exact
        let big = (1u64 << 53) + 1;
        let doc = Json::parse(&format!("[{big}, {}, {}]", u64::MAX, u64::MAX as u128 + 1)).unwrap();
        let arr = doc.as_arr().unwrap();
        assert_eq!(arr[0].as_u64(), Some(big));
        assert_eq!(arr[0].as_f64(), Some(big as f64));
        assert_eq!(arr[1].as_u64(), Some(u64::MAX));
        assert_eq!(arr[2].as_u64(), None, "past u64::MAX is an f64");
        assert_eq!(arr[2].as_f64(), Some(2f64.powi(64)));
        assert_eq!(Json::parse("3141572457772021011").unwrap().as_u64(), Some(3141572457772021011));
        assert_eq!(Json::parse("1e300").unwrap().as_u64(), None);
    }
}
