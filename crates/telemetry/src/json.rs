//! Hand-rolled JSON value type, renderer, and syntax-checking parser.
//!
//! The workspace is offline and dependency-free, so this minimal module is
//! the one JSON implementation for the whole stack: telemetry snapshots
//! and Chrome traces render through it, and tests re-parse them with it.
//! It lives here (the bottom of the dependency graph) so `share-core` can
//! export snapshots without depending on anything above it.

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Look up a key of an object value.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value as u64, if this is a non-negative finite number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.is_finite() && *x >= 0.0 => Some(*x as u64),
            _ => None,
        }
    }

    /// Numeric value as f64, if this is a finite number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) if x.is_finite() => Some(*x),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(sv) => Some(sv),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Render compactly (no insignificant whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// Render into an existing buffer.
    pub fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => {
                if x.is_finite() {
                    // Rust's shortest round-trip float formatting; integral
                    // values print without a trailing ".0".
                    out.push_str(&format!("{x}"));
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => render_string(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    render_string(k, out);
                    out.push_str(": ");
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Shorthand for `Json::Num` from any integer/float.
pub fn num<T: Into<f64>>(x: T) -> Json {
    Json::Num(x.into())
}

/// Shorthand for `Json::Num` from a u64 counter (lossy above 2^53, far
/// beyond any counter these tools produce).
pub fn count(x: u64) -> Json {
    Json::Num(x as f64)
}

/// Shorthand for `Json::Str`.
pub fn s(x: &str) -> Json {
    Json::Str(x.to_string())
}

/// Render a string as a quoted, escaped JSON string into `out`.
pub fn render_string(sv: &str, out: &mut String) {
    out.push('"');
    for c in sv.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level and reads files, so unbounded nesting (a flood of `[`)
/// would overflow the stack; every document the repo writes nests < 10.
pub const MAX_DEPTH: usize = 128;

/// Parse a JSON document. Strict enough to validate what we write and to
/// re-read recorded files for merging; numbers all become `Json::Num`.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, b: text.as_bytes(), i: 0, depth: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn nested(&mut self, body: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at byte {}", self.i));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected byte at {}", self.i)),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while let Some(c) = self.peek() {
            if c == b'-' || c == b'+' || c == b'.' || c == b'e' || c == b'E' || c.is_ascii_digit() {
                self.i += 1;
            } else {
                break;
            }
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
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
                            if self.i + 5 > self.b.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar. `i` only ever steps over
                    // whole scalars, so it sits on a boundary; slicing the
                    // `&str` (not re-validating the byte tail) keeps a long
                    // string linear.
                    let c = self.text.get(self.i..).and_then(|rest| rest.chars().next());
                    let c = c.ok_or_else(|| format!("invalid utf-8 at byte {}", self.i))?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.expect(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let v = Json::obj(vec![
            ("name", s("fig5 \"quoted\"\n")),
            ("tps", num(1234.5)),
            ("count", count(42)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            ("runs", Json::Arr(vec![num(1.0), num(2.5)])),
        ]);
        let text = v.render();
        let back = parse(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        // Every escape class the renderer can emit: quote, backslash, the
        // named control escapes, other C0 controls (\u-escaped), and
        // multi-byte UTF-8 (passed through raw).
        let tricky = "quote:\" back:\\ nl:\n cr:\r tab:\t bell:\u{7} nul:\u{0} smile:😀 é";
        let text = Json::Str(tricky.into()).render();
        assert_eq!(parse(&text).unwrap(), Json::Str(tricky.into()));
        // Escapes the renderer never emits still parse: \/ \b \f and \u.
        assert_eq!(parse(r#""a\/b\bc\fdA""#).unwrap(), Json::Str("a/b\u{8}c\u{c}dA".into()));
        // A lone surrogate escape degrades to U+FFFD rather than erroring.
        assert_eq!(parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    }

    #[test]
    fn nested_arrays_and_objects_round_trip() {
        let v = Json::Arr(vec![
            Json::obj(vec![
                ("deep", Json::Arr(vec![Json::Arr(vec![num(1.0)]), Json::Obj(Vec::new())])),
                ("empty_arr", Json::Arr(Vec::new())),
            ]),
            Json::Arr(vec![Json::Null, Json::Bool(false)]),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        // Whitespace-insensitive on the way back in.
        let spaced = " [ { \"deep\" : [ [ 1 ] , { } ] , \"empty_arr\" : [ ] } , [ null , false ] ] ";
        assert_eq!(parse(spaced).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_rejects_malformed_structures() {
        // Unquoted keys, missing colon/comma, bad literals and numbers,
        // truncated escapes — each must fail rather than mis-parse.
        for bad in [
            "",
            "{a: 1}",
            "{\"a\" 1}",
            "{\"a\": 1 \"b\": 2}",
            "[1 2]",
            "tru",
            "nul",
            "01x",
            "1.2.3",
            "--5",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "[}",
            "{]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn parse_caps_nesting_depth() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nest(MAX_DEPTH)).is_ok());
        assert!(parse(&nest(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        // A flood that used to overflow the stack and abort the process.
        assert!(parse(&"[".repeat(200_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(200_000)).is_err());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn as_u64_accepts_counters_only() {
        assert_eq!(count(7).as_u64(), Some(7));
        assert_eq!(num(-1.0).as_u64(), None);
        assert_eq!(s("7").as_u64(), None);
        assert_eq!(Json::Num(f64::NAN).as_u64(), None);
    }
}
