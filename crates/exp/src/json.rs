//! The workspace's one JSON codec: a dependency-free value type with a
//! recursive-descent parser and a compact renderer.
//!
//! The workspace bans external crates (no serde). Every JSON artifact goes
//! through [`Value`]: `repro`'s table and figure files
//! ([`crate::report`]), the JSONL run metrics ([`crate::metrics`]) and the
//! `abr-service` wire frames. This is the minimal complete JSON grammar —
//! objects, arrays, strings with escapes, numbers, booleans, null — with
//! two deliberate properties:
//!
//! * **Numbers round-trip bit-exactly.** Values parse with Rust's
//!   `str::parse::<f64>` and render with `Display`, which emits the
//!   shortest digits that re-parse to the same bits — so a solution
//!   vector survives daemon → client unchanged, which the soak test's
//!   bit-identity assertion depends on. JSON has no inf/nan; a
//!   non-finite number renders as `null`.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map):
//!   rendering is deterministic and frames are diffable in tests.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects: the parser
//! recurses once per level, so without a cap a frame of `[`s (frames may
//! be 64 MiB) would overflow a connection thread's stack and abort the
//! daemon. A deeper document is an ordinary parse error. Strings parse in
//! linear time: each run of plain characters is copied in one piece.

use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (always carried as `f64`).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects / absent keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Num(v) => Some(v),
            _ => None,
        }
    }

    /// The number as a non-negative integer, if it is one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Value::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= 2f64.powi(53) => {
                Some(v as u64)
            }
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// The array elements, if this is one.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// An array of numbers as a vector (`None` if any element is not a
    /// number).
    pub fn as_f64_vec(&self) -> Option<Vec<f64>> {
        self.as_arr()?.iter().map(Value::as_f64).collect()
    }

    /// An array of integers as a vector.
    pub fn as_usize_vec(&self) -> Option<Vec<usize>> {
        self.as_arr()?.iter().map(|v| v.as_u64().map(|u| u as usize)).collect()
    }

    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(out, k);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Appends `s` as a quoted JSON string literal.
fn escape_into(out: &mut String, s: &str) {
    out.push('"');
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", b as char, self.pos))
        }
    }

    /// Parses one value nested inside `depth` arrays and objects.
    fn value(&mut self, depth: usize) -> Result<Value, String> {
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            )),
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "non-utf8 number".to_string())?;
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| format!("bad number `{text}` at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            // Surrogate pairs are not needed by this
                            // protocol (labels are ASCII-ish); lone
                            // surrogates degrade to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{}`", other as char)),
                    }
                }
                Some(_) => {
                    // Copy the run up to the next `"` or `\` in one piece.
                    // Both are ASCII, so the run ends on a char boundary.
                    let start = self.pos;
                    self.pos = self.bytes[start..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .map_or(self.bytes.len(), |i| start + i);
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "non-utf8 string")?,
                    );
                }
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at offset {}", self.pos)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let v = self.value(depth)?;
            fields.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.pos)),
            }
        }
    }
}

/// Builder shorthand: an object from key/value pairs.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Builder shorthand: a number array from a float slice.
pub fn num_arr(xs: &[f64]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(x)).collect())
}

/// Builder shorthand: a number array from an index slice.
pub fn usize_arr(xs: &[usize]) -> Value {
    Value::Arr(xs.iter().map(|&x| Value::Num(x as f64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parses_the_grammar() {
        let v = Value::parse(
            r#"{"a":[1,2.5,-3e-2],"b":"x\"y\n","c":true,"d":null,"e":{"k":0}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_f64_vec().unwrap(), vec![1.0, 2.5, -0.03]);
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "x\"y\n");
        assert_eq!(v.get("c").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("d"), Some(&Value::Null));
        assert_eq!(v.get("e").unwrap().get("k").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Value::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped() {
        let nested = |d: usize| "[".repeat(d) + &"]".repeat(d);
        assert!(Value::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Value::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper than 128"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Value::parse(&objects).unwrap_err().contains("nesting"));
        // A megabyte of `[` fails fast instead of overflowing the stack.
        assert!(Value::parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        let xs = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            -1.0 / 3.0,
            9.869604401089358,
            1e-308,
            -0.0,
        ];
        let rendered = num_arr(&xs).render();
        let back = Value::parse(&rendered).unwrap().as_f64_vec().unwrap();
        for (a, b) in xs.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "{a} -> {rendered} -> {b}");
        }
    }

    #[test]
    fn render_and_parse_are_inverse_on_nested_values() {
        let v = obj(vec![
            ("xs", num_arr(&[1.5, 2.25])),
            ("tag", Value::Str("solve".into())),
            ("n", Value::Num(64.0)),
        ]);
        assert_eq!(Value::parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn a_megabyte_string_parses_in_linear_time() {
        let body = "abcdefgh".repeat(1 << 17);
        let doc = format!("\"{body}\"");
        let t0 = std::time::Instant::now();
        let v = Value::parse(&doc).unwrap();
        let took = t0.elapsed();
        assert_eq!(v.as_str().map(str::len), Some(1 << 20));
        assert!(took < std::time::Duration::from_secs(1), "1 MiB string took {took:?}");
    }

    #[test]
    fn multibyte_text_and_every_escape_parse_back_exactly() {
        let doc = r#""é\"λ\\€\/😀\n\r\t\b\fZ\u00e9\u0000ü""#;
        let want = "é\"λ\\€/😀\n\r\t\u{8}\u{c}Z\u{e9}\u{0}ü";
        assert_eq!(Value::parse(doc).unwrap(), Value::Str(want.into()));
        let text = Value::Str(want.into());
        assert_eq!(Value::parse(&text.render()).unwrap(), text);
    }

    /// Characters the generated strings draw from: every escaped class
    /// plus one- to four-byte UTF-8.
    const CHARS: [char; 16] = [
        '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', 'a', ' ', '\u{7f}', 'é',
        'λ', '€', '😀',
    ];

    fn gen_string(rng: &mut StdRng) -> String {
        (0..rng.gen_range(0usize..10)).map(|_| CHARS[rng.gen_range(0..CHARS.len())]).collect()
    }

    /// A float from a mix of awkward classes: signed zero, subnormals,
    /// integers, arbitrary bit patterns and the non-finite values.
    fn gen_f64(rng: &mut StdRng) -> f64 {
        let sign = if rng.gen::<bool>() { -1.0 } else { 1.0 };
        match rng.gen_range(0usize..6) {
            0 => -0.0,
            1 => sign * f64::from_bits(rng.gen_range(1u64..1 << 52)),
            2 => sign * rng.gen_range(0u64..1 << 53) as f64,
            3 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0usize..3)],
            _ => f64::from_bits(rng.gen::<u64>()),
        }
    }

    fn gen_value(rng: &mut StdRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 4usize } else { 6 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Num(gen_f64(rng)),
            3 => Value::Str(gen_string(rng)),
            4 => Value::Arr(
                (0..rng.gen_range(0usize..5)).map(|_| gen_value(rng, depth - 1)).collect(),
            ),
            _ => Value::Obj(
                (0..rng.gen_range(0usize..5))
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    /// What `v` reads back as: non-finite numbers become `null`.
    fn rendered_form(v: &Value) -> Value {
        match v {
            Value::Num(x) if !x.is_finite() => Value::Null,
            Value::Arr(items) => Value::Arr(items.iter().map(rendered_form).collect()),
            Value::Obj(fields) => {
                Value::Obj(fields.iter().map(|(k, v)| (k.clone(), rendered_form(v))).collect())
            }
            other => other.clone(),
        }
    }

    /// Structural equality with numbers compared bit for bit.
    fn same_bits(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Num(x), Value::Num(y)) => x.to_bits() == y.to_bits(),
            (Value::Arr(xs), Value::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| same_bits(x, y))
            }
            (Value::Obj(xs), Value::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs.iter().zip(ys).all(|((kx, x), (ky, y))| kx == ky && same_bits(x, y))
            }
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        #[test]
        fn parse_inverts_render(seed in 0u64..u64::MAX) {
            let v = gen_value(&mut StdRng::seed_from_u64(seed), 4);
            let text = v.render();
            // JSON forbids raw control characters below U+0020.
            prop_assert!(!text.chars().any(|c| c < ' '), "unescaped control char in {text:?}");
            let back = Value::parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert!(same_bits(&back, &rendered_form(&v)), "{v:?} -> {text} -> {back:?}");
        }
    }
}
