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
//! * **Numbers round-trip bit-exactly.** Values parse through
//!   [`abr_sparse::scan`] (so `str::parse::<f64>` decides every float's
//!   bits) and render with `Display`, which emits the shortest digits
//!   that re-parse to the same bits — so a solution vector survives
//!   daemon → client unchanged, which the soak test's bit-identity
//!   assertion depends on. JSON has no inf/nan; a non-finite number
//!   renders as `null`.
//! * **Objects preserve insertion order** (a `Vec` of pairs, not a map):
//!   rendering is deterministic and frames are diffable in tests.
//!
//! Nesting is capped at [`MAX_DEPTH`] arrays and objects: the parser
//! recurses once per level, so without a cap a frame of `[`s (frames may
//! be 64 MiB) would overflow a connection thread's stack and abort the
//! daemon. A deeper document is an ordinary parse error. Strings parse in
//! linear time: each run of plain characters is copied in one piece.
//!
//! Large number arrays need not cost a node per element.
//! [`Value::parse_packed`] decodes the arrays under the keys its caller
//! names straight into a [`Value::Floats`] or [`Value::Indices`] vector,
//! and those variants render straight from their slice, with the same
//! bytes an [`Value::Arr`] of [`Value::Num`]s renders. The wire frames'
//! CSR arrays and vectors travel this way.

use abr_sparse::scan;
use std::fmt::Write as _;

/// Deepest nesting of arrays and objects [`Value::parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// 2^53: every integer up to it is exactly an `f64`.
const MAX_EXACT: u64 = 1 << 53;

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
    /// A number array stored packed, rendered like an [`Value::Arr`] of
    /// [`Value::Num`]s. Only [`Value::parse_packed`] produces one, under
    /// a key its caller names; read it with [`Value::into_f64_vec`].
    Floats(Vec<f64>),
    /// An array of integers stored packed, rendered like an
    /// [`Value::Arr`] of [`Value::Num`]s. Only [`Value::parse_packed`]
    /// produces one, under a key its caller names; read it with
    /// [`Value::into_usize_vec`].
    Indices(Vec<usize>),
}

/// How [`Value::parse_packed`] stores the array under a named key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Packed {
    /// As [`Value::Floats`], when every element is a number.
    Floats,
    /// As [`Value::Indices`], when every element is a number
    /// [`Value::as_u64`] accepts.
    Indices,
}

impl Value {
    /// Parses a complete JSON document (rejects trailing garbage).
    pub fn parse(text: &str) -> Result<Value, String> {
        Value::parse_packed(text, &[])
    }

    /// [`Value::parse`], except that an object field whose key `packed`
    /// names, and whose value is an array of numbers of that kind, is
    /// decoded straight into a [`Value::Floats`] or [`Value::Indices`]
    /// vector, with no node per element. Any other value under such a key
    /// parses as usual, so the documents accepted, and the numbers read
    /// from them, are exactly those of [`Value::parse`].
    pub fn parse_packed(text: &str, packed: &[(&str, Packed)]) -> Result<Value, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0, packed };
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

    /// The number as a non-negative integer, if it is one exactly (and
    /// at most 2^53).
    pub fn as_u64(&self) -> Option<u64> {
        self.as_f64().and_then(exact_u64)
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

    /// Moves the first field named `key` out of an object, leaving
    /// `null` in its place (`None` for non-objects / absent keys).
    pub fn take(&mut self, key: &str) -> Option<Value> {
        match self {
            Value::Obj(fields) => fields
                .iter_mut()
                .find(|(k, _)| k == key)
                .map(|(_, v)| std::mem::replace(v, Value::Null)),
            _ => None,
        }
    }

    /// An array of numbers as a vector (`None` if any element is not a
    /// number). A [`Value::Floats`] moves out without a copy.
    pub fn into_f64_vec(self) -> Option<Vec<f64>> {
        match self {
            Value::Floats(xs) => Some(xs),
            Value::Arr(items) => items.iter().map(Value::as_f64).collect(),
            _ => None,
        }
    }

    /// An array of integers ([`Value::as_u64`] on each element) as a
    /// vector. A [`Value::Indices`] moves out without a copy.
    pub fn into_usize_vec(self) -> Option<Vec<usize>> {
        match self {
            Value::Indices(xs) => Some(xs),
            Value::Arr(items) => items.iter().map(|v| v.as_u64().map(|u| u as usize)).collect(),
            _ => None,
        }
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
            Value::Num(v) => write_num(out, *v),
            Value::Str(s) => escape_into(out, s),
            Value::Arr(items) => write_list(out, items, |out, v| v.render_into(out)),
            Value::Floats(xs) => write_list(out, xs, |out, &v| write_num(out, v)),
            Value::Indices(xs) => write_list(out, xs, |out, &x| match u64::try_from(x) {
                Ok(u) if u <= MAX_EXACT => {
                    let _ = write!(out, "{u}");
                }
                // What the number renders as once it is an `f64`.
                _ => write_num(out, x as f64),
            }),
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

/// `v` as an integer, if it is one exactly in `0..=2^53`.
fn exact_u64(v: f64) -> Option<u64> {
    (v >= 0.0 && v.fract() == 0.0 && v <= MAX_EXACT as f64).then_some(v as u64)
}

/// An array element [`Value::as_u64`] would accept, as `usize`. A digit
/// run up to 2^53 is converted by the digit loop, exactly; any other
/// token takes the float path `as_u64` takes, so `3.0` and `3e0` decode
/// as 3, and `9007199254740993` rounds to 2^53 as its `f64` does.
fn index(tok: &[u8]) -> Option<usize> {
    match scan::parse_usize(tok) {
        Some(n) if n as u64 <= MAX_EXACT => Some(n),
        _ => exact_u64(scan::parse_f64(tok)?).map(|u| u as usize),
    }
}

/// Appends a number: `Display`'s shortest round-trip digits, or `null`
/// for a non-finite value.
fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends `items` as a JSON array, each rendered by `each`.
fn write_list<T>(out: &mut String, items: &[T], mut each: impl FnMut(&mut String, &T)) {
    out.push('[');
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        each(out, x);
    }
    out.push(']');
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
    /// Keys whose number arrays decode packed.
    packed: &'a [(&'a str, Packed)],
}

impl<'a> Parser<'a> {
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

    /// The number token at the cursor, which starts as a JSON number
    /// value does (`-` or a digit); advances past it.
    fn number_token(&mut self) -> Option<&'a [u8]> {
        if !matches!(self.peek(), Some(b'-' | b'0'..=b'9')) {
            return None;
        }
        let start = self.pos;
        self.pos += scan::number_len(&self.bytes[start..]);
        Some(&self.bytes[start..self.pos])
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let tok = self.number_token().ok_or_else(|| format!("expected a number at offset {start}"))?;
        scan::parse_f64(tok).map(Value::Num).ok_or_else(|| {
            format!("bad number `{}` at offset {start}", String::from_utf8_lossy(tok))
        })
    }

    /// The array at the cursor decoded packed, if every element is a
    /// number `elem` accepts and the array is well formed. Otherwise
    /// `None`, with the cursor back where it was.
    fn packed_array<T>(&mut self, elem: impl Fn(&[u8]) -> Option<T>) -> Option<Vec<T>> {
        let start = self.pos;
        let items = self.packed_items(elem);
        if items.is_none() {
            self.pos = start;
        }
        items
    }

    fn packed_items<T>(&mut self, elem: impl Fn(&[u8]) -> Option<T>) -> Option<Vec<T>> {
        if self.peek() != Some(b'[') {
            return None;
        }
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Some(items);
        }
        loop {
            self.skip_ws();
            items.push(elem(self.number_token()?)?);
            self.skip_ws();
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(items);
                }
                _ => return None,
            }
        }
    }

    /// An object field's value: packed if its key asks for it and it
    /// decodes so, else a generic value.
    fn field_value(&mut self, key: &str, depth: usize) -> Result<Value, String> {
        let packed = match self.packed.iter().find(|(k, _)| *k == key) {
            // A packed array nests one level, as `value` would count it.
            Some(&(_, kind)) if depth < MAX_DEPTH => match kind {
                Packed::Floats => self.packed_array(scan::parse_f64).map(Value::Floats),
                Packed::Indices => self.packed_array(index).map(Value::Indices),
            },
            _ => None,
        };
        match packed {
            Some(v) => Ok(v),
            None => self.value(depth),
        }
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
            let v = self.field_value(&key, depth)?;
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
        assert_eq!(v.get("a").cloned().and_then(Value::into_f64_vec), Some(vec![1.0, 2.5, -0.03]));
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
        let back = Value::parse(&rendered).unwrap().into_f64_vec().unwrap();
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

    /// An index, now and then past 2^53 (where it renders rounded).
    fn gen_index(rng: &mut StdRng) -> usize {
        match rng.gen_range(0usize..4) {
            0 => rng.gen_range(0usize..10),
            1 => (MAX_EXACT as usize).wrapping_add(rng.gen_range(0usize..5)).wrapping_sub(2),
            2 => rng.gen::<u64>() as usize,
            _ => rng.gen_range(0usize..1 << 20),
        }
    }

    fn gen_value(rng: &mut StdRng, depth: usize) -> Value {
        let kinds = if depth == 0 { 4usize } else { 8 };
        match rng.gen_range(0..kinds) {
            0 => Value::Null,
            1 => Value::Bool(rng.gen()),
            2 => Value::Num(gen_f64(rng)),
            3 => Value::Str(gen_string(rng)),
            4 => Value::Arr(
                (0..rng.gen_range(0usize..5)).map(|_| gen_value(rng, depth - 1)).collect(),
            ),
            5 => Value::Obj(
                (0..rng.gen_range(0usize..5))
                    .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                    .collect(),
            ),
            6 => Value::Floats((0..rng.gen_range(0usize..5)).map(|_| gen_f64(rng)).collect()),
            _ => Value::Indices((0..rng.gen_range(0usize..5)).map(|_| gen_index(rng)).collect()),
        }
    }

    /// What `v` reads back as: non-finite numbers become `null`, and a
    /// packed array an array of numbers.
    fn rendered_form(v: &Value) -> Value {
        match v {
            Value::Num(x) if !x.is_finite() => Value::Null,
            Value::Floats(xs) => rendered_form(&num_arr(xs)),
            Value::Indices(xs) => Value::Arr(xs.iter().map(|&x| Value::Num(x as f64)).collect()),
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

        /// Packed decoding changes how arrays are stored, never what a
        /// document means: the same documents parse, the same numbers come
        /// out, and non-number elements fall back to the generic parse.
        #[test]
        fn packed_parse_reads_what_the_generic_parse_reads(seed in 0u64..u64::MAX) {
            let text = gen_packed_doc(&mut StdRng::seed_from_u64(seed));
            let generic = Value::parse(&text);
            let packed = Value::parse_packed(&text, &PACKED_KEYS);
            match (generic, packed) {
                (Ok(generic), Ok(packed)) => {
                    let bits = |v: Option<Value>| {
                        v.and_then(Value::into_f64_vec)
                            .map(|xs| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                    };
                    let inner = |v: &Value| v.get("o").cloned().unwrap_or(Value::Null);
                    for (mut g, mut p) in [(generic.clone(), packed.clone()), (inner(&generic), inner(&packed))] {
                        prop_assert_eq!(bits(g.take("f")), bits(p.take("f")), "{}", text);
                        prop_assert_eq!(
                            g.take("i").and_then(Value::into_usize_vec),
                            p.take("i").and_then(Value::into_usize_vec),
                            "{}",
                            text
                        );
                    }
                }
                (Err(g), Err(p)) => prop_assert_eq!(g, p, "{}", text),
                (g, p) => panic!("generic {g:?} vs packed {p:?} on {text}"),
            }
        }
    }

    const PACKED_KEYS: [(&str, Packed); 2] = [("f", Packed::Floats), ("i", Packed::Indices)];

    /// Array elements at the edges of both packed kinds: integers that
    /// decode only through the float path, ones that never decode,
    /// malformed numbers, and values that are not numbers at all.
    const ELEMENTS: [&str; 24] = [
        "0", "7", "007", "3.0", "3e0", "30e-1", "-0", "-1", "1.5", "9007199254740992",
        "9007199254740993", "9007199254740994", "18446744073709551616", "1e400", "-1e400",
        "4.9e-324", "0.30000000000000004", "-2.5E+3", "1.", "--1", "1e", "null", "\"x\"", "[1]",
    ];

    /// A small document with arrays under the packed keys, at the top
    /// level and one object down, in assorted whitespace.
    fn gen_packed_doc(rng: &mut StdRng) -> String {
        let ws = |rng: &mut StdRng| [""; 3].join(["", " ", "\n\t"][rng.gen_range(0usize..3)]);
        let array = |rng: &mut StdRng| {
            let numbers_only = rng.gen_range(0usize..4) > 0;
            let pool = if numbers_only { 18 } else { ELEMENTS.len() };
            let items: Vec<String> = (0..rng.gen_range(0usize..5))
                .map(|_| format!("{}{}{}", ws(rng), ELEMENTS[rng.gen_range(0..pool)], ws(rng)))
                .collect();
            format!("[{}{}]", items.join(","), ws(rng))
        };
        let (f, i, inner) = (array(rng), array(rng), array(rng));
        let doc = format!("{{\"f\":{f},\"i\":{i},\"o\":{{\"i\":{inner},\"f\":{inner}}}}}");
        if rng.gen_range(0usize..8) == 0 {
            // Cut short: both parses must fail alike.
            let cut = rng.gen_range(0..doc.len());
            doc[..cut].to_string()
        } else {
            doc
        }
    }

    #[test]
    fn integral_array_elements_decode_as_as_u64_reads_them() {
        let doc = r#"{"i":[3.0,3e0,30e-1,-0,007,9007199254740993]}"#;
        let mut v = Value::parse_packed(doc, &PACKED_KEYS).unwrap();
        assert_eq!(v.get("i"), Some(&Value::Indices(vec![3, 3, 3, 0, 7, 1 << 53])));
        assert_eq!(v.take("i").and_then(Value::into_usize_vec), Some(vec![3, 3, 3, 0, 7, 1 << 53]));
        for bad in ["-1", "1.5", "9007199254740994", "1e400"] {
            let doc = format!("{{\"i\":[1,{bad}]}}");
            let mut v = Value::parse_packed(&doc, &PACKED_KEYS).unwrap();
            assert!(matches!(v.get("i"), Some(Value::Arr(_))), "{bad} falls back");
            assert_eq!(v.take("i").and_then(Value::into_usize_vec), None, "{bad}");
        }
    }

    #[test]
    fn packed_arrays_nest_no_deeper_than_max_depth() {
        let doc = |d: usize| "{\"a\":".repeat(d - 1) + "{\"f\":[1]}" + &"}".repeat(d - 1);
        assert!(Value::parse_packed(&doc(MAX_DEPTH - 1), &PACKED_KEYS).is_ok());
        assert!(Value::parse(&doc(MAX_DEPTH)).unwrap_err().contains("nesting"));
        assert!(Value::parse_packed(&doc(MAX_DEPTH), &PACKED_KEYS).unwrap_err().contains("nesting"));
    }
}
