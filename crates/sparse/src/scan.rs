//! Byte-level number scanning: the one number tokenizer behind
//! MatrixMarket ingest ([`crate::io`]) and the workspace's JSON codec.
//!
//! Each parser accepts exactly the tokens its standard-library
//! counterpart accepts, and returns the same value:
//!
//! * [`parse_usize`] is a checked digit loop with `usize::from_str`'s
//!   grammar (an optional `+`, then one or more ASCII digits);
//! * [`parse_f64`] checks that the token is ASCII and hands it to
//!   `str::parse::<f64>`, which stays the rounding authority, so every
//!   value keeps its bits. That parser accepts ASCII only, so a token
//!   with any other byte is rejected before it reaches it.
//!
//! Tokens come from a [`Cursor`] (ASCII-whitespace separated, line by
//! line: the MatrixMarket form) or [`number_len`] (the extent of a JSON
//! number).

/// Parses `tok` as `usize::from_str` would: an optional `+`, then one or
/// more ASCII digits; `None` on any other byte, an empty digit run, or
/// overflow.
pub fn parse_usize(tok: &[u8]) -> Option<usize> {
    let digits = match tok {
        [b'+', rest @ ..] => rest,
        _ => tok,
    };
    if digits.is_empty() {
        return None;
    }
    let mut n = 0usize;
    for &b in digits {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            return None;
        }
        n = n.checked_mul(10)?.checked_add(usize::from(d))?;
    }
    Some(n)
}

/// Parses `tok` as `f64::from_str` would, bit for bit, including its
/// `inf`/`infinity`/`nan` spellings in any case.
pub fn parse_f64(tok: &[u8]) -> Option<f64> {
    if !tok.is_ascii() {
        return None;
    }
    // SAFETY: every byte of `tok` is ASCII, and ASCII is valid UTF-8.
    // (`str::from_utf8` would check that again, at about a third of the
    // cost of parsing a 17-digit token.)
    let text = unsafe { std::str::from_utf8_unchecked(tok) };
    text.parse().ok()
}

/// The bytes a JSON number token is made of.
static NUMBER_BYTE: [bool; 256] = {
    let mut table = [false; 256];
    let mut b = b'0';
    while b <= b'9' {
        table[b as usize] = true;
        b += 1;
    }
    table[b'+' as usize] = true;
    table[b'-' as usize] = true;
    table[b'.' as usize] = true;
    table[b'e' as usize] = true;
    table[b'E' as usize] = true;
    table
};

/// Length of the run of number bytes (ASCII digits, `+`, `-`, `.`, `e`,
/// `E`) at the start of `bytes`: the extent of a JSON number token.
pub fn number_len(bytes: &[u8]) -> usize {
    bytes
        .iter()
        .position(|&b| !NUMBER_BYTE[usize::from(b)])
        .unwrap_or(bytes.len())
}

/// A cursor over the ASCII-whitespace-separated tokens of a buffer
/// that knows where lines end: the MatrixMarket entry form, one pass
/// over the bytes. Whitespace is what `u8::is_ascii_whitespace` says.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// Whether the whole buffer has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    /// Offset of the cursor in the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next token on the current line, or `None` (with the cursor
    /// left on the `\n`) once the line has no more.
    pub fn token(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        let start = rest
            .iter()
            .position(|&b| b == b'\n' || !b.is_ascii_whitespace());
        let Some(start) = start.filter(|&i| rest[i] != b'\n') else {
            self.pos += start.unwrap_or(rest.len());
            return None;
        };
        let len = whitespace_at(&rest[start..]);
        self.pos += start + len;
        Some(&rest[start..start + len])
    }

    /// Moves past the end of the current line; returns the part of it
    /// not yet consumed (without the `\n`).
    pub fn skip_line(&mut self) -> &'a [u8] {
        let rest = &self.bytes[self.pos..];
        let len = rest.iter().position(|&b| b == b'\n').unwrap_or(rest.len());
        self.pos += (len + 1).min(rest.len());
        &rest[..len]
    }
}

/// Index of the first ASCII whitespace byte of `s`, or `s.len()`.
///
/// Eight bytes at a time: every whitespace byte is below `0x21`, and
/// `(w - 0x21..21) & !w & 0x80..80` flags bytes below `0x21` (borrows can
/// flag bytes after a flagged one, never before it, so the lowest flag is
/// exact). A flagged control byte that is not whitespace resumes the
/// search after it.
fn whitespace_at(s: &[u8]) -> usize {
    const ONES: u64 = u64::from_le_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_le_bytes([0x80; 8]);
    let mut i = 0;
    while let Some(word) = s.get(i..i + 8) {
        let w = u64::from_le_bytes(word.try_into().expect("an 8-byte window"));
        let below = w.wrapping_sub(ONES * 0x21) & !w & HIGHS;
        if below == 0 {
            i += 8;
            continue;
        }
        let j = i + (below.trailing_zeros() / 8) as usize;
        if s[j].is_ascii_whitespace() {
            return j;
        }
        i = j + 1;
    }
    i + s[i..]
        .iter()
        .position(u8::is_ascii_whitespace)
        .unwrap_or(s.len() - i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Hand-picked tokens at the edges of both grammars.
    const EDGES: &[&str] = &[
        "",
        "+",
        "-",
        "0",
        "+0",
        "-0",
        "00",
        "007",
        "+007",
        "12",
        "1_0",
        " 1",
        "1 ",
        "18446744073709551615",
        "18446744073709551616",
        "99999999999999999999999",
        "1.",
        ".5",
        "-.5",
        "+.5",
        ".",
        "-.",
        "e5",
        "1e",
        "1e+",
        "1e-5",
        "1E5",
        "1e+308",
        "1e309",
        "-1e309",
        "4.9e-324",
        "2e-324",
        "1.7976931348623157e308",
        "0.30000000000000004",
        "9007199254740993",
        "1.00000000000000011102230246251565404236316680908203125",
        "inf",
        "+inf",
        "-inf",
        "Inf",
        "INF",
        "infinity",
        "Infinity",
        "-INFINITY",
        "infin",
        "nan",
        "NaN",
        "+nan",
        "-NaN",
        "NAN",
        "nan(1)",
        "0x10",
        "1,5",
        "١",
        "½",
        "1\u{a0}",
    ];

    fn agrees(tok: &str) -> bool {
        let want_f = tok.parse::<f64>().ok().map(f64::to_bits);
        let got_f = parse_f64(tok.as_bytes()).map(f64::to_bits);
        let want_u = tok.parse::<usize>().ok();
        let got_u = parse_usize(tok.as_bytes());
        want_f == got_f && want_u == got_u
    }

    #[test]
    fn agrees_with_std_on_edge_tokens() {
        for tok in EDGES {
            assert!(agrees(tok), "scanner disagrees with std on {tok:?}");
        }
    }

    #[test]
    fn non_utf8_tokens_are_rejected() {
        assert_eq!(parse_f64(b"1\xff"), None);
        assert_eq!(parse_usize(b"1\xff"), None);
    }

    #[test]
    fn cursor_splits_on_ascii_whitespace_and_stops_at_line_ends() {
        let mut cur = Cursor::new(b"  1\t2 \x0c3.5\r\n\x0b4 \n\n% c\n5");
        for want in [&b"1"[..], b"2", b"3.5"] {
            assert_eq!(cur.token(), Some(want));
        }
        assert_eq!(cur.token(), None, "the line ends at `\\n`");
        assert_eq!(cur.token(), None, "and stays ended");
        assert_eq!(cur.skip_line(), b"");
        // Vertical tab is not ASCII whitespace.
        assert_eq!(cur.token(), Some(&b"\x0b4"[..]));
        assert_eq!(cur.skip_line(), b" ");
        assert_eq!(cur.token(), None, "a blank line has no tokens");
        cur.skip_line();
        assert_eq!(cur.skip_line(), b"% c");
        assert_eq!(cur.token(), Some(&b"5"[..]));
        assert_eq!(cur.token(), None);
        assert!(cur.at_end());
    }

    #[test]
    fn number_len_stops_at_the_first_non_number_byte() {
        assert_eq!(number_len(b"-1.5e+3,2"), 7);
        assert_eq!(number_len(b"12]"), 2);
        assert_eq!(number_len(b"x"), 0);
        assert_eq!(number_len(b"0123"), 4);
    }

    /// A token over the number alphabet, the letters of the inf/nan
    /// spellings and a few stray bytes.
    fn gen_token(rng: &mut StdRng) -> String {
        const ALPHABET: &[u8] = b"0123456789+-.eE+-.eEinfatyINFATY_x ";
        (0..rng.gen_range(0usize..=24))
            .map(|_| ALPHABET[rng.gen_range(0..ALPHABET.len())] as char)
            .collect()
    }

    /// A digit run around and past `usize::MAX`, with leading zeros and
    /// an optional `+` or `-`.
    fn gen_digits(rng: &mut StdRng) -> String {
        let sign = ["", "", "+", "-"][rng.gen_range(0usize..4)];
        let zeros = "0".repeat(rng.gen_range(0usize..4));
        let digits: String = (0..rng.gen_range(1usize..=24))
            .map(|_| char::from(b'0' + rng.gen_range(0u32..10) as u8))
            .collect();
        format!("{sign}{zeros}{digits}")
    }

    /// The tokens of each line of `text`, split the plain way.
    fn naive_lines(text: &[u8]) -> Vec<Vec<&[u8]>> {
        text.split(|&b| b == b'\n')
            .map(|l| {
                l.split(u8::is_ascii_whitespace)
                    .filter(|t| !t.is_empty())
                    .collect()
            })
            .collect()
    }

    fn cursor_lines(text: &[u8]) -> Vec<Vec<&[u8]>> {
        let mut cur = Cursor::new(text);
        let mut lines = Vec::new();
        loop {
            let mut line = Vec::new();
            while let Some(t) = cur.token() {
                line.push(t);
            }
            lines.push(line);
            let ended_on_newline = !cur.at_end();
            cur.skip_line();
            if !ended_on_newline {
                return lines;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Whitespace, control, ASCII and non-ASCII bytes in every
        /// alignment against the eight-byte stride.
        #[test]
        fn cursor_agrees_with_a_plain_split(seed in 0u64..u64::MAX) {
            const BYTES: &[u8] = b"\n\t\x0b\x0c\r \x00\x1f!\"aZ09.-\x7f\x80\xa0\xff";
            let mut rng = StdRng::seed_from_u64(seed);
            let text: Vec<u8> =
                (0..rng.gen_range(0usize..64)).map(|_| BYTES[rng.gen_range(0..BYTES.len())]).collect();
            prop_assert_eq!(cursor_lines(&text), naive_lines(&text), "{:?}", text);
        }

        #[test]
        fn agrees_with_std_on_ascii_tokens(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            for tok in [gen_token(&mut rng), gen_digits(&mut rng)] {
                prop_assert!(agrees(&tok), "scanner disagrees with std on {tok:?}");
            }
        }

        /// Every float, as `Display`, `{:e}`, `{:+e}` and the MatrixMarket
        /// writer's `{:.17e}` print it.
        #[test]
        fn agrees_with_std_on_printed_floats(bits in 0u64..=u64::MAX) {
            let v = f64::from_bits(bits);
            for tok in [format!("{v}"), format!("{v:e}"), format!("{v:.17e}"), format!("{v:+e}")] {
                prop_assert!(agrees(&tok), "scanner disagrees with std on {tok:?}");
            }
        }
    }
}
