//! The workspace's one JSON codec: a [`Value`] tree, a writer and a
//! strict reader (dependency-free).
//!
//! Experiment artifacts, the figure series and the tests that read
//! artifacts back all go through it; the Chrome exporter streams its millions of events with
//! `write!` but shares `escape`. It lives in this crate because this is
//! the one every other crate already sits above.
//!
//! Integers are first-class: a `u64` is written digit for digit and an
//! unsigned integer token is read back as [`Value::Int`], never through
//! `f64` — a 53-bit mantissa would let a 64-bit checksum drift by 2048
//! and still compare equal.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer, exact over the whole `u64` range.
    Int(u64),
    /// Any other number. Non-finite values serialize as `null`, and —
    /// JSON having one number type — a non-negative integral value
    /// below 2^64 is written without a fraction and so reads back as
    /// [`Value::Int`].
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; key order is kept, and [`Value::get`] returns the
    /// first match.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience constructor for objects.
    pub fn obj(fields: Vec<(&str, Value)>) -> Value {
        Value::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for strings.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The value under `key`, if this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Serializes the value to a compact JSON string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Value::Num(_) => out.push_str("null"),
            Value::Str(s) => write_str(out, s),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Value::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    out.push_str(&escape(s));
    out.push('"');
}

/// `s` with everything a JSON string literal may not hold verbatim
/// escaped (quotes, backslashes, control characters); the surrounding
/// quotes are the caller's.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Arrays and objects may nest this deep; a deeper document is rejected
/// rather than recursed into (baselines are files from outside the
/// program).
const MAX_DEPTH: usize = 64;

/// Parses one strict (RFC 8259) JSON document. Anything else — trailing
/// garbage, an unterminated string, a bad or short escape, a raw control
/// character in a string, a malformed number, nesting beyond
/// `MAX_DEPTH` — is an `Err` naming the byte offset, never a panic.
pub fn parse(s: &str) -> Result<Value, String> {
    let mut r = Reader { s, i: 0 };
    let v = r.value(0)?;
    r.skip_ws();
    if r.i != s.len() {
        return Err(r.err("trailing garbage"));
    }
    Ok(v)
}

struct Reader<'a> {
    s: &'a str,
    i: usize,
}

impl Reader<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Consumes `lit` if the input continues with it.
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s.as_bytes()[self.i..].starts_with(lit.as_bytes());
        if hit {
            self.i += lit.len();
        }
        hit
    }

    fn value(&mut self, depth: usize) -> Result<Value, String> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.members("}", |r| r.field(depth)).map(Value::Obj),
            Some(b'[') => self.members("]", |r| r.value(depth + 1)).map(Value::Arr),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) if self.eat("true") => Ok(Value::Bool(true)),
            Some(_) if self.eat("false") => Ok(Value::Bool(false)),
            Some(_) if self.eat("null") => Ok(Value::Null),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// `item (, item)* close`, or `close` at once; the cursor is on the
    /// opening bracket.
    fn members<T>(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(item(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(",") {
                return Err(self.err("expected ',' or the closing bracket"));
            }
        }
    }

    /// `"key" : value`, a member of an object `depth` levels down.
    fn field(&mut self, depth: usize) -> Result<(String, Value), String> {
        self.skip_ws();
        if self.peek() != Some(b'"') {
            return Err(self.err("expected a string key"));
        }
        let key = self.string()?;
        self.skip_ws();
        if !self.eat(":") {
            return Err(self.err("expected ':'"));
        }
        Ok((key, self.value(depth + 1)?))
    }

    /// A string literal; the cursor is on its opening quote.
    fn string(&mut self) -> Result<String, String> {
        self.i += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte as a slice: those are all ASCII, so the cut points are
            // character boundaries and multi-byte text survives intact.
            let run = self.i;
            while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                self.i += 1;
            }
            out.push_str(&self.s[run..self.i]);
            match self.peek() {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let c = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            self.i += 1;
                            out.push(self.unicode_escape()?);
                            continue;
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(c);
                    self.i += 1;
                }
                Some(_) => return Err(self.err("raw control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// The character of a `\u` escape; the cursor is just past the `u`.
    /// Surrogate halves are not characters: text outside the basic plane
    /// is read verbatim, as the writer emits it, not as escape pairs.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let digits = self
            .s
            .as_bytes()
            .get(self.i..self.i + 4)
            .filter(|d| d.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("\\u needs four hex digits"))?;
        let cp = digits
            .iter()
            .fold(0, |cp, &d| cp * 16 + (d as char).to_digit(16).unwrap_or(0));
        self.i += 4;
        char::from_u32(cp).ok_or_else(|| self.err("surrogate escape"))
    }

    fn digits(&mut self) -> usize {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i - start
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`
    fn number(&mut self) -> Result<Value, String> {
        let start = self.i;
        let mut integral = !self.eat("-");
        let int_start = self.i;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.s.as_bytes()[int_start] == b'0') {
            return Err(self.err("malformed number"));
        }
        if self.eat(".") {
            integral = false;
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        if self.eat("e") || self.eat("E") {
            integral = false;
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("malformed number"));
            }
        }
        let token = &self.s[start..self.i];
        if integral {
            if let Ok(n) = token.parse() {
                return Ok(Value::Int(n));
            }
        }
        // Negative, fractional, or beyond u64: the grammar above is a
        // subset of what `f64::from_str` accepts.
        token
            .parse()
            .map(Value::Num)
            .map_err(|_| self.err("malformed number"))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::TestRng;

    use super::*;

    /// Nested values up to `.0` levels deep: integers over the whole
    /// `u64` range, strings over quotes, backslashes, control and
    /// non-ASCII characters, and only such `Num`s as stay `Num` (see
    /// its docs).
    struct Nested(u64);

    impl Strategy for Nested {
        type Value = Value;

        fn generate(&self, rng: &mut TestRng) -> Value {
            const CHARS: [char; 14] = [
                'a', 'Z', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', '\u{7f}', 'é', '漢',
                '🦀',
            ];
            let string = |rng: &mut TestRng| -> String {
                (0..rng.below(12))
                    .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
                    .collect()
            };
            let kinds = if self.0 == 0 { 6 } else { 8 };
            match rng.below(kinds) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 1),
                2 => Value::Int(rng.next_u64()),
                3 => Value::Int(rng.next_u64() >> rng.below(64)),
                4 => Value::Num(rng.below(1 << 40) as f64 - (1u64 << 39) as f64 + 0.5),
                5 => Value::Str(string(rng)),
                6 => Value::Arr(
                    (0..rng.below(4))
                        .map(|_| Nested(self.0 - 1).generate(rng))
                        .collect(),
                ),
                _ => Value::Obj(
                    (0..rng.below(4))
                        .map(|_| (string(rng), Nested(self.0 - 1).generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #[test]
        fn parse_inverts_to_json(v in Nested(3)) {
            prop_assert_eq!(parse(&v.to_json()), Ok(v));
        }

        /// No proper prefix of an array is a document, wherever the cut
        /// falls — inside a string, an escape, a number, a literal.
        #[test]
        fn truncated_documents_are_errors_not_panics(v in Nested(3), cut in any::<usize>()) {
            let text = Value::Arr(vec![v]).to_json();
            let mut cut = cut % text.len();
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            prop_assert!(parse(&text[..cut]).is_err(), "accepted {:?}", &text[..cut]);
        }
    }

    #[test]
    fn reads_what_it_writes_keeping_integers_exact() {
        let sum = 10_266_302_583_755_946_123u64; // above 2^53
        let v = Value::obj(vec![
            ("name", Value::str("a\"b\\c\nd\te\u{1}\u{1f} é 漢 🦀")),
            ("sum", Value::Int(sum)),
            ("ratio", Value::Num(0.25)),
            ("neg", Value::Num(-3.0)),
            ("none", Value::Null),
            (
                "xs",
                Value::Arr(vec![Value::Bool(true), Value::Arr(vec![])]),
            ),
            ("empty", Value::obj(vec![])),
        ]);
        let text = v.to_json();
        assert_eq!(parse(&text), Ok(v));
        assert!(text.contains(&sum.to_string()));
        // One apart above 2^53: equal as f64, distinct as read.
        assert_ne!(parse(&(sum + 1).to_string()), parse(&sum.to_string()));
        assert_eq!(parse(" [1, 2.5e0 ,\t-0]\n"), {
            Ok(Value::Arr(vec![
                Value::Int(1),
                Value::Num(2.5),
                Value::Num(-0.0),
            ]))
        });
        // Beyond u64 a number is still a number, just not an exact one.
        assert_eq!(
            parse("18446744073709551616"),
            Ok(Value::Num(18_446_744_073_709_551_616.0))
        );
    }

    #[test]
    fn reads_every_escape() {
        assert_eq!(
            parse(r#""\"\\\/\b\f\n\r\t\u00e9🦀""#),
            Ok(Value::str("\"\\/\u{8}\u{c}\n\r\té🦀"))
        );
    }

    #[test]
    fn rejects_malformed_documents_without_panicking() {
        for bad in [
            "",
            "{} x",
            "[1,2] ]",
            "\"open",
            "\"bad \\q escape\"",
            "\"short \\u12\"",
            "\"short \\u12",
            "\"\\u12g4\"",
            "\"\\ud83e\\udd80\"",
            "\"\\udc00\"",
            "\"raw \n newline\"",
            "{\"a\" 1}",
            "{\"a\":1,}",
            "{a:1}",
            "[1,]",
            "[1 2]",
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "+1",
            "nul",
            "tru",
            "NaN",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(parse(&deep).is_err(), "accepted {MAX_DEPTH}+ levels");
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
    }
}
