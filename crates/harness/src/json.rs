//! Minimal hand-rolled JSON — value model, parser and writer.
//!
//! The workspace carries no external dependencies, so everything that
//! speaks JSON in-tree goes through this module: the content-addressed
//! run cache ([`cache`](crate::cache)) and the service API vocabulary
//! ([`api`](crate::api)) that the `spechpc serve` daemon exchanges with
//! its clients.
//!
//! Two properties the cache's byte-identical-replay guarantee rests on:
//!
//! * **exact `f64` round-trips** — [`fmt_f64`] writes the shortest
//!   decimal that parses back to the identical bit pattern (Rust's
//!   `{:?}` formatting), so `parse(render(v)) == v` bit-for-bit;
//! * **deterministic rendering** — [`Json::render`] emits object fields
//!   in insertion order with no ambient state, so the same value always
//!   serializes to the same bytes.
//!
//! The parser recurses once per array or object, so it rejects documents
//! nested deeper than [`MAX_DEPTH`]: a request body of a few kilobytes of
//! `[` must get a typed `400`, not overflow the thread's stack.

/// A JSON value. Numbers are `f64` (like JavaScript); `null` decodes to
/// NaN through [`Json::num`] so non-finite floats survive a `null`
/// round-trip.
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
    /// Field lookup on an object (first match wins), `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value; `null` maps to NaN (see [`fmt_f64`]).
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String value.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array items.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// `self[key]` as a usize (floats truncate).
    pub fn usize_of(&self, key: &str) -> Option<usize> {
        Some(self.get(key)?.num()? as usize)
    }

    /// `self[key]` as an f64.
    pub fn f64_of(&self, key: &str) -> Option<f64> {
        self.get(key)?.num()
    }

    /// `self[key]` as an exact non-negative integer: the field must be
    /// present, finite, fraction-free and inside the exactly-
    /// representable `f64` integer range (< 2⁵³). Fractional,
    /// negative or out-of-range values are *rejected* (`None`), never
    /// truncated — the strict accessor wire-protocol integer fields
    /// decode through.
    pub fn u64_of(&self, key: &str) -> Option<u64> {
        let x = self.get(key)?.num()?;
        (x.is_finite() && x.fract() == 0.0 && (0.0..9.007_199_254_740_992e15).contains(&x))
            .then_some(x as u64)
    }

    /// `self[key]` as an exact `u16` (see [`Json::u64_of`]) — small
    /// integer wire fields like HTTP status codes. Out-of-range values
    /// (`70000`, `-1`, `404.5`) are rejected, not wrapped.
    pub fn u16_of(&self, key: &str) -> Option<u16> {
        u16::try_from(self.u64_of(key)?).ok()
    }

    /// `self[key]` as an owned string.
    pub fn str_of(&self, key: &str) -> Option<String> {
        Some(self.get(key)?.str()?.to_string())
    }

    /// `self[key]` as a bool.
    pub fn bool_of(&self, key: &str) -> Option<bool> {
        self.get(key)?.bool()
    }

    /// Compact, deterministic serialization: object fields in insertion
    /// order, no whitespace. Integral numbers in the exactly-
    /// representable `f64` range render without a fraction (`3`, not
    /// `3.0` — counters and rank counts are integers on the wire);
    /// everything else goes through [`fmt_f64`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Integral path: skip -0.0 so the sign bit survives the
            // round trip through fmt_f64.
            Json::Num(x)
                if x.is_finite()
                    && x.fract() == 0.0
                    && x.abs() < 9.007_199_254_740_992e15
                    && (*x != 0.0 || x.is_sign_positive()) =>
            {
                out.push_str(&format!("{}", *x as i64));
            }
            Json::Num(x) => out.push_str(&fmt_f64(*x)),
            Json::Str(s) => out.push_str(&quote(s)),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&quote(k));
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

/// Convenience conversion for building [`Json::Obj`] field lists.
impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Self {
        Json::Num(x as f64)
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Self {
        Json::Num(x as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

/// Exact `f64` serialization: `{:?}` prints the shortest decimal that
/// round-trips to the same bits. Non-finite values map to `null` and
/// decode back to NaN.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

/// Quote and escape a string for embedding in JSON output.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
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
    out
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// golden wire fixtures (`tests/golden/`) nest 6 levels at most.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Option<()> {
        (self.peek()? == b).then(|| self.pos += 1)
    }

    fn value(&mut self) -> Option<Json> {
        match self.peek()? {
            open @ (b'{' | b'[') => {
                if self.depth == MAX_DEPTH {
                    return None;
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            b'"' => Some(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Option<Json> {
        self.skip_ws();
        let end = self.pos + word.len();
        (self.bytes.get(self.pos..end)? == word.as_bytes()).then(|| {
            self.pos = end;
            v
        })
    }

    fn object(&mut self) -> Option<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Some(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            let val = self.value()?;
            fields.push((key, val));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Some(Json::Obj(fields));
                }
                _ => return None,
            }
        }
    }

    fn array(&mut self) -> Option<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Some(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Some(Json::Arr(items));
                }
                _ => return None,
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = *self.bytes.get(self.pos)?;
            self.pos += 1;
            match b {
                b'"' => return Some(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4)?;
                            self.pos += 4;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self.bytes.get(start..start + len)?;
                    out.push_str(std::str::from_utf8(chunk).ok()?);
                    self.pos = start + len;
                }
            }
        }
    }

    fn number(&mut self) -> Option<Json> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<f64>().ok().map(Json::Num)
    }
}

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse_json(text: &str) -> Option<Json> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_unicode() {
        let j = parse_json(r#"{"k": "a\"b\\c\ndAé", "n": [1.5e3, -0.25, null]}"#).unwrap();
        assert_eq!(j.str_of("k").unwrap(), "a\"b\\c\ndAé");
        let Json::Arr(items) = j.get("n").unwrap() else {
            panic!()
        };
        assert_eq!(items[0], Json::Num(1500.0));
        assert_eq!(items[1], Json::Num(-0.25));
        assert!(items[2].num().unwrap().is_nan());
    }

    #[test]
    fn render_is_compact_and_ordered() {
        let v = Json::Obj(vec![
            ("b".into(), Json::from(1.5)),
            ("a".into(), Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("s".into(), Json::from("x\"y")),
        ]);
        assert_eq!(v.render(), r#"{"b":1.5,"a":[null,true],"s":"x\"y"}"#);
    }

    #[test]
    fn accessors_cover_all_shapes() {
        let j = parse_json(r#"{"f": 2.5, "s": "hi", "b": false, "a": [1], "n": null}"#).unwrap();
        assert_eq!(j.f64_of("f"), Some(2.5));
        assert_eq!(j.usize_of("f"), Some(2));
        assert_eq!(j.str_of("s").as_deref(), Some("hi"));
        assert_eq!(j.bool_of("b"), Some(false));
        assert_eq!(j.get("a").unwrap().arr().unwrap().len(), 1);
        assert!(j.f64_of("n").unwrap().is_nan());
        assert_eq!(j.f64_of("missing"), None);
        assert_eq!(j.get("s").unwrap().bool(), None);
    }

    #[test]
    fn strict_integer_accessors_reject_instead_of_truncating() {
        let j = parse_json(
            r#"{"ok": 422, "big": 70000, "frac": 404.5, "neg": -1,
                "huge": 1e300, "zero": 0, "str": "5"}"#,
        )
        .unwrap();
        assert_eq!(j.u16_of("ok"), Some(422));
        assert_eq!(j.u64_of("big"), Some(70000));
        assert_eq!(j.u16_of("big"), None); // in u64 range, not u16
        assert_eq!(j.u64_of("frac"), None); // fractional: reject
        assert_eq!(j.u16_of("frac"), None);
        assert_eq!(j.u64_of("neg"), None); // negative: reject
        assert_eq!(j.u64_of("huge"), None); // beyond exact-f64 integers
        assert_eq!(j.u64_of("zero"), Some(0));
        assert_eq!(j.u64_of("str"), None); // wrong type
        assert_eq!(j.u64_of("missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage_and_truncation() {
        assert!(parse_json("{\"a\": 1} trailing").is_none());
        assert!(parse_json("{\"a\": ").is_none());
        assert!(parse_json("[1, 2").is_none());
        assert!(parse_json("\"unterminated").is_none());
        assert!(parse_json("{\"a\" 1}").is_none());
    }

    // -----------------------------------------------------------------
    // Round-trip property tests (fixed-seed, in-tree RNG — the workspace
    // carries no external property-testing dependency).
    // -----------------------------------------------------------------

    /// xorshift64* — deterministic, seedable, good enough to fuzz a
    /// parser.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            self.0 = x;
            x.wrapping_mul(0x2545F4914F6CDD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn f64(&mut self) -> f64 {
            // A mix of magnitudes, including exact integers, subnormal
            // neighborhoods and negative values.
            match self.below(5) {
                0 => self.below(1_000_000) as f64,
                1 => -(self.below(1_000) as f64) / 7.0,
                2 => f64::from_bits(self.next() >> 2), // finite range
                3 => (self.next() as f64) * 1e-300,
                _ => (self.below(100) as f64) * 0.1,
            }
        }

        fn string(&mut self) -> String {
            let len = self.below(12) as usize;
            (0..len)
                .map(|_| match self.below(6) {
                    0 => '"',
                    1 => '\\',
                    2 => '\n',
                    3 => 'é',
                    4 => char::from_u32(0x2603).unwrap(), // ☃
                    _ => (b'a' + (self.below(26) as u8)) as char,
                })
                .collect()
        }

        fn value(&mut self, depth: usize) -> Json {
            let choices = if depth == 0 { 4 } else { 6 };
            match self.below(choices) {
                0 => Json::Null,
                1 => Json::Bool(self.below(2) == 0),
                2 => {
                    let mut x = self.f64();
                    if !x.is_finite() {
                        x = 0.0;
                    }
                    Json::Num(x)
                }
                3 => Json::Str(self.string()),
                4 => Json::Arr((0..self.below(4)).map(|_| self.value(depth - 1)).collect()),
                _ => Json::Obj(
                    (0..self.below(4))
                        .map(|i| (format!("k{i}_{}", self.string()), self.value(depth - 1)))
                        .collect(),
                ),
            }
        }
    }

    /// Bit-exact equality (`PartialEq` on f64 misses the -0.0/0.0 and
    /// NaN corners).
    fn bit_eq(a: &Json, b: &Json) -> bool {
        match (a, b) {
            (Json::Num(x), Json::Num(y)) => x.to_bits() == y.to_bits(),
            (Json::Arr(xs), Json::Arr(ys)) => {
                xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| bit_eq(x, y))
            }
            (Json::Obj(xs), Json::Obj(ys)) => {
                xs.len() == ys.len()
                    && xs
                        .iter()
                        .zip(ys)
                        .all(|((ka, va), (kb, vb))| ka == kb && bit_eq(va, vb))
            }
            _ => a == b,
        }
    }

    #[test]
    fn prop_parse_render_round_trips_bit_exactly() {
        let mut rng = Rng(0x5eed_cafe_f00d_0001);
        for _ in 0..500 {
            let v = rng.value(3);
            let text = v.render();
            let back =
                parse_json(&text).unwrap_or_else(|| panic!("rendered JSON must re-parse: {text}"));
            assert!(bit_eq(&v, &back), "round trip changed the value: {text}");
            // Render ∘ parse ∘ render is a fixed point.
            assert_eq!(text, back.render());
        }
    }

    #[test]
    fn prop_f64_shortest_decimal_round_trips() {
        let mut rng = Rng(0xdead_beef_0000_0042);
        for _ in 0..2000 {
            let x = f64::from_bits(rng.next());
            if !x.is_finite() {
                continue;
            }
            let text = fmt_f64(x);
            let back = text.parse::<f64>().unwrap();
            assert_eq!(x.to_bits(), back.to_bits(), "{text}");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse_json(&nested(MAX_DEPTH)).is_some());
        assert!(parse_json(&nested(MAX_DEPTH + 1)).is_none());
        let objects = |depth: usize| "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth);
        assert!(parse_json(&objects(MAX_DEPTH)).is_some());
        assert!(parse_json(&objects(MAX_DEPTH + 1)).is_none());
        // Far past the cap, unterminated: rejected without recursing
        // once per byte (which would overflow the test thread's stack).
        assert!(parse_json(&"[".repeat(1_000_000)).is_none());
        assert!(parse_json(&"{\"a\":".repeat(1_000_000)).is_none());
    }

    #[test]
    fn prop_parser_never_panics_on_mutations() {
        let mut rng = Rng(0x0123_4567_89ab_cdef);
        for _ in 0..300 {
            let v = rng.value(2);
            let mut bytes = v.render().into_bytes();
            if bytes.is_empty() {
                continue;
            }
            // Flip one byte; the parser must reject or re-parse without
            // panicking, never loop forever.
            let i = (rng.below(bytes.len() as u64)) as usize;
            bytes[i] = (rng.next() & 0x7f) as u8;
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = parse_json(&text);
            }
        }
    }
}
