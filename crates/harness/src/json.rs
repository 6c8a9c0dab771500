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
//! * **exact `f64` round-trips** — [`write_f64`] writes the shortest
//!   decimal that parses back to the identical bit pattern, byte for
//!   byte what Rust's `{:?}` prints, so `parse(render(v)) == v`
//!   bit-for-bit. The digits come from the codec's own Ryū writer
//!   (Adams, PLDI 2018) with one rule changed to match `{:?}`: an exact
//!   tie between the two shortest candidates rounds up, not to even
//!   (2⁻²⁵ is `2.9802322387695313e-8`). [`write_num`] is the wire
//!   spelling: the same, except that an integral value below 2⁵³ drops
//!   its fraction (`3`, not `3.0`). Both append to the caller's
//!   `String`, allocating nothing per number, and `{:?}` itself is left
//!   to the tests as their oracle;
//! * **deterministic rendering** — [`Json::render`] emits object fields
//!   in insertion order with no ambient state, so the same value always
//!   serializes to the same bytes.
//!
//! The parser reads RFC 8259 and nothing looser: a number is exactly
//! `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?` (so `+1`, `.5`,
//! `1.` and `01` are refused), a string holds no raw control byte, a
//! `\u` escape is four hex digits, a UTF-16 surrogate pair joining into
//! one character and a lone surrogate refused, and whitespace is space,
//! tab, LF and CR (no form feed). It recurses once per array or object,
//! so it rejects documents nested deeper than [`MAX_DEPTH`]: a request
//! body of a few kilobytes of `[` must get a typed `400`, not overflow
//! the thread's stack.
//!
//! One grammar, two instantiations: [`parse_json`] builds a [`Json`]
//! tree, and the crate-private `is_valid_json` runs the same parser
//! with tree building (and number conversion) compiled out, so it
//! answers "would this parse?" without allocating (the fleet
//! coordinator vets every relayed body that way).

mod number;

pub(crate) use number::write_u64;

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

    /// Numeric value; `null` maps to NaN (see [`write_f64`]).
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
        self.get(key)?.u64()
    }

    /// This value as an exact non-negative integer (see
    /// [`Json::u64_of`]).
    pub fn u64(&self) -> Option<u64> {
        exact_u64(self.num()?)
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
    /// order, no whitespace. Numbers go through [`write_num`]: integral
    /// ones in the exactly-representable `f64` range render without a
    /// fraction (`3`, not `3.0` — counters and rank counts are integers
    /// on the wire), everything else as [`write_f64`] writes it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(out, *x),
            Json::Str(s) => write_str(out, s),
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
                    write_str(out, k);
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

/// Append the shortest decimal that parses back to `x`'s bits, exactly
/// as `format!("{x:?}")` spells it (`12.0`, `-0.0`, `1.5e-5`, `1e16`),
/// or `null` when `x` is not finite (a `null` decodes back to NaN).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        number::write_shortest(out, x);
    } else {
        out.push_str("null");
    }
}

/// 2⁵³: every integer below it is exact in an `f64`.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// `x` as a non-negative integer below 2⁵³, or `None` for a negative,
/// fractional, non-finite or larger value: the one rule for the
/// integers the wire carries ([`Json::u64`]), the plan files'
/// integers and the command line's seeds, so a number accepted
/// anywhere survives the wire unchanged.
pub fn exact_u64(x: f64) -> Option<u64> {
    (x.fract() == 0.0 && (0.0..MAX_EXACT_INT).contains(&x)).then_some(x as u64)
}

/// Append `x` in the wire number format [`Json::render`] uses: an
/// integral value in the exactly-representable range without a
/// fraction (`3`, not `3.0`), everything else through [`write_f64`].
/// Writes in place, so a response of many numbers allocates none per
/// value.
pub fn write_num(out: &mut String, x: f64) {
    // Integral path: skip -0.0 so the sign bit survives the round trip
    // through write_f64.
    if x.is_finite()
        && x.fract() == 0.0
        && x.abs() < MAX_EXACT_INT
        && (x != 0.0 || x.is_sign_positive())
    {
        if x < 0.0 {
            out.push('-');
        }
        write_u64(out, x.abs() as u64);
    } else {
        write_f64(out, x);
    }
}

/// Append `s` to `out` quoted and escaped: the one escaping rule of
/// every JSON string this crate writes.
pub(crate) fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u00");
                out.push(char::from(HEX[c as usize >> 4]));
                out.push(char::from(HEX[c as usize & 0xf]));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The digits of a `\u00XX` escape.
const HEX: &[u8; 16] = b"0123456789abcdef";

/// Deepest nesting of arrays and objects [`parse_json`] accepts. The
/// golden wire fixtures (`tests/golden/`) nest 6 levels at most.
pub const MAX_DEPTH: usize = 128;

/// The one JSON grammar. With `BUILD` false the parser keeps every
/// check but never fills a string, array or object, so a document is
/// accepted or rejected exactly as [`parse_json`] would, at no
/// allocation; the values it returns are then empty placeholders.
struct Parser<'a, const BUILD: bool> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a, const BUILD: bool> Parser<'a, BUILD> {
    fn new(text: &'a str) -> Self {
        Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Step over RFC 8259 whitespace: space, tab, LF and CR (not the
    /// form feed `u8::is_ascii_whitespace` also takes).
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
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
            if BUILD {
                fields.push((key, val));
            }
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
            let item = self.value()?;
            if BUILD {
                items.push(item);
            }
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
                    let c = match esc {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return None,
                    };
                    if BUILD {
                        out.push(c);
                    }
                }
                // Control characters must be escaped (RFC 8259 §7).
                0x00..=0x1f => return None,
                _ => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = std::str::from_utf8(self.bytes.get(start..start + len)?).ok()?;
                    if BUILD {
                        out.push_str(chunk);
                    }
                    self.pos = start + len;
                }
            }
        }
    }

    /// The character of a `\u` escape whose `\u` is consumed: four hex
    /// digits, or a high surrogate's four followed by `\u` and a low
    /// surrogate's, joined into one character (how UTF-16 and Python's
    /// `json.dumps` spell `🚀`). A lone surrogate is refused.
    fn unicode_escape(&mut self) -> Option<char> {
        let code = self.hex4()?;
        if !(0xd800..0xdc00).contains(&code) {
            // A low surrogate here has no high one: from_u32 refuses it.
            return char::from_u32(code);
        }
        if self.bytes.get(self.pos..self.pos + 2)? != b"\\u" {
            return None;
        }
        self.pos += 2;
        let low = self.hex4()?;
        if !(0xdc00..0xe000).contains(&low) {
            return None;
        }
        char::from_u32(0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00))
    }

    /// Exactly four hex digits as a number.
    fn hex4(&mut self) -> Option<u32> {
        let hex = self.bytes.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        hex.iter()
            .try_fold(0, |code, &b| Some(code << 4 | char::from(b).to_digit(16)?))
    }

    /// One number, exactly RFC 8259's
    /// `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`. The validating
    /// instantiation stops at the scan: every token of that grammar
    /// parses as an `f64` (a magnitude past `f64::MAX` as ±∞).
    fn number(&mut self) -> Option<Json> {
        self.skip_ws();
        let start = self.pos;
        self.eat(b'-');
        match self.bytes.get(self.pos)? {
            b'0' => self.pos += 1,
            b'1'..=b'9' => {
                self.digits();
            }
            _ => return None,
        }
        if self.eat(b'.') && self.digits() == 0 {
            return None;
        }
        if self.eat(b'e') || self.eat(b'E') {
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return None;
            }
        }
        if !BUILD {
            return Some(Json::Null);
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        text.parse::<f64>().ok().map(Json::Num)
    }

    /// Step over `b` if it is next, saying whether it was.
    fn eat(&mut self, b: u8) -> bool {
        let next = self.bytes.get(self.pos) == Some(&b);
        self.pos += usize::from(next);
        next
    }

    /// Step over a run of ASCII digits, returning its length.
    fn digits(&mut self) -> usize {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_digit) {
            self.pos += 1;
        }
        self.pos - start
    }
}

/// Run the grammar over a complete document; trailing garbage is an
/// error.
fn document<const BUILD: bool>(text: &str) -> Option<Json> {
    let mut p = Parser::<BUILD>::new(text);
    let v = p.value()?;
    p.skip_ws();
    (p.pos == p.bytes.len()).then_some(v)
}

/// Parse a complete JSON document; trailing garbage is an error.
pub fn parse_json(text: &str) -> Option<Json> {
    document::<true>(text)
}

/// Whether [`parse_json`] accepts `text`, decided by the same grammar
/// without building (or allocating) a tree.
pub(crate) fn is_valid_json(text: &str) -> bool {
    document::<false>(text).is_some()
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
        assert_eq!(j.u64_of("f"), None);
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
            let mut text = String::new();
            write_f64(&mut text, x);
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

    /// Number tokens and whether RFC 8259's grammar admits them.
    const NUMBER_CORNERS: [(&str, bool); 30] = [
        ("+1", false),
        ("1.", false),
        (".5", false),
        ("1e", false),
        ("-", false),
        ("--1", false),
        ("1e+", false),
        ("1e-5", true),
        ("-.5", false),
        ("1.e3", false),
        ("01", false),
        ("-01", false),
        ("00", false),
        ("-0", true),
        ("0", true),
        ("0.0", true),
        ("0e0", true),
        ("1e400", true),
        ("1E5", true),
        ("1E+05", true),
        ("1.2.3", false),
        ("1.5e3.2", false),
        ("e5", false),
        ("+", false),
        (".", false),
        ("0x10", false),
        ("1_000", false),
        ("Infinity", false),
        ("NaN", false),
        ("-Infinity", false),
    ];

    #[test]
    fn numbers_are_exactly_rfc_8259() {
        for (n, valid) in NUMBER_CORNERS {
            assert_eq!(parse_json(n).is_some(), valid, "{n}");
            assert_eq!(is_valid_json(n), valid, "{n}");
        }
        // Overflow still reads as ±∞, and -0 keeps its sign.
        assert_eq!(parse_json("1e400"), Some(Json::Num(f64::INFINITY)));
        assert_eq!(parse_json("-1e400"), Some(Json::Num(f64::NEG_INFINITY)));
        let Some(Json::Num(z)) = parse_json("-0") else {
            panic!("-0 parses")
        };
        assert!(z == 0.0 && z.is_sign_negative());
        assert_eq!(parse_json("[1E+05]"), Some(Json::Arr(vec![Json::Num(1e5)])));
        // Around a token, whitespace is RFC 8259's four bytes only.
        assert_eq!(parse_json(" \t\n\r1 \r\n"), Some(Json::Num(1.0)));
        for bad in ["\u{c}1", "1\u{c}", "[1,\u{c}2]"] {
            assert_eq!(parse_json(bad), None, "{bad:?}");
            assert!(!is_valid_json(bad), "{bad:?}");
        }
    }

    #[test]
    fn strings_join_surrogate_pairs_and_refuse_raw_controls() {
        // What Python's default json.dumps writes for "🚀".
        let rocket = r#""\ud83d\ude80""#;
        assert_eq!(parse_json(rocket), Some(Json::Str("🚀".into())));
        assert!(is_valid_json(rocket));
        assert_eq!(
            parse_json(r#""a\u00e9\uD83D\uDE80b""#),
            Some(Json::from("aé🚀b"))
        );
        for bad in [
            r#""\ud83d""#,       // lone high surrogate
            r#""\ud83dx""#,      // high surrogate, then a plain byte
            r#""\ud83d\u0041""#, // high surrogate, then no low one
            r#""\ude80""#,       // lone low surrogate
            r#""\ude80\ud83d""#, // the pair reversed
            r#""\u+041""#,       // not four hex digits
            "\"a\tb\"",          // raw tab
            "\"a\nb\"",          // raw newline
            "\"\u{1}\"",         // raw U+0001
        ] {
            assert_eq!(parse_json(bad), None, "{bad:?}");
            assert!(!is_valid_json(bad), "{bad:?}");
        }
        // Escaped, the same characters are fine, and the writer escapes
        // them so its output always re-parses.
        let mut text = String::new();
        write_str(&mut text, "a\tb\u{1}\u{1f}");
        assert_eq!(text, r#""a\tb\u0001\u001f""#);
        assert_eq!(parse_json(&text), Some(Json::from("a\tb\u{1}\u{1f}")));
    }

    /// The validator and the tree parser are one grammar: over rendered
    /// values, their mutations and the grammar's corners, `is_valid_json`
    /// accepts exactly what `parse_json` parses.
    #[test]
    fn prop_validator_accepts_exactly_what_the_parser_parses() {
        let mut rng = Rng(0x7a11_da7e_c0de_0001);
        let mut inputs: Vec<String> = Vec::new();
        // Rendered values, then byte flips, truncations and trailing
        // garbage on each.
        for _ in 0..400 {
            let text = rng.value(3).render();
            let mut flipped = text.clone().into_bytes();
            if !flipped.is_empty() {
                let i = rng.below(flipped.len() as u64) as usize;
                flipped[i] = rng.next() as u8;
            }
            inputs.push(String::from_utf8_lossy(&flipped).into_owned());
            let cut = rng.below(text.len() as u64 + 1) as usize;
            inputs.push(String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned());
            let tails = [
                " ", "\n\t", "x", ",", "]", "}", "0", " null", "{}", "\u{feff}",
            ];
            inputs.push(text.clone() + tails[rng.below(tails.len() as u64) as usize]);
            inputs.push(text);
        }
        // Nesting at and past the depth cap.
        for depth in [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 4 * MAX_DEPTH] {
            inputs.push("[".repeat(depth) + &"]".repeat(depth));
            inputs.push("{\"a\":".repeat(depth) + "1" + &"}".repeat(depth));
            inputs.push("[".repeat(depth));
        }
        // `\u` escapes: surrogates, non-hex and sign characters, short
        // and multi-byte runs.
        let hex = [
            "0041", "00e9", "2603", "d800", "dbff", "dc00", "dfff", "D83D", "+041", "-041", "004",
            "00g1", "0 41", "00é", "ffff", "FFFF", "10000",
        ];
        for h in hex {
            inputs.push(format!("\"\\u{h}\""));
            inputs.push(format!("[\"a\\u{h}b\", 1]"));
            inputs.push(format!("\"\\u{h}"));
        }
        inputs.push("\"\\ud83d\\ude00\"".to_string());
        // Number corners, each with RFC 8259's verdict, then random
        // runs over the number alphabet.
        for (n, valid) in NUMBER_CORNERS {
            for text in [n.to_string(), format!("[{n}]"), format!("{{\"k\": {n}}}")] {
                assert_eq!(parse_json(&text).is_some(), valid, "{text:?}");
                inputs.push(text);
            }
        }
        let alphabet = b"0123456789+-.eE";
        for _ in 0..500 {
            let len = 1 + rng.below(6) as usize;
            let run: String = (0..len)
                .map(|_| alphabet[rng.below(alphabet.len() as u64) as usize] as char)
                .collect();
            inputs.push(run);
        }

        let (mut accepted, mut rejected) = (0, 0);
        for text in &inputs {
            let parsed = parse_json(text).is_some();
            assert_eq!(is_valid_json(text), parsed, "grammars disagree on {text:?}");
            if parsed {
                accepted += 1;
            } else {
                rejected += 1;
            }
        }
        assert!(
            accepted > 500 && rejected > 500,
            "{accepted} accepted, {rejected} rejected"
        );
    }
}
