//! The one JSON layer: every JSON byte the workspace reads or writes
//! goes through this module.
//!
//! - [`Json`]: a parsed value, with a depth-limited, linear-time parser
//!   for untrusted input (the `hgl serve` wire frames);
//! - [`write_json_string`]: the one string escaper;
//! - [`JsonWriter`]: a streaming writer that places commas and
//!   indentation for the three container [`Style`]s the documents use.
//!
//! Documents are streamed straight into one `String`: no value tree is
//! built on the way out, and `Display` output is escaped as it is
//! formatted ([`JsonWriter::display`]). Nothing here panics: the
//! parser is bounds-checked at every byte and returns structured
//! errors, the way the ELF reader does.
//!
//! Numbers are held as `f64`; every integer the protocol carries (ids,
//! byte counts, millisecond deadlines) fits `f64` exactly up to 2^53,
//! far beyond any value the daemon accepts.

use std::fmt::{self, Display, Write as _};

/// Nesting depth cap: input deeper than this is rejected rather than
/// recursed into (stack safety against `[[[[...` bombs).
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion-ordered, duplicate keys keep the last.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one complete JSON document; trailing non-whitespace is an
    /// error (a frame is exactly one value).
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser { src: input, at: 0 };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.at != input.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(v)
    }

    /// Object field lookup (`None` for non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// Compact single-line serialisation (no raw newlines anywhere), so
/// `to_string` yields a JSONL frame.
impl Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::one_line();
        w.value(self);
        f.write_str(&w.finish())
    }
}

/// Escape `s` as a JSON string literal into `out`: `\"`, `\\`, `\n`,
/// and every other char below U+0020 as `\u00XX`. Everything else,
/// non-ASCII included, is copied as is.
pub fn write_json_string(s: &str, out: &mut String) {
    out.push('"');
    escape_into(out, s);
    out.push('"');
}

/// The body of [`write_json_string`]: `s` escaped, without quotes.
/// Bytes that need escaping are all ASCII, so every run between them
/// is copied as one slice that starts and ends on char boundaries.
fn escape_into(out: &mut String, s: &str) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let short = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            0..=0x1f => "",
            _ => continue,
        };
        out.push_str(s.get(run..i).unwrap_or_default());
        if short.is_empty() {
            let _ = write!(out, "\\u{b:04x}");
        } else {
            out.push_str(short);
        }
        run = i + 1;
    }
    out.push_str(s.get(run..).unwrap_or_default());
}

/// A `fmt::Write` sink that escapes as it goes, so `Display` output is
/// escaped while it is formatted instead of through a temporary.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        escape_into(self.0, s);
        Ok(())
    }
}

/// How a container lays out its items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    /// One item per line, indented two spaces per enclosing block: the
    /// outer structure of the CLI documents.
    Block,
    /// On one line, spaced: `{ "k": v, "k2": v }` and `["a", "b"]`.
    Inline,
    /// No whitespace: `{"k":v}`, the wire form.
    Compact,
}

/// One open container.
struct Open {
    style: Style,
    object: bool,
    /// Whether an item has been written, i.e. the next one needs a
    /// separator.
    items: bool,
}

/// A streaming JSON writer into one `String`.
///
/// Containers are opened with [`object`](JsonWriter::object) or
/// [`array`](JsonWriter::array) and closed with
/// [`end`](JsonWriter::end); inside an object every value follows a
/// [`key`](JsonWriter::key). The writer places separators and
/// indentation; the caller is responsible for a well-formed sequence of
/// calls. Every method returns the writer, so calls chain.
#[derive(Default)]
pub struct JsonWriter {
    out: String,
    /// Lay block containers out on one line, each line break becoming a
    /// single space, so a whole document fits in one JSONL frame.
    one_line: bool,
    open: Vec<Open>,
    /// A key was just written: the next value takes no separator.
    after_key: bool,
}

impl JsonWriter {
    /// A writer that breaks block containers over indented lines.
    pub fn new() -> JsonWriter {
        JsonWriter::default()
    }

    /// A writer whose output never contains a raw newline: block
    /// containers separate their items with one space instead.
    pub fn one_line() -> JsonWriter {
        JsonWriter { one_line: true, ..JsonWriter::default() }
    }

    /// A one-line writer positioned inside an unwritten compact object:
    /// it produces members (`"k":v,"k2":v`) to be placed into an open
    /// compact object later with [`raw`](JsonWriter::raw).
    pub fn members() -> JsonWriter {
        let mut w = JsonWriter::one_line();
        w.open.push(Open { style: Style::Compact, object: true, items: false });
        w
    }

    /// The text written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Open an object.
    pub fn object(&mut self, style: Style) -> &mut JsonWriter {
        self.open_container(style, true)
    }

    /// Open an array.
    pub fn array(&mut self, style: Style) -> &mut JsonWriter {
        self.open_container(style, false)
    }

    fn open_container(&mut self, style: Style, object: bool) -> &mut JsonWriter {
        self.item();
        self.out.push(if object { '{' } else { '[' });
        self.open.push(Open { style, object, items: false });
        self
    }

    /// Close the innermost open container. A block container closes on
    /// its own line even when empty (`[\n  ]`).
    pub fn end(&mut self) -> &mut JsonWriter {
        if let Some(c) = self.open.pop() {
            match c.style {
                Style::Block => self.line_break(),
                Style::Inline if c.object && c.items => self.out.push(' '),
                Style::Inline | Style::Compact => {}
            }
            self.out.push(if c.object { '}' } else { ']' });
        }
        self
    }

    /// An object key; the next call writes its value.
    pub fn key(&mut self, key: &str) -> &mut JsonWriter {
        self.item();
        write_json_string(key, &mut self.out);
        let compact = matches!(self.open.last(), Some(Open { style: Style::Compact, .. }));
        self.out.push_str(if compact { ":" } else { ": " });
        self.after_key = true;
        self
    }

    /// A string value.
    pub fn str(&mut self, s: &str) -> &mut JsonWriter {
        self.item();
        write_json_string(s, &mut self.out);
        self
    }

    /// A string value: `v`'s `Display` output, escaped as it is
    /// formatted.
    pub fn display(&mut self, v: impl Display) -> &mut JsonWriter {
        self.item();
        self.out.push('"');
        let _ = write!(Escaped(&mut self.out), "{v}");
        self.out.push('"');
        self
    }

    /// A value whose `Display` output is already JSON, written verbatim:
    /// a number or boolean (`format_args!("{x:.4}")` for fixed
    /// precision), an echoed id, or the text of a [`members`] writer.
    ///
    /// [`members`]: JsonWriter::members
    pub fn raw(&mut self, v: impl Display) -> &mut JsonWriter {
        self.item();
        let _ = write!(self.out, "{v}");
        self
    }

    /// `null`.
    pub fn null(&mut self) -> &mut JsonWriter {
        self.raw("null")
    }

    /// A parsed value, compact.
    pub fn value(&mut self, v: &Json) -> &mut JsonWriter {
        match v {
            Json::Null => self.null(),
            Json::Bool(b) => self.raw(b),
            Json::Num(n) if n.is_finite() && n.fract() == 0.0 && n.abs() <= 2f64.powi(53) => {
                self.raw(*n as i64)
            }
            Json::Num(n) if n.is_finite() => self.raw(n),
            Json::Num(_) => self.null(),
            Json::Str(s) => self.str(s),
            Json::Arr(items) => {
                self.array(Style::Compact);
                for item in items {
                    self.value(item);
                }
                self.end()
            }
            Json::Obj(fields) => {
                self.object(Style::Compact);
                for (k, item) in fields {
                    self.key(k).value(item);
                }
                self.end()
            }
        }
    }

    /// A bare line break that is not an item. `hgl-lint-v1` writes an
    /// empty list as `[\n\n  ]`, one more break than
    /// [`end`](JsonWriter::end) gives, and its golden pins those bytes.
    pub fn blank_line(&mut self) -> &mut JsonWriter {
        self.out.push(if self.one_line { ' ' } else { '\n' });
        self
    }

    /// The separator before a new item of the innermost container.
    fn item(&mut self) {
        if std::mem::take(&mut self.after_key) {
            return;
        }
        let Some(c) = self.open.last_mut() else { return };
        let first = !std::mem::replace(&mut c.items, true);
        match (c.style, first, c.object) {
            (Style::Block, true, _) => self.line_break(),
            (Style::Block, false, _) => {
                self.out.push(',');
                self.line_break();
            }
            (Style::Inline, true, true) => self.out.push(' '),
            (Style::Inline, false, _) => self.out.push_str(", "),
            (Style::Compact, false, _) => self.out.push(','),
            (Style::Inline | Style::Compact, true, _) => {}
        }
    }

    /// A newline indented for the current block depth, or one space.
    fn line_break(&mut self) {
        if self.one_line {
            self.out.push(' ');
            return;
        }
        self.out.push('\n');
        for _ in self.open.iter().filter(|c| c.style == Style::Block) {
            self.out.push_str("  ");
        }
    }
}

/// A recursive-descent parser over the input's bytes. Every step moves
/// `at` forward, and a string's plain bytes are copied as whole runs,
/// so parse time is linear in the input length.
struct Parser<'a> {
    src: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.at += 1;
        }
    }

    fn eat(&mut self, token: &str) -> bool {
        let rest = self.src.as_bytes().get(self.at..).unwrap_or_default();
        if rest.starts_with(token.as_bytes()) {
            self.at += token.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH}"));
        }
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(format!("unexpected byte {c:#04x} at offset {}", self.at)),
        }
    }

    fn literal(&mut self, token: &str, v: Json) -> Result<Json, String> {
        if self.eat(token) {
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.at))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        if self.peek() == Some(b'-') {
            self.at += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.at += 1;
        }
        let text = self.src.get(start..self.at).unwrap_or_default();
        text.parse::<f64>()
            .ok()
            .filter(|n| n.is_finite())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return Err(format!("expected string at offset {}", self.at));
        }
        self.at += 1;
        let mut out = String::new();
        loop {
            // The run ends at an ASCII byte or at the end of the input,
            // so it is a whole `&str` slice.
            let start = self.at;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.at += 1;
            }
            out.push_str(self.src.get(start..self.at).unwrap_or_default());
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.at += 1;
                    out.push(self.escape()?);
                }
                Some(c) => return Err(format!("raw control byte {c:#04x} in string")),
            }
        }
    }

    /// The char an escape stands for; `at` is just past the backslash.
    fn escape(&mut self) -> Result<char, String> {
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
                self.at += 1;
                return self.unicode();
            }
            _ => return Err(format!("bad escape at offset {}", self.at)),
        };
        self.at += 1;
        Ok(c)
    }

    /// The char of a `\uXXXX` escape; `at` is just past the `u`. A high
    /// surrogate takes a directly following `\uDC00`..`\uDFFF` as its
    /// low half. A lone half becomes U+FFFD, never an error (ids
    /// round-trip, payloads are hex anyway), and an escape that is not
    /// a low half is then decoded on its own.
    fn unicode(&mut self) -> Result<char, String> {
        let cp = self.hex4()?;
        if (0xD800..0xDC00).contains(&cp) {
            let back = self.at;
            if self.eat("\\u") {
                if let Ok(lo @ 0xDC00..=0xDFFF) = self.hex4() {
                    let c = char::from_u32(0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00));
                    return Ok(c.unwrap_or('\u{FFFD}'));
                }
            }
            self.at = back;
        }
        Ok(char::from_u32(cp).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .at
            .checked_add(4)
            .and_then(|end| self.src.get(self.at..end))
            .filter(|s| s.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| format!("bad \\u escape at offset {}", self.at))?;
        let cp = u32::from_str_radix(digits, 16).map_err(|e| e.to_string())?;
        self.at += 4;
        Ok(cp)
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        let mut items = Vec::new();
        self.items(b']', |p| {
            items.push(p.value(depth + 1)?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.items(b'}', |p| {
            let key = p.string()?;
            p.skip_ws();
            if !p.eat(":") {
                return Err(format!("expected ':' at offset {}", p.at));
            }
            p.skip_ws();
            fields.push((key, p.value(depth + 1)?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// The comma-separated items of a container, from its opening byte
    /// through `close`; `item` parses one.
    fn items(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            item(self)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(c) if c == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => {
                    let close = char::from(close);
                    return Err(format!("expected ',' or '{close}' at offset {}", self.at));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    fn literal(s: &str) -> String {
        let mut out = String::new();
        write_json_string(s, &mut out);
        out
    }

    #[test]
    fn round_trips() {
        for doc in [
            r#"null"#,
            r#"true"#,
            r#"-3"#,
            r#"{"id":1,"op":"lift","full":false}"#,
            r#"{"a":[1,2,{"b":"c"}],"d":"\n\t\"x\""}"#,
        ] {
            let v = Json::parse(doc).expect(doc);
            let emitted = v.to_string();
            assert_eq!(Json::parse(&emitted).expect("reparse"), v, "{doc}");
            assert!(!emitted.contains('\n'), "single-line framing: {emitted}");
        }
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for doc in [
            "", "{", "[", "\"", "{\"a\"", "{\"a\":}", "[1,", "nul", "tru", "+1", "1 2",
            "{\"a\":1}x", "\u{1}", "\"\\u12\"", "\"\\q\"", "01a", "\"\\u+123\"", "\"\\u00é\"",
        ] {
            assert!(Json::parse(doc).is_err(), "should reject {doc:?}");
        }
    }

    #[test]
    fn depth_bomb_is_rejected() {
        let bomb = "[".repeat(100_000);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn field_access() {
        let v = Json::parse(r#"{"id":7,"op":"ping","deep":{"x":true}}"#).expect("parse");
        assert_eq!(v.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(v.get("op").and_then(Json::as_str), Some("ping"));
        assert_eq!(v.get("deep").and_then(|d| d.get("x")).and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn escaper_keeps_the_export_forms() {
        assert_eq!(literal("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(literal("\t\r\u{2}\u{1f} é"), "\"\\u0009\\u000d\\u0002\\u001f é\"");
        assert_eq!(Json::Str("a\nb\u{2}c".to_string()).to_string(), "\"a\\nb\\u0002c\"");
    }

    /// `Json::parse(write(s)) == s` for every control char, the two
    /// escaped printables, multi-byte UTF-8, and escaped surrogate pairs.
    #[test]
    fn strings_round_trip_through_the_escaper() {
        let controls: String = (0u8..0x20).map(char::from).collect();
        for s in [
            controls.as_str(),
            "\"",
            "\\",
            "a \"quoted\" \\path\\ \u{7f}",
            "héllo — ✓ 😀 𝄞 \u{FFFD} \u{10FFFF}",
            "",
        ] {
            assert_eq!(Json::parse(&literal(s)), Ok(Json::Str(s.to_string())), "{s:?}");
        }
        let pairs = r#""\ud83d\ude00 \uD834\uDD1E \udbff\udfff""#;
        assert_eq!(Json::parse(pairs), Ok(Json::Str("😀 𝄞 \u{10FFFF}".to_string())));
        assert_eq!(Json::parse(&literal("😀 𝄞 \u{10FFFF}")), Json::parse(pairs));
    }

    /// A high surrogate needs a low half in DC00..E000; otherwise it is
    /// U+FFFD and the following escape is decoded on its own.
    #[test]
    fn unpaired_surrogates_become_replacement_chars() {
        for (doc, want) in [
            (r#""\ud800\u0041""#, "\u{FFFD}A"),
            (r#""\ud800\ud800\udc00""#, "\u{FFFD}\u{10000}"),
            (r#""\ud800x""#, "\u{FFFD}x"),
            (r#""\ud800""#, "\u{FFFD}"),
            (r#""\udc00\ud800""#, "\u{FFFD}\u{FFFD}"),
        ] {
            assert_eq!(Json::parse(doc), Ok(Json::Str(want.to_string())), "{doc}");
        }
        assert!(Json::parse(r#""\ud800\uzzzz""#).is_err());
    }

    /// Parse time grows linearly with the frame: a 4 MiB string frame
    /// (64x the bytes) may take at most 512x as long as a 64 KiB one.
    /// A parser that rescans the rest of the input per char is ~4096x.
    #[test]
    fn parse_time_is_linear_in_the_frame_length() {
        fn best_of_3(len: usize) -> Duration {
            let frame = format!("{{\"id\":1,\"op\":\"lift\",\"binary\":\"{}\"}}", "z".repeat(len));
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    let v = Json::parse(&frame).expect("frame parses");
                    let took = t.elapsed();
                    assert_eq!(v.get("binary").and_then(Json::as_str).map(str::len), Some(len));
                    took
                })
                .min()
                .unwrap_or_default()
        }
        let small = best_of_3(64 << 10);
        let large = best_of_3(4 << 20);
        assert!(large <= small * 512, "64 KiB: {small:?}, 4 MiB: {large:?}");
    }

    #[test]
    fn writer_styles() {
        let mut w = JsonWriter::new();
        w.object(Style::Block).key("a").raw(1);
        w.key("b").array(Style::Inline).str("x").str("y").end();
        w.key("c").object(Style::Inline).key("k").null().end();
        w.key("d").array(Style::Block).end();
        w.key("e").object(Style::Compact).key("k").raw(true);
        w.key("l").array(Style::Compact).end().end().end();
        assert_eq!(
            w.finish(),
            "{\n  \"a\": 1,\n  \"b\": [\"x\", \"y\"],\n  \"c\": { \"k\": null },\n  \"d\": [\n  ],\n  \
             \"e\": {\"k\":true,\"l\":[]}\n}"
        );
    }

    #[test]
    fn one_line_writer_and_members() {
        let mut m = JsonWriter::members();
        m.key("n").raw(2).key("doc").object(Style::Block).key("x").array(Style::Block).end();
        m.blank_line().end();
        let members = m.finish();
        assert_eq!(members, "\"n\":2,\"doc\":{ \"x\": [ ]  }");
        let mut w = JsonWriter::one_line();
        w.object(Style::Compact).key("id").raw("\"q\"").raw(&members).end();
        let line = w.finish();
        assert_eq!(line, "{\"id\":\"q\",\"n\":2,\"doc\":{ \"x\": [ ]  }}");
        assert_eq!(Json::parse(&line).expect("valid").get("n"), Some(&Json::Num(2.0)));
    }
}
