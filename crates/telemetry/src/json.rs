//! Minimal hand-rolled JSON support: enough to write the trace/metrics
//! dumps, parse back the flat one-object-per-line records the JSONL
//! sink emits, and parse the nested incident-report documents. No
//! serde — the workspace builds offline.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// Unsigned integer (all telemetry numbers are u64).
    Num(u64),
    /// Number with a fraction or exponent (BENCH pin ratios and
    /// wall-clock columns).
    Float(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
    /// Array (nested documents only — flat lines never hold one).
    Arr(Vec<JsonValue>),
    /// Object (nested documents only — flat lines never hold one).
    Obj(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Numeric value, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object fields, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, JsonValue>> {
        match self {
            JsonValue::Obj(map) => Some(map),
            _ => None,
        }
    }

    /// `self["key"]` for objects, `None` otherwise.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_obj()?.get(key)
    }
}

/// Deepest array/object nesting [`parse_value`] accepts. The parser
/// recurses once per level, so an unbounded depth would let a short
/// hostile document (say 100,000 `[`) overflow the stack; every
/// document this workspace writes nests at most a handful of levels.
pub const MAX_DEPTH: usize = 64;

/// Parse one complete JSON document (nested objects and arrays
/// allowed, at most [`MAX_DEPTH`] levels). Trailing non-whitespace,
/// missing or stray separators fail the parse. Unsigned integers parse
/// as [`JsonValue::Num`]; numbers with a fraction or exponent as
/// [`JsonValue::Float`].
pub fn parse_value(text: &str) -> Option<JsonValue> {
    let mut chars = text.trim().chars().peekable();
    let v = parse_any(&mut chars, 0)?;
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return None;
    }
    Some(v)
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

/// Parse the comma-separated items of an array or object up to
/// `close`, calling `item` once per item: an empty list, or items
/// separated by exactly one comma each.
fn parse_items(
    chars: &mut Chars<'_>,
    close: char,
    mut item: impl FnMut(&mut Chars<'_>) -> Option<()>,
) -> Option<()> {
    skip_ws(chars);
    if chars.peek() == Some(&close) {
        chars.next();
        return Some(());
    }
    loop {
        item(chars)?;
        skip_ws(chars);
        match chars.next()? {
            ',' => {}
            c if c == close => return Some(()),
            _ => return None,
        }
    }
}

fn parse_any(chars: &mut Chars<'_>, depth: usize) -> Option<JsonValue> {
    skip_ws(chars);
    match chars.peek()? {
        '"' => Some(JsonValue::Str(parse_string(chars)?)),
        '{' | '[' if depth >= MAX_DEPTH => None,
        '{' => {
            chars.next();
            let mut map = BTreeMap::new();
            parse_items(chars, '}', |chars| {
                skip_ws(chars);
                let key = parse_string(chars)?;
                skip_ws(chars);
                if chars.next()? != ':' {
                    return None;
                }
                map.insert(key, parse_any(chars, depth + 1)?);
                Some(())
            })?;
            Some(JsonValue::Obj(map))
        }
        '[' => {
            chars.next();
            let mut items = Vec::new();
            parse_items(chars, ']', |chars| {
                items.push(parse_any(chars, depth + 1)?);
                Some(())
            })?;
            Some(JsonValue::Arr(items))
        }
        't' | 'f' | 'n' => {
            let mut word = String::new();
            while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                word.push(chars.next()?);
            }
            match word.as_str() {
                "true" => Some(JsonValue::Bool(true)),
                "false" => Some(JsonValue::Bool(false)),
                "null" => Some(JsonValue::Null),
                _ => None,
            }
        }
        c if c.is_ascii_digit() => parse_number(chars),
        _ => None,
    }
}

/// An unsigned integer, or — with a fraction and/or exponent — a float.
fn parse_number(chars: &mut Chars<'_>) -> Option<JsonValue> {
    let mut text = String::new();
    while let Some(c) = chars.next_if(|c| c.is_ascii_digit() || "+-.eE".contains(*c)) {
        text.push(c);
    }
    if text.contains(['.', 'e', 'E']) {
        text.parse().ok().map(JsonValue::Float)
    } else {
        text.parse().ok().map(JsonValue::Num)
    }
}

/// Append `s` to `out` as a JSON string literal (with escaping).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a flat JSON object (`{"k":v,...}` with number/string/bool
/// values, no nesting and no `null`) into a key→value map — the
/// one-object-per-line records the JSONL writers emit. Returns `None`
/// on anything else.
pub fn parse_flat_object(line: &str) -> Option<BTreeMap<String, JsonValue>> {
    let JsonValue::Obj(map) = parse_value(line)? else {
        return None;
    };
    let flat =
        |v: &JsonValue| !matches!(v, JsonValue::Null | JsonValue::Arr(_) | JsonValue::Obj(_));
    map.values().all(flat).then_some(map)
}

fn skip_ws(chars: &mut Chars<'_>) {
    while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut Chars<'_>) -> Option<String> {
    if chars.next()? != '"' {
        return None;
    }
    let mut out = String::new();
    loop {
        match chars.next()? {
            '"' => return Some(out),
            '\\' => match chars.next()? {
                '"' => out.push('"'),
                '\\' => out.push('\\'),
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16).ok()?;
                    out.push(char::from_u32(code)?);
                }
                _ => return None,
            },
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trip() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd\te\u{1}");
        let parsed = parse_string(&mut s.chars().peekable()).unwrap();
        assert_eq!(parsed, "a\"b\\c\nd\te\u{1}");
    }

    #[test]
    fn flat_object_round_trip() {
        let m = parse_flat_object(r#"{"ev":"rng_draw","cost":928,"ok":true,"name":"A-\"1\""}"#)
            .unwrap();
        assert_eq!(m["ev"].as_str(), Some("rng_draw"));
        assert_eq!(m["cost"].as_u64(), Some(928));
        assert_eq!(m["ok"].as_bool(), Some(true));
        assert_eq!(m["name"].as_str(), Some("A-\"1\""));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_flat_object("not json").is_none());
        assert!(parse_flat_object("{\"k\":}").is_none());
    }

    #[test]
    fn nested_documents_parse() {
        let v =
            parse_value(r#"{"a":{"b":[1,2,{"c":"x"}],"d":null},"e":true,"f":[],"g":{}}"#).unwrap();
        assert_eq!(v.get("e").and_then(JsonValue::as_bool), Some(true));
        let b = v
            .get("a")
            .and_then(|a| a.get("b"))
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(b.len(), 3);
        assert_eq!(b[1].as_u64(), Some(2));
        assert_eq!(b[2].get("c").and_then(JsonValue::as_str), Some("x"));
        assert_eq!(v.get("a").and_then(|a| a.get("d")), Some(&JsonValue::Null));
        assert_eq!(v.get("f").unwrap().as_arr().unwrap().len(), 0);
        assert!(v.get("g").unwrap().as_obj().unwrap().is_empty());
    }

    #[test]
    fn nested_parser_rejects_trailing_garbage() {
        assert!(parse_value("{\"a\":1} extra").is_none());
        assert!(parse_value("[1,").is_none());
        assert!(parse_value("{\"a\":nope}").is_none());
    }

    #[test]
    fn fractions_parse_as_floats_and_integers_stay_integers() {
        let v = parse_value(r#"{"x":1.5,"y":2,"z":[0.125,1e3,2.5E-1]}"#).unwrap();
        assert_eq!(v.get("x"), Some(&JsonValue::Float(1.5)));
        assert_eq!(v.get("y"), Some(&JsonValue::Num(2)));
        let z = v.get("z").unwrap().as_arr().unwrap();
        let floats = [0.125, 1000.0, 0.25].map(JsonValue::Float);
        assert_eq!(z, floats);
        for bad in ["1e", "1e+", "1.2.3", "1-2", "[.5]"] {
            assert!(parse_value(bad).is_none(), "{bad}");
        }
    }

    #[test]
    fn missing_and_stray_separators_are_rejected() {
        for bad in [
            r#"{"a":1 "b":2}"#,
            r#"{,"a":1}"#,
            r#"{"a":1,}"#,
            r#"{"a":1,,"b":2}"#,
            "[1 2]",
            "[,1]",
            "[1,]",
            "[,]",
        ] {
            assert!(parse_value(bad).is_none(), "{bad}");
        }
        assert!(parse_value(r#"{ "a" : 1 , "b" : [ 1 , 2 ] }"#).is_some());
    }

    #[test]
    fn nesting_is_capped_without_recursing_past_the_cap() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(parse_value(&deep(MAX_DEPTH)).is_some());
        assert!(parse_value(&deep(MAX_DEPTH + 1)).is_none());
        // Far past the cap: rejected, not a stack overflow.
        assert!(parse_value(&"[".repeat(100_000)).is_none());
        assert!(parse_value(&r#"{"a":"#.repeat(100_000)).is_none());
    }

    #[test]
    fn flat_objects_reject_nesting_null_and_trailing_text() {
        assert!(parse_flat_object(r#"{"a":[1]}"#).is_none());
        assert!(parse_flat_object(r#"{"a":{"b":1}}"#).is_none());
        assert!(parse_flat_object(r#"{"a":null}"#).is_none());
        assert!(parse_flat_object(r#"{"a":1} extra"#).is_none());
        assert!(parse_flat_object("[1]").is_none());
        assert_eq!(parse_flat_object("{}"), Some(BTreeMap::new()));
    }
}
