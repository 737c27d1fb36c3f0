//! A hand-rolled JSON subset: enough writer + parser for the workspace's
//! JSONL exports and `BENCH_*.json` baselines, with proper string
//! escaping, and zero dependencies.
//!
//! The exports only ever emit objects whose values are strings, numbers,
//! `null`, or arrays thereof — so that is all the parser accepts. Numbers
//! are kept as their raw text so callers can parse them as `u64` exactly
//! (no detour through `f64`).

use std::fmt;

/// A parsed JSON value (workspace subset: no booleans, no nested objects
/// beyond one level of arrays — the exports never produce them).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// A number, kept as raw text for lossless integer round-trips.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, fields in source order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// A number written as `value`'s display text, so a caller's chosen
    /// precision (`format!("{x:.4}")`) reaches the output unchanged.
    pub fn num(value: impl fmt::Display) -> Self {
        JsonValue::Num(value.to_string())
    }

    /// An object with `fields` in the given order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, JsonValue)>) -> Self {
        JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render in the `BENCH_*.json` layout: a top-level object one field
    /// per line, a top-level field's array one element per line, anything
    /// deeper on one line (see the [`fmt::Display`] form); ends in a
    /// newline.
    pub fn to_pretty(&self) -> String {
        let JsonValue::Obj(fields) = self else {
            return format!("{self}\n");
        };
        let lines: Vec<String> = fields
            .iter()
            .map(|(k, v)| {
                let mut line = String::from("  ");
                write_escaped(&mut line, k);
                match v {
                    JsonValue::Arr(items) if !items.is_empty() => {
                        let items: Vec<String> = items.iter().map(|i| format!("    {i}")).collect();
                        line.push_str(&format!(": [\n{}\n  ]", items.join(",\n")));
                    }
                    v => line.push_str(&format!(": {v}")),
                }
                line
            })
            .collect();
        format!("{{\n{}\n}}\n", lines.join(",\n"))
    }

    /// Look up a field of an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a `u64`, if it is a number that parses as one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice, if it is one.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// The one-line form: `{"k": v, "k2": [1, 2]}`, numbers as their raw text.
impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => f.write_str("null"),
            JsonValue::Num(raw) => f.write_str(raw),
            JsonValue::Str(s) => {
                let mut out = String::new();
                write_escaped(&mut out, s);
                f.write_str(&out)
            }
            JsonValue::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{item}")?;
                }
                f.write_str("]")
            }
            JsonValue::Obj(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    let mut key = String::new();
                    write_escaped(&mut key, k);
                    let sep = if i == 0 { "" } else { ", " };
                    write!(f, "{sep}{key}: {v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

/// A JSON parse error: what went wrong and the byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description.
    pub message: &'static str,
    /// Byte offset into the input where parsing failed.
    pub at: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Append `s` to `out` as a quoted, escaped JSON string.
pub fn write_escaped(out: &mut String, s: &str) {
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

/// Parse one complete JSON value from `input` (trailing whitespace allowed,
/// anything else after the value is an error).
///
/// # Errors
/// [`JsonError`] naming the offending byte offset.
pub fn parse(input: &str) -> Result<JsonValue, JsonError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError {
            message: "trailing garbage after value",
            at: pos,
        });
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, JsonError> {
    skip_ws(bytes, pos);
    let Some(&b) = bytes.get(*pos) else {
        return Err(JsonError {
            message: "unexpected end of input",
            at: *pos,
        });
    };
    match b {
        b'n' => {
            if bytes[*pos..].starts_with(b"null") {
                *pos += 4;
                Ok(JsonValue::Null)
            } else {
                Err(JsonError {
                    message: "expected null",
                    at: *pos,
                })
            }
        }
        b'"' => parse_string(bytes, pos).map(JsonValue::Str),
        b'[' => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonValue::Arr(items));
                    }
                    _ => {
                        return Err(JsonError {
                            message: "expected ',' or ']' in array",
                            at: *pos,
                        })
                    }
                }
            }
        }
        b'{' => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonValue::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError {
                        message: "expected ':' after object key",
                        at: *pos,
                    });
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonValue::Obj(fields));
                    }
                    _ => {
                        return Err(JsonError {
                            message: "expected ',' or '}' in object",
                            at: *pos,
                        })
                    }
                }
            }
        }
        b'-' | b'0'..=b'9' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            let raw = std::str::from_utf8(&bytes[start..*pos]).expect("numeric ASCII");
            if raw.parse::<f64>().is_err() {
                return Err(JsonError {
                    message: "malformed number",
                    at: start,
                });
            }
            Ok(JsonValue::Num(raw.to_string()))
        }
        _ => Err(JsonError {
            message: "unexpected character",
            at: *pos,
        }),
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError {
            message: "expected '\"'",
            at: *pos,
        });
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&b) = bytes.get(*pos) else {
            return Err(JsonError {
                message: "unterminated string",
                at: *pos,
            });
        };
        match b {
            b'"' => {
                *pos += 1;
                return Ok(out);
            }
            b'\\' => {
                *pos += 1;
                let Some(&esc) = bytes.get(*pos) else {
                    return Err(JsonError {
                        message: "unterminated escape",
                        at: *pos,
                    });
                };
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .and_then(char::from_u32);
                        let Some(c) = hex else {
                            return Err(JsonError {
                                message: "bad \\u escape",
                                at: *pos,
                            });
                        };
                        out.push(c);
                        *pos += 4;
                    }
                    _ => {
                        return Err(JsonError {
                            message: "unknown escape",
                            at: *pos,
                        })
                    }
                }
                *pos += 1;
            }
            _ => {
                // Consume one UTF-8 scalar (the input is a &str, so the
                // boundaries are valid by construction).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|_| JsonError {
                    message: "invalid UTF-8",
                    at: *pos,
                })?;
                let c = s.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_str(s: &str) -> String {
        let mut enc = String::new();
        write_escaped(&mut enc, s);
        match parse(&enc).unwrap() {
            JsonValue::Str(out) => out,
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn escapes_round_trip() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "newline\ntab\tcr\r",
            "control \u{1} \u{1f} bytes",
            "unicode: κρίσις ☃",
        ] {
            assert_eq!(roundtrip_str(s), s);
        }
    }

    #[test]
    fn parses_mixed_object() {
        let v = parse(r#"{"a": 12, "b": "x", "c": null, "d": [1, 2.5, -3]}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("c"), Some(&JsonValue::Null));
        let d = v.get("d").unwrap().as_arr().unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d[1].as_f64(), Some(2.5));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse(r#"{"a":}"#).is_err());
        assert!(parse("[1, 2] tail").is_err());
        assert!(parse("nul").is_err());
        assert!(parse(r#""unterminated"#).is_err());
    }

    #[test]
    fn pretty_layout_round_trips() {
        let v = JsonValue::obj([
            ("experiment", JsonValue::Str("x0".into())),
            (
                "rows",
                JsonValue::Arr(vec![JsonValue::obj([("a", JsonValue::num("1.50"))]); 2]),
            ),
            (
                "flood",
                JsonValue::obj([("b", JsonValue::Null), ("c", JsonValue::Arr(vec![]))]),
            ),
        ]);
        let text = v.to_pretty();
        assert_eq!(
            text,
            "{\n  \"experiment\": \"x0\",\n  \"rows\": [\n    {\"a\": 1.50},\n    \
             {\"a\": 1.50}\n  ],\n  \"flood\": {\"b\": null, \"c\": []}\n}\n"
        );
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn u64_precision_preserved() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }
}
