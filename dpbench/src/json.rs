//! A minimal JSON value and writer (the build is offline and std-only).

use std::fmt;

/// A JSON value; objects keep insertion order so reports read the same
/// from run to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit `f64` needs to round-trip; non-finite
    /// values are written as `null`.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

/// Compact, single-line encoding.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Int(v) => write!(f, "{v}"),
            Json::Num(v) if v.is_finite() => write!(f, "{v}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write_str(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Obj(fields) => {
                f.write_str("{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write_str(f, key)?;
                    write!(f, ": {value}")?;
                }
                f.write_str("}")
            }
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;

    /// Just enough of a reader to prove what the writer emits is JSON that
    /// means what was written, and to read `BENCHMARK.json` in other tests.
    struct Reader<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Reader<'_> {
        fn ws(&mut self) {
            while self.at < self.s.len() && self.s[self.at].is_ascii_whitespace() {
                self.at += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            let hit = self.s[self.at..].starts_with(lit.as_bytes());
            if hit {
                self.at += lit.len();
            }
            hit
        }

        fn string(&mut self) -> String {
            assert!(self.eat("\""));
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.at..]).unwrap();
                let c = rest.chars().next().expect("unterminated string");
                self.at += c.len_utf8();
                match c {
                    '"' => return out,
                    '\\' => {
                        let e = self.s[self.at] as char;
                        self.at += 1;
                        out.push(match e {
                            'n' => '\n',
                            'r' => '\r',
                            't' => '\t',
                            'u' => {
                                let hex = std::str::from_utf8(&self.s[self.at..self.at + 4]);
                                self.at += 4;
                                char::from_u32(u32::from_str_radix(hex.unwrap(), 16).unwrap())
                                    .unwrap()
                            }
                            other => other,
                        });
                    }
                    c => out.push(c),
                }
            }
        }

        fn list<T>(&mut self, close: &str, mut item: impl FnMut(&mut Self) -> T) -> Vec<T> {
            let mut out = Vec::new();
            self.ws();
            if self.eat(close) {
                return out;
            }
            loop {
                self.ws();
                out.push(item(self));
                self.ws();
                if self.eat(close) {
                    return out;
                }
                assert!(self.eat(","), "expected , or {close}");
            }
        }

        fn value(&mut self) -> Json {
            self.ws();
            if self.eat("null") {
                Json::Null
            } else if self.eat("true") {
                Json::Bool(true)
            } else if self.eat("false") {
                Json::Bool(false)
            } else if self.s[self.at] == b'"' {
                Json::Str(self.string())
            } else if self.eat("[") {
                Json::Arr(self.list("]", Self::value))
            } else if self.eat("{") {
                Json::Obj(self.list("}", |r| {
                    let key = r.string();
                    r.ws();
                    assert!(r.eat(":"));
                    (key, r.value())
                }))
            } else {
                let start = self.at;
                while self.at < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.at]) {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.at]).unwrap();
                match text.parse::<u64>() {
                    Ok(v) => Json::Int(v),
                    Err(_) => Json::Num(text.parse().expect("number")),
                }
            }
        }
    }

    pub fn parse(text: &str) -> Json {
        let mut reader = Reader { s: text.as_bytes(), at: 0 };
        let value = reader.value();
        reader.ws();
        assert_eq!(reader.at, text.len(), "trailing text");
        value
    }

    #[test]
    fn writer_round_trips() {
        let doc = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(u64::MAX)),
            ("name", Json::str("tab\t \"quoted\" back\\slash \u{1} µs\n")),
            ("empty", Json::Arr(vec![])),
            ("none", Json::Null),
            (
                "metrics",
                Json::obj([
                    ("p50_us", Json::obj([("value", Json::Num(230.123456789012))])),
                    ("tiny", Json::Num(1.5e-9)),
                    ("huge", Json::Num(6.02e23)),
                    ("negative", Json::Num(-0.25)),
                ]),
            ),
            ("list", Json::Arr(vec![Json::Int(1), Json::Num(2.5), Json::obj([("k", Json::Null)])])),
        ]);
        let text = doc.to_string();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text), doc);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).to_string(),
            "[null, null]"
        );
    }
}
