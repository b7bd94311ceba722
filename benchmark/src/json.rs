//! Just enough JSON reading for `compare`: BENCHMARK.json and the result
//! lines the other bins print. std has none and the build is offline.

use std::collections::BTreeMap;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let v = p.value()?;
        p.skip_space();
        match p.at == p.bytes.len() {
            true => Ok(v),
            false => Err(format!("trailing input at byte {}", p.at)),
        }
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => &[],
        }
    }

    pub fn entries(&self) -> impl Iterator<Item = (&String, &Json)> {
        match self {
            Json::Obj(m) => Some(m.iter()),
            _ => None,
        }
        .into_iter()
        .flatten()
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_space(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.bytes[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn expect(&mut self, lit: &str) -> Result<(), String> {
        self.skip_space();
        match self.eat(lit) {
            true => Ok(()),
            false => Err(format!("expected `{lit}` at byte {}", self.at)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_space();
        if self.eat("null") {
            Ok(Json::Null)
        } else if self.eat("true") {
            Ok(Json::Bool(true))
        } else if self.eat("false") {
            Ok(Json::Bool(false))
        } else if self.eat("[") {
            let mut items = Vec::new();
            self.skip_space();
            if !self.eat("]") {
                loop {
                    items.push(self.value()?);
                    self.skip_space();
                    if self.eat("]") {
                        break;
                    }
                    self.expect(",")?;
                }
            }
            Ok(Json::Arr(items))
        } else if self.eat("{") {
            let mut map = BTreeMap::new();
            self.skip_space();
            if !self.eat("}") {
                loop {
                    self.expect("\"")?;
                    let key = self.string_body()?;
                    self.expect(":")?;
                    map.insert(key, self.value()?);
                    self.skip_space();
                    if self.eat("}") {
                        break;
                    }
                    self.expect(",")?;
                }
            }
            Ok(Json::Obj(map))
        } else if self.eat("\"") {
            self.string_body().map(Json::Str)
        } else {
            let start = self.at;
            while self
                .bytes
                .get(self.at)
                .is_some_and(|b| b.is_ascii_digit() || b"+-.eE".contains(b))
            {
                self.at += 1;
            }
            std::str::from_utf8(&self.bytes[start..self.at])
                .ok()
                .and_then(|s| s.parse().ok())
                .map(Json::Num)
                .ok_or_else(|| format!("unexpected input at byte {start}"))
        }
    }

    /// After the opening quote. The escapes our own files can contain.
    fn string_body(&mut self) -> Result<String, String> {
        let mut out = Vec::new();
        loop {
            let b = *self.bytes.get(self.at).ok_or("unterminated string")?;
            self.at += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let e = *self.bytes.get(self.at).ok_or("unterminated escape")?;
                    self.at += 1;
                    out.push(match e {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => e,
                        _ => return Err(format!("unsupported escape at byte {}", self.at)),
                    });
                }
                _ => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_result_line() {
        let v = Json::parse(
            r#"{"correct": true, "attempted": 9, "metrics": {"a_ms": {"value": 1.5e1, "unit": "ms"}}, "l": [1, -2]}"#,
        )
        .unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        let m = v.get("metrics").unwrap().get("a_ms").unwrap();
        assert_eq!(m.get("value").unwrap().num(), Some(15.0));
        assert_eq!(m.get("unit").unwrap().str(), Some("ms"));
        assert_eq!(v.get("l").unwrap().items().len(), 2);
        assert!(Json::parse("{\"a\": 1} x").is_err());
    }
}
