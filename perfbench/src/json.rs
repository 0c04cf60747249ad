//! Minimal JSON output. The workspace's `serde` is an offline no-op stand-in,
//! so records are rendered by hand.

use std::fmt::Write;

/// A JSON value.
pub enum Value {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Null,
    Arr(Vec<Value>),
    Obj(Obj),
}

/// An ordered JSON object.
#[derive(Default)]
pub struct Obj(Vec<(String, Value)>);

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    pub fn num(mut self, key: &str, v: f64) -> Obj {
        self.0.push((key.to_string(), Value::Num(v)));
        self
    }

    pub fn int(mut self, key: &str, v: u64) -> Obj {
        self.0.push((key.to_string(), Value::Int(v)));
        self
    }

    pub fn bool(mut self, key: &str, v: bool) -> Obj {
        self.0.push((key.to_string(), Value::Bool(v)));
        self
    }

    pub fn str(mut self, key: &str, v: &str) -> Obj {
        self.0.push((key.to_string(), Value::Str(v.to_string())));
        self
    }

    pub fn val(mut self, key: &str, v: Value) -> Obj {
        self.0.push((key.to_string(), v));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        write_obj(&mut out, self);
        out
    }
}

fn write_obj(out: &mut String, obj: &Obj) {
    out.push('{');
    for (i, (k, v)) in obj.0.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_str(out, k);
        out.push_str(": ");
        write_value(out, v);
    }
    out.push('}');
}

fn write_value(out: &mut String, v: &Value) {
    match v {
        // `{}` on f64 prints the shortest string that parses back to the
        // same value, so no digits are lost.
        Value::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Value::Num(_) | Value::Null => out.push_str("null"),
        Value::Int(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Str(s) => write_str(out, s),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Obj(o) => write_obj(out, o),
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_values() {
        let o = Obj::new()
            .num("a", 0.5)
            .int("n", 3)
            .bool("ok", true)
            .str("s", "x\"y")
            .num("nan", f64::NAN)
            .val("arr", Value::Arr(vec![Value::Int(1), Value::Null]));
        assert_eq!(
            o.render(),
            r#"{"a": 0.5, "n": 3, "ok": true, "s": "x\"y", "nan": null, "arr": [1, null]}"#
        );
    }
}
