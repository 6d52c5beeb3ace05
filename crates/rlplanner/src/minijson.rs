//! The workspace's JSON layer, [`rlp_obs::json`], under the name this
//! crate has always exported it by. The parser's malformed-input,
//! rendering and nesting-depth tests live with it, in `rlp_obs`; the
//! value-level cases below read it through this name.

pub use rlp_obs::json::*;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = r#"{ "schema": "rlplanner.bench/v1", "ok": true, "none": null,
                      "benchmarks": [ { "id": "a/b", "median_ns": 12.5 },
                                      { "id": "c", "median_ns": 3e2 } ] }"#;
        let value = Value::parse(doc).unwrap();
        assert_eq!(
            value.get("schema").and_then(Value::as_str),
            Some("rlplanner.bench/v1")
        );
        assert_eq!(value.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(value.get("none"), Some(&Value::Null));
        let benches = value.get("benchmarks").and_then(Value::as_array).unwrap();
        assert_eq!(benches.len(), 2);
        assert_eq!(benches[0].get("id").and_then(Value::as_str), Some("a/b"));
        assert_eq!(
            benches[1].get("median_ns").and_then(Value::as_f64),
            Some(300.0)
        );
    }

    #[test]
    fn parses_escapes_and_negative_numbers() {
        let value = Value::parse(r#"{ "s": "a\"b\\c\ndA", "n": -1.25 }"#).unwrap();
        assert_eq!(value.get("s").and_then(Value::as_str), Some("a\"b\\c\ndA"));
        assert_eq!(value.get("n").and_then(Value::as_f64), Some(-1.25));
    }

    #[test]
    fn multibyte_strings_and_control_characters() {
        let value = Value::parse("{ \"s\": \"héllo ✓ 日本\\n\" }").unwrap();
        assert_eq!(
            value.get("s").and_then(Value::as_str),
            Some("héllo ✓ 日本\n")
        );
        let err = Value::parse("[\"ab\u{1}c\"]").unwrap_err();
        assert_eq!(err.offset, 4);
        assert!(err.message.contains("control character"), "{err}");
    }

    #[test]
    fn empty_containers_parse() {
        assert_eq!(Value::parse("{}").unwrap(), Value::Obj(vec![]));
        assert_eq!(Value::parse("[ ]").unwrap(), Value::Arr(vec![]));
    }

    #[test]
    fn accessors_are_type_checked() {
        let value = Value::parse("[1]").unwrap();
        assert!(value.get("x").is_none());
        assert!(value.as_f64().is_none());
        assert!(value.as_str().is_none());
        assert_eq!(value.as_array().map(<[Value]>::len), Some(1));
    }
}
