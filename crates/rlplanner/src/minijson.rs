//! The workspace's JSON layer, [`rlp_obs::json`], under the name this
//! crate has always exported it by. The parser's tests live here, next to
//! the name its callers use.

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
    fn malformed_documents_report_an_offset() {
        for bad in [
            "{",
            "{\"a\" 1}",
            "[1,]",
            "tru",
            "\"unterminated",
            "{} extra",
        ] {
            let err = Value::parse(bad).unwrap_err();
            assert!(!err.message.is_empty(), "{bad}");
            assert!(err.to_string().contains("at byte"), "{bad}");
        }
    }

    #[test]
    fn render_round_trips_and_is_canonical() {
        let pretty = "{\n  \"a\": [1, 2.5, null],\n  \"s\": \"x\\ny\",\n  \"ok\": true\n}";
        let compact = "{\"a\":[1,2.5,null],\"s\":\"x\\ny\",\"ok\":true}";
        let value = Value::parse(pretty).unwrap();
        assert_eq!(value.render(), compact);
        // Canonical: parsing the render reproduces the same value and the
        // same bytes.
        let reparsed = Value::parse(&value.render()).unwrap();
        assert_eq!(reparsed, value);
        assert_eq!(reparsed.render(), compact);
    }

    #[test]
    fn nesting_depth_is_bounded() {
        // A 10k-deep array must come back as a parse error, not recurse the
        // parser into a stack overflow — this is socket-facing code.
        let hostile = "[".repeat(10_000);
        let err = Value::parse(&hostile).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );
        let hostile_objects = "{\"k\":".repeat(10_000);
        let err = Value::parse(&hostile_objects).unwrap_err();
        assert!(
            err.message.contains("nests deeper"),
            "unexpected error: {err}"
        );

        // The limit counts *nesting*, not total containers: a long but flat
        // document parses fine...
        let flat = format!("[{}]", vec!["[]"; 1000].join(","));
        assert!(Value::parse(&flat).is_ok());
        // ...as does a document exactly at the bound.
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Value::parse(&at_limit).is_ok());
        let over_limit = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(Value::parse(&over_limit).is_err());
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
