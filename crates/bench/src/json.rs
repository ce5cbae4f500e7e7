//! JSON recording for bench results (`BENCH_share.json`).
//!
//! The JSON value type, renderer and parser live in `share_telemetry::json`
//! (the telemetry exporters need them below this crate in the dependency
//! graph); this module re-exports them and keeps the bench-specific parts:
//! the device-stats scenario record and the merge-by-scenario-name writer.
//! `BENCH_share.json` at the repo root is a single object mapping scenario
//! names to scenario objects; each bench binary records its scenarios
//! without clobbering the others'.

use std::path::PathBuf;

pub use share_core::telemetry::json::{count, num, parse, render_string, s, Json};

/// A device-stats delta for scenario records: every counter under its
/// field name, plus `waf`.
pub fn device_json(d: &share_core::DeviceStats) -> Json {
    Json::Obj(share_core::telemetry::rows_json(&d.metrics()))
}

/// Where `BENCH_share.json` lives: the workspace root, overridable with
/// `SHARE_BENCH_JSON` (used by tests and the verify smoke tier).
pub fn bench_json_path() -> PathBuf {
    if let Ok(p) = std::env::var("SHARE_BENCH_JSON") {
        return PathBuf::from(p);
    }
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/bench -> crates
    p.pop(); // crates -> workspace root
    p.push("BENCH_share.json");
    p
}

/// Insert or replace one scenario in `BENCH_share.json`, preserving every
/// other scenario already recorded. Returns the path written. An unreadable
/// or unparsable existing file is treated as empty rather than an error, so
/// a corrupt file self-heals on the next bench run.
pub fn record_scenario(name: &str, value: Json) -> std::io::Result<PathBuf> {
    let path = bench_json_path();
    let mut entries: Vec<(String, Json)> = match std::fs::read_to_string(&path) {
        Ok(text) => match parse(&text) {
            Ok(Json::Obj(fields)) => fields,
            _ => Vec::new(),
        },
        Err(_) => Vec::new(),
    };
    match entries.iter_mut().find(|(k, _)| k == name) {
        Some(slot) => slot.1 = value,
        None => entries.push((name.to_string(), value)),
    }
    let mut out = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let mut line = String::from("  ");
        render_string(k, &mut line);
        line.push_str(": ");
        v.render_into(&mut line);
        out.push_str(&line);
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_and_parse_round_trip() {
        let v = Json::obj(vec![
            ("name", s("fig5 \"quoted\"\n")),
            ("tps", num(1234.5)),
            ("count", count(42)),
            ("flag", Json::Bool(true)),
            ("missing", Json::Null),
            ("runs", Json::Arr(vec![num(1.0), num(2.5)])),
        ]);
        let text = v.render();
        let back = parse(&text).expect("parse");
        assert_eq!(back, v);
    }

    #[test]
    fn string_escapes_round_trip() {
        // Every escape class the renderer can emit: quote, backslash, the
        // named control escapes, other C0 controls (\u-escaped), and
        // multi-byte UTF-8 (passed through raw).
        let tricky = "quote:\" back:\\ nl:\n cr:\r tab:\t bell:\u{7} nul:\u{0} smile:😀 é";
        let text = Json::Str(tricky.into()).render();
        assert_eq!(parse(&text).unwrap(), Json::Str(tricky.into()));
        // Escapes the renderer never emits still parse: \/ \b \f and \u.
        assert_eq!(parse(r#""a\/b\bc\fdA""#).unwrap(), Json::Str("a/b\u{8}c\u{c}dA".into()));
        // A lone surrogate escape degrades to U+FFFD rather than erroring.
        assert_eq!(parse(r#""\ud800""#).unwrap(), Json::Str("\u{fffd}".into()));
    }

    #[test]
    fn nested_arrays_and_objects_round_trip() {
        let v = Json::Arr(vec![
            Json::obj(vec![
                ("deep", Json::Arr(vec![Json::Arr(vec![num(1.0)]), Json::Obj(Vec::new())])),
                ("empty_arr", Json::Arr(Vec::new())),
            ]),
            Json::Arr(vec![Json::Null, Json::Bool(false)]),
        ]);
        let text = v.render();
        assert_eq!(parse(&text).unwrap(), v);
        // Whitespace-insensitive on the way back in.
        let spaced = " [ { \"deep\" : [ [ 1 ] , { } ] , \"empty_arr\" : [ ] } , [ null , false ] ] ";
        assert_eq!(parse(spaced).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn parse_rejects_malformed_structures() {
        // Unquoted keys, missing colon/comma, bad literals and numbers,
        // truncated escapes — each must fail rather than mis-parse.
        for bad in [
            "",
            "{a: 1}",
            "{\"a\" 1}",
            "{\"a\": 1 \"b\": 2}",
            "[1 2]",
            "tru",
            "nul",
            "01x",
            "1.2.3",
            "--5",
            "\"bad \\q escape\"",
            "\"trunc \\u00",
            "[}",
            "{]",
        ] {
            assert!(parse(bad).is_err(), "accepted malformed input {bad:?}");
        }
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
    }

    #[test]
    fn record_scenario_merges_by_name() {
        let dir = std::env::temp_dir().join(format!("share_json_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("bench.json");
        std::env::set_var("SHARE_BENCH_JSON", &file);

        record_scenario("alpha", Json::obj(vec![("tps", num(1.0))])).unwrap();
        record_scenario("beta", Json::obj(vec![("tps", num(2.0))])).unwrap();
        record_scenario("alpha", Json::obj(vec![("tps", num(3.0))])).unwrap();

        let doc = parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
        assert_eq!(doc.get("alpha").unwrap().get("tps"), Some(&Json::Num(3.0)));
        assert_eq!(doc.get("beta").unwrap().get("tps"), Some(&Json::Num(2.0)));
        if let Json::Obj(fields) = &doc {
            assert_eq!(fields.len(), 2);
        } else {
            panic!("top level must be an object");
        }

        std::env::remove_var("SHARE_BENCH_JSON");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
