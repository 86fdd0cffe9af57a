//! `BENCHMARK.json` at the repository root must describe exactly what
//! the command prints: the same workloads, and the same metric names
//! and units in the same order, within the contract's limits.

use pgr_hostbench::spec::{self, END_TO_END, MAX_END_TO_END, MAX_PER_LAYER};
use pgr_obs::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn entries<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks the list {key:?}"))
}

fn field<'a>(e: &'a Json, key: &str) -> &'a str {
    e.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry {e:?} lacks the string {key:?}"))
}

fn keys(e: &Json) -> Vec<&str> {
    e.as_obj()
        .expect("entries are objects")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn top_level_keys_are_exactly_the_contract() {
    let doc = benchmark_json();
    let mut k = keys(&doc);
    k.sort_unstable();
    assert_eq!(
        k,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let paths: Vec<&str> = entries(&doc, "paths")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(paths, ["hostbench"]);
    let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(secs.fract() == 0.0 && (1.0..=60.0).contains(&secs));
    let command: Vec<&str> = entries(&doc, "command")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(command.contains(&"hostbench/Cargo.toml"), "{command:?}");
}

#[test]
fn workloads_match_the_command() {
    let doc = benchmark_json();
    let listed: Vec<&str> = entries(&doc, "workloads")
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            assert!(field(w, "why").len() <= 200);
            field(w, "name")
        })
        .collect();
    assert_eq!(listed, spec::WORKLOADS);
    for w in spec::UNGATED_WORKLOADS {
        assert!(!listed.contains(&w), "{w} is not gated");
    }
}

#[test]
fn end_to_end_metrics_match_the_command() {
    let doc = benchmark_json();
    let listed = entries(&doc, "end_to_end");
    assert!(listed.len() <= MAX_END_TO_END);
    let pairs: Vec<(&str, &str)> = listed
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
            let better = field(m, "better");
            assert!(better == "lower" || better == "higher", "{better}");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
            (field(m, "name"), field(m, "unit"))
        })
        .collect();
    assert_eq!(pairs, END_TO_END);
    let setup = listed
        .iter()
        .find(|m| field(m, "name") == "setup_s")
        .unwrap();
    assert_eq!(field(setup, "better"), "lower");
    // Set-up time carries the largest bound.
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).unwrap();
    assert!(listed.iter().all(|m| bound(m) <= bound(setup)));
}

#[test]
fn per_layer_metrics_match_the_command() {
    let doc = benchmark_json();
    let listed = entries(&doc, "per_layer");
    assert!(listed.len() <= MAX_PER_LAYER);
    let pairs: Vec<(String, String)> = listed
        .iter()
        .map(|m| {
            assert_eq!(keys(m), ["name", "unit", "better"]);
            (field(m, "name").to_string(), field(m, "unit").to_string())
        })
        .collect();
    let expected: Vec<(String, String)> = spec::per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(pairs, expected);
}

#[test]
fn units_follow_the_rule() {
    let ok = |u: &str| {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    };
    for (n, u) in END_TO_END {
        assert!(ok(u), "{n}: {u}");
    }
    for (n, u) in spec::per_layer() {
        assert!(ok(u), "{n}: {u}");
    }
}
