//! `BENCHMARK.json` and the metric catalogue in `layers.rs` name the same
//! metrics with the same units, in the same order.

use hyppo_perfbench::layers::{END_TO_END, PER_LAYER};

/// `(name, unit)` of every metric object in one of the file's lists.
fn listed(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key} list"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list ends")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|item| {
            let name = item[..item.find('"').expect("name ends")].to_string();
            let unit = item.split("\"unit\": \"").nth(1).expect("unit");
            (name, unit[..unit.find('"').expect("unit ends")].to_string())
        })
        .collect()
}

fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
}

#[test]
fn benchmark_json_matches_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    assert_eq!(listed(&json, "end_to_end"), owned(&END_TO_END));
    assert_eq!(listed(&json, "per_layer"), owned(&PER_LAYER));
}
