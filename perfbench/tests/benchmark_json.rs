//! `BENCHMARK.json` at the repository root must list exactly the
//! workloads and metrics this benchmark prints, with the same units.

use recluster_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root")
}

/// The `"key": "value"` string after each `"name"` in `section`.
fn field_after_names<'a>(section: &'a str, key: &str) -> Vec<(&'a str, &'a str)> {
    let quoted = |s: &'a str| -> &'a str { s.split('"').nth(1).expect("quoted value") };
    section
        .split("{\"name\": ")
        .skip(1)
        .map(|entry| {
            let name = quoted(entry);
            let rest = entry
                .split(&format!("\"{key}\": "))
                .nth(1)
                .expect("each entry has the key");
            (name, quoted(rest))
        })
        .collect()
}

fn section<'a>(json: &'a str, key: &str) -> &'a str {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    &body[..body.find(']').expect("the list ends")]
}

#[test]
fn benchmark_json_lists_every_metric_with_its_unit() {
    let json = benchmark_json();
    assert_eq!(
        field_after_names(section(&json, "end_to_end"), "unit"),
        END_TO_END.to_vec()
    );
    assert_eq!(
        field_after_names(section(&json, "per_layer"), "unit"),
        PER_LAYER.to_vec()
    );
    let workloads: Vec<&str> = field_after_names(section(&json, "workloads"), "why")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert_eq!(workloads, WORKLOADS.to_vec());
}

#[test]
fn metric_names_and_units_fit_the_schema() {
    let ok = |s: &str, max: usize, extra: &str| {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
    };
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(ok(name, 64, ""), "bad metric name {name}");
        assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
        assert!(ok(unit, 16, "/%"), "bad unit {unit} of {name}");
    }
}
