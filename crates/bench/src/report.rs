//! Benchmark report emission with a stable, tool-friendly schema.
//!
//! Every bench writes one document shaped as
//!
//! ```json
//! {"name": "...", "config": {...}, "samples": [...], "summary": {...}}
//! ```
//!
//! to one place, the top-level `BENCH_<name>.json`. A quick or smoke run
//! (its `config` sets `quick` or `smoke` to true) only prints its
//! document, so a CI smoke pass never overwrites a committed full run.
//!
//! `config` records every knob that shapes the numbers — job count, trial
//! count, and the reduction/symmetry engine flags — so two artifacts are
//! comparable only when their `config` blocks match.

use crate::json::Json;

/// Builds the stable four-field report document.
///
/// The host's `available_parallelism` is recorded into every `config`
/// block automatically (unless the bench already set it): scaling numbers
/// are only interpretable against the core count they ran on.
pub fn report(name: &str, config: Json, samples: Vec<Json>, summary: Json) -> Json {
    let config = match config {
        Json::Obj(mut pairs) => {
            if !pairs.iter().any(|(k, _)| k == "available_parallelism") {
                let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
                pairs.push(("available_parallelism".to_string(), Json::int(cores)));
            }
            Json::Obj(pairs)
        }
        other => other,
    };
    Json::obj(vec![
        ("name", Json::str(name)),
        ("config", config),
        ("samples", Json::Arr(samples)),
        ("summary", summary),
    ])
}

/// Writes `doc` to `BENCH_<name>.json`, or only prints it when its
/// `config` marks a quick or smoke run.
///
/// # Panics
///
/// Panics if the write fails — a bench that cannot record its results
/// has failed.
pub fn write(name: &str, doc: &Json) {
    let rendered = format!("{doc}\n");
    if is_quick_or_smoke(doc) {
        print!("{rendered}");
        println!("quick/smoke run: BENCH_{name}.json left as it is");
        return;
    }
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, &rendered).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
}

/// True when the document's `config` sets `quick` or `smoke` to true.
fn is_quick_or_smoke(doc: &Json) -> bool {
    let config = doc.get("config");
    ["quick", "smoke"]
        .iter()
        .any(|flag| config.and_then(|c| c.get(flag)) == Some(&Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_the_stable_four_field_shape() {
        let doc = report(
            "demo",
            Json::obj(vec![("jobs", Json::int(2))]),
            vec![Json::obj(vec![("subject", Json::str("s"))])],
            Json::obj(vec![("ok", Json::Bool(true))]),
        );
        let rendered = doc.to_string();
        assert!(rendered.starts_with("{\"name\":\"demo\",\"config\":"));
        assert!(rendered.contains("\"samples\":[{"));
        assert!(rendered.contains("\"summary\":{"));
        // Injected into every config block so scaling numbers carry the
        // core count they were measured on.
        assert!(rendered.contains("\"available_parallelism\":"));
    }

    #[test]
    fn quick_and_smoke_runs_are_not_written() {
        let doc = |flag: &'static str, on| {
            report(
                "demo",
                Json::obj(vec![(flag, Json::Bool(on))]),
                vec![],
                Json::Null,
            )
        };
        assert!(is_quick_or_smoke(&doc("quick", true)));
        assert!(is_quick_or_smoke(&doc("smoke", true)));
        assert!(!is_quick_or_smoke(&doc("quick", false)));
        assert!(!is_quick_or_smoke(&doc("trials", true)));
    }
}
