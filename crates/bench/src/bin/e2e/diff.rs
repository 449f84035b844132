//! `e2e diff BASE.json NEW.json [--benchmark BENCHMARK.json]`: compares two
//! reports metric by metric, against the bounds `BENCHMARK.json` declares.
//!
//! Each (metric, workload) row reads `better` or `worse` when NEW moved by
//! more than the bound in that direction, `unchanged` when it moved less,
//! and `unresolved` when either report's pass-to-pass quartile spread for
//! that metric is wider than the bound, or was taken over fewer than three
//! values, so the run cannot tell. The exit code is 1 when any row is
//! `worse`.

use armada::proto::Json;

use crate::json::{at, number, parse};

/// One end-to-end metric's regression rule.
struct Rule {
    name: String,
    higher_is_better: bool,
    bound: f64,
}

/// Fewer values than this have no quartile spread worth trusting: a
/// single value always reads 0.
const MIN_SAMPLES: usize = 3;

/// A metric's value in one report, with its pass-to-pass spread and the
/// number of values that spread was taken over.
#[derive(Debug, Clone, Copy)]
struct Cell {
    value: f64,
    spread: f64,
    samples: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Change {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Change {
    fn label(self) -> &'static str {
        match self {
            Change::Better => "better",
            Change::Worse => "worse",
            Change::Unchanged => "unchanged",
            Change::Unresolved => "unresolved",
        }
    }
}

fn classify(base: Cell, new: Cell, rule: &Rule) -> Change {
    if base.samples.min(new.samples) < MIN_SAMPLES || base.spread.max(new.spread) > rule.bound {
        return Change::Unresolved;
    }
    let change = (new.value - base.value) / base.value;
    let gain = if rule.higher_is_better {
        change
    } else {
        -change
    };
    if gain < -rule.bound {
        Change::Worse
    } else if gain > rule.bound {
        Change::Better
    } else {
        Change::Unchanged
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn items<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no `{key}` list")),
    }
}

fn rules(bench: &Json) -> Result<Vec<Rule>, String> {
    items(bench, "end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(number);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Rule {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry {}", m.encode())),
            }
        })
        .collect()
}

fn cell(doc: &Json, workload: &str, metric: &str) -> Option<Cell> {
    let entry = at(doc, &["summary", workload, "metrics", metric])?;
    Some(Cell {
        value: entry.get("value").and_then(number)?,
        spread: entry.get("spread").and_then(number)?,
        samples: entry.get("samples").and_then(number)? as usize,
    })
}

/// The comparison table's rows, each with its verdict; `Err` when the
/// inputs are unusable.
fn compare(bench: &Json, base: &Json, new: &Json) -> Result<Vec<(String, Change)>, String> {
    let rules = rules(bench)?;
    let workloads: Vec<&str> = items(bench, "workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .filter(|w| at(base, &["summary", w]).is_some() && at(new, &["summary", w]).is_some())
        .collect();
    if workloads.is_empty() {
        return Err("the two reports share no workload".to_string());
    }
    let mut rows = Vec::new();
    for rule in &rules {
        for workload in &workloads {
            let (base_cell, new_cell) = match (
                cell(base, workload, &rule.name),
                cell(new, workload, &rule.name),
            ) {
                (Some(b), Some(n)) => (b, n),
                _ => return Err(format!("{workload}: `{}` missing from a report", rule.name)),
            };
            let text = format!(
                "{:<16} {:<14} {:>14.6} {:>14.6} {:>+8.2}% {:>6.3} {:>4}",
                rule.name,
                workload,
                base_cell.value,
                new_cell.value,
                100.0 * (new_cell.value - base_cell.value) / base_cell.value,
                base_cell.spread.max(new_cell.spread),
                base_cell.samples.min(new_cell.samples),
            );
            rows.push((text, classify(base_cell, new_cell, rule)));
        }
    }
    Ok(rows)
}

pub fn main(args: &[String]) -> i32 {
    let (mut paths, mut bench_path) = (Vec::new(), Some("BENCHMARK.json"));
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--benchmark" {
            bench_path = rest.next().map(String::as_str);
        } else {
            paths.push(arg.as_str());
        }
    }
    let (Some(bench_path), [base, new]) = (bench_path, paths.as_slice()) else {
        eprintln!("usage: e2e diff BASE.json NEW.json [--benchmark BENCHMARK.json]");
        return 2;
    };
    let rows = load(bench_path).and_then(|bench| compare(&bench, &load(base)?, &load(new)?));
    match rows {
        Ok(rows) => {
            println!(
                "{:<16} {:<14} {:>14} {:>14} {:>9} {:>6} {:>4} verdict",
                "metric", "workload", "base", "new", "change", "spread", "n"
            );
            for (text, change) in &rows {
                println!("{text} {}", change.label());
            }
            i32::from(rows.iter().any(|(_, change)| *change == Change::Worse))
        }
        Err(e) => {
            eprintln!("e2e diff: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(higher_is_better: bool) -> Rule {
        Rule {
            name: "m".to_string(),
            higher_is_better,
            bound: 0.1,
        }
    }

    fn at_value(value: f64, spread: f64) -> Cell {
        Cell {
            value,
            spread,
            samples: 8,
        }
    }

    #[test]
    fn rows_follow_direction_bound_and_spread() {
        let lower = rule(false);
        let higher = rule(true);
        assert_eq!(
            classify(at_value(100.0, 0.0), at_value(105.0, 0.0), &lower),
            Change::Unchanged
        );
        assert_eq!(
            classify(at_value(100.0, 0.0), at_value(120.0, 0.0), &lower),
            Change::Worse
        );
        assert_eq!(
            classify(at_value(100.0, 0.0), at_value(120.0, 0.0), &higher),
            Change::Better
        );
        assert_eq!(
            classify(at_value(100.0, 0.0), at_value(80.0, 0.0), &higher),
            Change::Worse
        );
        assert_eq!(
            classify(at_value(100.0, 0.2), at_value(150.0, 0.0), &lower),
            Change::Unresolved
        );
    }

    #[test]
    fn a_spread_over_too_few_values_leaves_the_row_unresolved() {
        // One value per run reads spread 0, which says nothing about how
        // far two runs of the same code can differ.
        let single = |value| Cell {
            value,
            spread: 0.0,
            samples: 1,
        };
        let lower = rule(false);
        assert_eq!(
            classify(single(245.0), single(300.0), &lower),
            Change::Unresolved
        );
        assert_eq!(
            classify(at_value(245.0, 0.0), single(300.0), &lower),
            Change::Unresolved
        );
        let three = Cell {
            samples: 3,
            ..single(300.0)
        };
        assert_eq!(classify(at_value(245.0, 0.0), three, &lower), Change::Worse);
    }

    #[test]
    fn compare_reads_bounds_and_both_reports() {
        let bench = parse(
            r#"{"workloads": [{"name": "warm", "why": "w"}, {"name": "gone", "why": "g"}],
                "end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("bench");
        let doc = |ops: f64| {
            parse(&format!(
                r#"{{"summary": {{"warm": {{"metrics": {{"ops_per_s": {{"value": {ops}, "spread": 0.01, "samples": 9}}}}}}}}}}"#
            ))
            .expect("doc")
        };
        let rows = compare(&bench, &doc(100.0), &doc(70.5)).expect("rows");
        assert_eq!(rows.len(), 1, "workloads absent from a report are skipped");
        assert!(rows[0].0.starts_with("ops_per_s"));
        assert_eq!(rows[0].1, Change::Worse);
        let same = compare(&bench, &doc(100.0), &doc(101.0)).expect("rows");
        assert_eq!(same[0].1, Change::Unchanged);
    }
}
