//! # armada-bench
//!
//! The benchmark harness regenerating every table and figure of the paper's
//! evaluation (§5–§6). Each artifact has a binary printing the same rows or
//! series the paper reports:
//!
//! | artifact | binary | paper |
//! |---|---|---|
//! | Table 1 (case studies, verification status) | `table1` | §6, Table 1 |
//! | Effort tables (program/recipe/generated SLOC) | `effort_table` | §6.1–6.4 |
//! | Queue throughput | `figure12` | Figure 12 |
//! | Implementation inventory | `impl_inventory` | §5 |
//!
//! The `queue_throughput` and `pipeline` bench targets track the same
//! quantities under the in-repo [`harness`] protocol (warmup + repeated
//! timed trials with mean/95%-CI); results land in `BENCH_*.json` via
//! [`report`], written with the workspace's one JSON codec
//! (`armada_runtime::json`). No crates.io dependencies are involved
//! (hermetic-build policy, see DESIGN.md).
//!
//! Absolute numbers differ from the paper's (their testbed was an 8-core
//! Xeon with GCC 6.3 and CompCertTSO 1.13; ours is whatever container this
//! runs in, and the "CompCertTSO" column is the conservative-emission
//! analogue described in DESIGN.md). The *shape* — which variant wins and
//! by roughly what factor — is the reproduction target.

pub mod harness;
pub mod report;

/// The benchmark report value type, [`armada_runtime::json::Report`].
pub mod json {
    pub use armada_runtime::json::Report as Json;
}

use armada_runtime::generated::Implementation as GeneratedHwTso;
use armada_runtime::generated_conservative::Implementation as GeneratedConservative;
use armada_runtime::measure::{queue_throughput_ops_per_sec, Stats};
use armada_runtime::spsc::{spsc_queue, Bitmask, HwTso, Modulo};
use std::sync::Arc;

/// Queue size used throughout Figure 12 (the paper uses 512).
pub const QUEUE_SIZE: usize = 512;

/// One Figure-12 series.
#[derive(Debug, Clone)]
pub struct Figure12Row {
    /// Variant name (paper's x-axis label).
    pub name: &'static str,
    /// Throughput statistics (ops/sec).
    pub stats: Stats,
}

/// Runs one throughput trial of the named Figure-12 variant.
///
/// # Panics
///
/// Panics on an unknown variant name.
pub fn figure12_trial(variant: &str, ops: u64) -> f64 {
    match variant {
        "liblfds (hw-tso)" => {
            let (producer, consumer) = spsc_queue::<Bitmask, HwTso>(QUEUE_SIZE);
            queue_throughput_ops_per_sec(
                ops,
                move || Box::new(move |v| producer.try_enqueue(v)),
                move || Box::new(move || consumer.try_dequeue()),
            )
        }
        "liblfds-modulo (hw-tso)" => {
            let (producer, consumer) = spsc_queue::<Modulo, HwTso>(QUEUE_SIZE);
            queue_throughput_ops_per_sec(
                ops,
                move || Box::new(move |v| producer.try_enqueue(v)),
                move || Box::new(move || consumer.try_dequeue()),
            )
        }
        "Armada (hw-tso)" => {
            let queue = Arc::new(GeneratedHwTso::new());
            let (enq, deq) = (Arc::clone(&queue), queue);
            queue_throughput_ops_per_sec(
                ops,
                move || Box::new(move |v| enq.enqueue(v)),
                move || {
                    Box::new(move || {
                        let value = deq.dequeue();
                        (value != u64::MAX).then_some(value)
                    })
                },
            )
        }
        "Armada (conservative)" => {
            let queue = Arc::new(GeneratedConservative::new());
            let (enq, deq) = (Arc::clone(&queue), queue);
            queue_throughput_ops_per_sec(
                ops,
                move || Box::new(move |v| enq.enqueue(v)),
                move || {
                    Box::new(move || {
                        let value = deq.dequeue();
                        (value != u64::MAX).then_some(value)
                    })
                },
            )
        }
        other => panic!("unknown Figure 12 variant `{other}`"),
    }
}

/// The four Figure-12 variants, in the paper's order.
pub const FIGURE12_VARIANTS: [&str; 4] = [
    "liblfds (hw-tso)",
    "liblfds-modulo (hw-tso)",
    "Armada (hw-tso)",
    "Armada (conservative)",
];

/// Runs the full Figure-12 sweep: `trials` trials of `ops` operations per
/// variant.
pub fn figure12(ops: u64, trials: usize) -> Vec<Figure12Row> {
    FIGURE12_VARIANTS
        .iter()
        .map(|&name| {
            let samples: Vec<f64> = (0..trials).map(|_| figure12_trial(name, ops)).collect();
            Figure12Row {
                name,
                stats: Stats::of(&samples),
            }
        })
        .collect()
}

/// Renders Figure-12 rows as the paper's normalized table.
pub fn render_figure12(rows: &[Figure12Row]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<28} {:>14} {:>12} {:>10}\n",
        "variant", "ops/sec", "95% CI", "vs liblfds"
    ));
    let baseline = rows.first().map(|r| r.stats.mean).unwrap_or(1.0);
    for row in rows {
        out.push_str(&format!(
            "{:<28} {:>14.3e} {:>12.1e} {:>9.0}%\n",
            row.name,
            row.stats.mean,
            row.stats.ci95,
            100.0 * row.stats.mean / baseline
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_variants_run_a_small_trial() {
        for variant in FIGURE12_VARIANTS {
            let throughput = figure12_trial(variant, 5_000);
            assert!(throughput > 0.0, "{variant}");
        }
    }

    #[test]
    fn figure12_renders_normalized_table() {
        let rows = figure12(2_000, 2);
        let table = render_figure12(&rows);
        assert!(table.contains("liblfds (hw-tso)"));
        assert!(table.contains("vs liblfds"));
        assert_eq!(rows.len(), 4);
    }
}
