//! Telemetry-overhead gate: asserts that `--telemetry` costs less than 2%
//! of exploration throughput. Run by `scripts/verify.sh --full`.
//!
//! Telemetry samples one slot in 32 (see `TELEMETRY_SAMPLE` in the
//! explore engine), so its true cost sits under the noise floor of a
//! loaded single-core CI box, where two hazards dominate naive timing:
//! position bias (whichever variant runs second in a pair can appear
//! several percent slower) and load drift (the whole box can slow down
//! mid-gate by tens of percent, poisoning any cross-trial comparison).
//! The gate therefore times the two variants back-to-back within each
//! trial — drift hits both halves of a pair equally, so their *ratio*
//! stays meaningful — alternates which variant goes first so position
//! bias cancels, and takes the median ratio across trials, which a real
//! regression shifts wholesale but symmetric noise cannot move.
//!
//! Exits nonzero (via assert) when instrumented throughput falls more than
//! 2% short of plain throughput.

use armada::sm::{explore, explore_with_telemetry, lower, Bounds};
use std::time::Instant;

/// Two racing writer threads of nondeterministic TSO writes — the same
/// wide-frontier subject as `armada-sm`'s wide-wave identity tests.
const WIDE: &str = r#"level L {
    var a: uint32;
    var b: uint32;
    void w1() { a := *; a := *; }
    void w2() { b := *; b := *; }
    void main() {
        var t1: uint64 := create_thread w1();
        var t2: uint64 := create_thread w2();
        join t1;
        join t2;
    }
}"#;

fn main() {
    let module = armada::lang::parse_module(WIDE).expect("parse");
    let typed = armada::lang::check_module(&module).expect("check");
    let program = lower(&typed, "L").expect("lower");
    let bounds = Bounds::small();

    // Pin the workload once so the timed runs only assert, never re-derive.
    let reference = explore(&program, &bounds);
    assert!(!reference.truncated);
    let states = reference.arena.len();

    let timed_plain = || {
        let t = Instant::now();
        let e = explore(&program, &bounds);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(e.arena.len(), states, "telemetry gate: exploration drifted");
        secs
    };
    let timed_tel = || {
        let t = Instant::now();
        let (e, tel) = explore_with_telemetry(&program, &bounds);
        let secs = t.elapsed().as_secs_f64();
        assert_eq!(e.arena.len(), states, "telemetry gate: exploration drifted");
        assert!(!tel.is_empty(), "telemetry gate: no histograms recorded");
        secs
    };

    let trials = 16;
    let mut ratios = Vec::with_capacity(trials);
    for trial in 0..trials {
        // Alternate which variant runs first so position bias cancels.
        let (plain, tel) = if trial % 2 == 0 {
            let plain = timed_plain();
            let tel = timed_tel();
            (plain, tel)
        } else {
            let tel = timed_tel();
            let plain = timed_plain();
            (plain, tel)
        };
        ratios.push(tel / plain);
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median = (ratios[trials / 2 - 1] + ratios[trials / 2]) / 2.0;

    let overhead = median - 1.0;
    println!(
        "telemetry gate: {states} states, {trials} paired trials, \
         median instrumented/plain ratio {median:.4} ({:+.2}%)",
        overhead * 1e2,
    );
    assert!(
        overhead < 0.02,
        "--telemetry costs {:.2}% of states/sec (budget: 2%)",
        overhead * 1e2,
    );
    println!("telemetry gate: OK (<2%)");
}
