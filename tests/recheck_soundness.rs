//! Mutation soundness campaign for machine-checkable refinement
//! witnesses: forge one aspect of a real certificate record and prove the
//! independent checker rejects it with a structured error naming the
//! failure.
//!
//! Every mutation here goes back through [`serialize`], which embeds a
//! *fresh* checksum over the mutated payload — so the store's checksum
//! cannot be what rejects the record. Only the witness validation
//! (structural checks, the obligation hash chain, the subject binding)
//! stands between a forged record and an accepted verdict, which is
//! exactly the trust boundary `armada recheck` claims to enforce.

use armada::verify::store::serialize;
use armada::verify::{RefinementCert, SimConfig};
use armada::Pipeline;
use armada_recheck::{recheck_record, RecheckError};

fn spec_source(rel: &str) -> String {
    std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
        .expect("shipped spec readable")
}

/// Runs the full pipeline on `source` at `jobs` and returns every emitted
/// certificate, subject-bound witness included.
fn certs(source: &str, jobs: usize) -> Vec<RefinementCert> {
    let pipeline = Pipeline::from_source(source)
        .expect("spec parses")
        .with_sim_config(SimConfig::default().with_jobs(jobs));
    let report = pipeline.run().expect("pipeline runs");
    report
        .refinements
        .into_iter()
        .filter_map(Result::ok)
        .collect()
}

/// A certificate with at least two obligations, so a non-final obligation
/// can be forged without touching the sealed digest (which covers only the
/// chain's final hash).
fn rich_cert(source: &str) -> RefinementCert {
    certs(source, 1)
        .into_iter()
        .find(|c| c.witness.obligations.len() >= 2)
        .expect("a certificate with at least two obligations")
}

/// Mutation class 1: flip one obligation hash. The record still parses and
/// checksums; the chained-hash recomputation must catch it and name the
/// obligation.
#[test]
fn a_flipped_obligation_hash_is_rejected_naming_the_obligation() {
    let source = spec_source("specs/counter.arm");
    let mut cert = rich_cert(&source);
    cert.witness.obligations[0].hash ^= 1;
    let record = serialize(&cert);
    let err = recheck_record(&record, Some(&source)).expect_err("forged hash accepted");
    assert!(
        matches!(err, RecheckError::ObligationHash { index: 0, .. }),
        "wrong rejection: {err}"
    );
    assert!(
        err.to_string().contains("obligation 0"),
        "error must name the failing obligation: {err}"
    );
}

/// Mutation class 2: drop one simulation pair and reseal the digest, so
/// the witness is self-consistent but no longer matches the certificate's
/// claimed product-node count.
#[test]
fn a_dropped_simulation_pair_is_rejected_by_the_count_cross_check() {
    let source = spec_source("specs/counter.arm");
    let mut cert = rich_cert(&source);
    let claimed = cert.product_nodes;
    cert.witness.pairs.pop();
    cert.witness.digest = cert.witness.compute_digest();
    let record = serialize(&cert);
    let err = recheck_record(&record, Some(&source)).expect_err("dropped pair accepted");
    match err {
        RecheckError::PairCount {
            pairs,
            product_nodes,
        } => {
            assert_eq!(pairs, claimed - 1);
            assert_eq!(product_nodes, claimed);
        }
        other => panic!("wrong rejection: {other}"),
    }
}

/// Mutation class 3: truncate the witness tail (drop the final obligation)
/// and reseal, leaving a witness that justifies one pair fewer than it
/// lists.
#[test]
fn a_truncated_witness_tail_is_rejected() {
    let source = spec_source("specs/counter.arm");
    let mut cert = rich_cert(&source);
    cert.witness.obligations.pop();
    cert.witness.digest = cert.witness.compute_digest();
    let record = serialize(&cert);
    let err = recheck_record(&record, Some(&source)).expect_err("truncated witness accepted");
    match err {
        RecheckError::ObligationCount { obligations, pairs } => {
            assert_eq!(obligations, pairs.saturating_sub(2));
        }
        other => panic!("wrong rejection: {other}"),
    }
}

/// Mutation class 4: splice a witness across subjects — graft one spec's
/// (entirely valid) witness onto another spec's certificate. The subject
/// binding must reject the transplant before any structural check can be
/// fooled by the donor's internal consistency.
#[test]
fn a_witness_spliced_across_subjects_is_rejected() {
    let counter = spec_source("specs/counter.arm");
    let spinlock = spec_source("specs/spinlock.arm");
    let mut cert = rich_cert(&counter);
    let donor = rich_cert(&spinlock);
    cert.witness = donor.witness;
    let record = serialize(&cert);
    let err = recheck_record(&record, Some(&counter)).expect_err("spliced witness accepted");
    assert!(
        matches!(err, RecheckError::SubjectMismatch { .. }),
        "wrong rejection: {err}"
    );
}

/// The acceptance side of the campaign: clean records pass the checker —
/// structurally *and* under full semantic replay — and the serialized
/// records are byte-identical at jobs ∈ {1, 4}, witness sections included.
#[test]
fn clean_records_recheck_and_are_byte_identical_across_job_counts() {
    for rel in ["specs/counter.arm", "specs/spinlock.arm"] {
        let source = spec_source(rel);
        let serial: Vec<String> = certs(&source, 1).iter().map(serialize).collect();
        let parallel: Vec<String> = certs(&source, 4).iter().map(serialize).collect();
        assert!(!serial.is_empty(), "{rel}: no certificates emitted");
        assert_eq!(serial, parallel, "{rel}: records differ across job counts");
        for record in &serial {
            let report = recheck_record(record, Some(&source))
                .unwrap_or_else(|e| panic!("{rel}: clean record rejected: {e}"));
            assert!(report.replayed, "{rel}: replay did not run");
        }
    }
}

/// Every record of the five case-study models rechecks under full
/// semantic replay, queue's 25,548-obligation `WeakRefinesSpec` witness
/// (the largest the pipeline emits) included.
#[test]
fn case_study_records_recheck_with_replay() {
    let mut largest = 0;
    for (name, source) in [
        ("barrier", armada_cases::barrier::MODEL),
        ("pointers", armada_cases::pointers::MODEL),
        ("mcs_lock", armada_cases::mcs_lock::MODEL),
        ("queue", armada_cases::queue::MODEL),
        ("tsp", armada_cases::tsp::MODEL),
    ] {
        let records = certs(source, 1);
        assert!(!records.is_empty(), "{name}: no certificates emitted");
        for cert in &records {
            let report = recheck_record(&serialize(cert), Some(source))
                .unwrap_or_else(|e| panic!("{name} {} ⊑ {}: rejected: {e}", cert.low, cert.high));
            assert!(report.replayed, "{name}: replay did not run");
            assert_eq!(report.obligations, cert.witness.obligations.len());
            largest = largest.max(report.obligations);
        }
    }
    assert!(largest > 25_000, "the queue witness shrank: {largest}");
}
