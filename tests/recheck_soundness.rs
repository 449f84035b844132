//! Mutation soundness campaign for machine-checkable refinement
//! witnesses: forge one aspect of a real certificate record and prove the
//! independent checker rejects it with a structured error naming the
//! failure.
//!
//! Every mutation here goes back through [`write_record`], or is edited
//! into the record text under a recomputed checksum — so the store's
//! checksum cannot be what rejects the record. Only the parser's grammar
//! and the witness validation (structural checks, the sealed digest, the
//! subject binding, replay) stand between a forged record and an accepted
//! verdict, which is exactly the trust boundary `armada recheck` claims to
//! enforce.

use armada::verify::{RefinementCert, SimConfig};
use armada::Pipeline;
use armada_recheck::{parse_record, recheck_record, record_checksum, write_record, RecheckError};

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

/// A certificate with at least two obligations and two match sets, so an
/// obligation can be forged without its certificate losing every edge and
/// the set table has two entries to swap.
fn rich_cert(source: &str) -> RefinementCert {
    certs(source, 1)
        .into_iter()
        .find(|c| {
            let sets = &c.witness.pairs;
            c.witness.obligations.len() >= 2
                && sets.iter().any(|p| p.set_digest != sets[0].set_digest)
        })
        .expect("a certificate with two obligations and two match sets")
}

/// `record` under a checksum recomputed over its payload.
fn reseal(record: &str) -> String {
    let payload = record.rsplit_once("checksum ").expect("checksum line").0;
    format!("{payload}checksum {:016x}\n", record_checksum(payload))
}

/// `record` with its first line starting `from` rewritten by `to`, resealed,
/// and the number of the line edited.
fn edit_line(record: &str, from: &str, to: impl Fn(&str) -> String) -> (String, usize) {
    let (index, line) = record
        .lines()
        .enumerate()
        .find(|(_, line)| line.starts_with(from))
        .expect("a line to edit");
    let forged = reseal(&record.replacen(&format!("\n{line}\n"), &format!("\n{}\n", to(line)), 1));
    assert_ne!(forged, record, "the edit must land");
    (forged, index + 1)
}

/// Mutation class 1a: a pair line names a set past the end of the table.
/// The record still checksums; the parser rejects the index and names its
/// line.
#[test]
fn a_set_index_out_of_range_is_a_parse_error_naming_its_line() {
    let source = spec_source("specs/counter.arm");
    let cert = rich_cert(&source);
    let record = write_record(&cert);
    let sets = record
        .lines()
        .filter(|line| line.starts_with("set "))
        .count();
    let (forged, line) = edit_line(&record, "pair ", |pair| {
        let (fp, _) = pair.rsplit_once(' ').expect("a set index");
        format!("{fp} {sets}")
    });
    let err = recheck_record(&forged, Some(&source)).expect_err("forged index accepted");
    assert_eq!(
        err,
        RecheckError::Parse {
            line,
            reason: format!("set index {sets} is outside the {sets}-entry set table"),
        }
    );
}

/// Mutation class 1b: two set-table entries trade places. Every pair line
/// still indexes the table in order of first use, so the record parses,
/// but each pair now carries the other set's digest: the sealed digest
/// must catch the swap.
#[test]
fn swapped_set_table_entries_are_rejected_by_the_digest() {
    let source = spec_source("specs/counter.arm");
    let record = write_record(&rich_cert(&source));
    let first = record
        .lines()
        .find(|line| line.starts_with("set "))
        .expect("a set line")
        .to_string();
    let second = record
        .lines()
        .filter(|line| line.starts_with("set "))
        .nth(1)
        .expect("a second set line")
        .to_string();
    let forged = reseal(
        &record
            .replacen(&first, "set swap", 1)
            .replacen(&second, &first, 1)
            .replacen("set swap", &second, 1),
    );
    assert_ne!(forged, record, "the swap must land");
    let err = recheck_record(&forged, Some(&source)).expect_err("swapped sets accepted");
    assert!(
        matches!(err, RecheckError::DigestMismatch { .. }),
        "wrong rejection: {err}"
    );
}

/// Mutation class 1c: one micro-step moves to a thread that does not
/// exist, digest and checksum recomputed, so every structural check
/// passes. Only replay against the semantics can reject it, naming the
/// obligation and the step.
#[test]
fn a_step_that_is_not_enabled_is_rejected_by_replay() {
    let source = spec_source("specs/counter.arm");
    let mut cert = rich_cert(&source);
    let index = cert.witness.obligations.len() - 1;
    // Step bytes: the step count, then the first step's tid.
    let at = cert.witness.obligations[index].steps.start as usize + 1;
    cert.witness.steps[at] = 7;
    cert.witness.digest = cert.witness.compute_digest();
    let record = write_record(&cert);
    let loaded = parse_record(&record).expect("the forgery parses");
    assert_eq!(
        loaded
            .witness
            .validate(loaded.product_nodes, loaded.low_transitions, None),
        Ok(()),
        "the forgery passes structural validation"
    );
    let err = recheck_record(&record, Some(&source)).expect_err("disabled step accepted");
    assert_eq!(
        err,
        RecheckError::Obligation {
            index,
            reason: "micro-step 0 (t7) is not enabled in the parent's state".to_string(),
        }
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
    let record = write_record(&cert);
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
    let record = write_record(&cert);
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
    let record = write_record(&cert);
    let err = recheck_record(&record, Some(&counter)).expect_err("spliced witness accepted");
    assert!(
        matches!(err, RecheckError::SubjectMismatch { .. }),
        "wrong rejection: {err}"
    );
}

/// Mutation class 6: a record whose `witness pairs` or `witness
/// obligations` count claims 2^40 or 2^60 lines, checksum recomputed. The
/// parser weighs a count against the bytes left before it sizes an
/// allocation, so each forgery is a parse error naming the count's line
/// (not an abort), and a store miss.
#[test]
fn a_hostile_witness_count_is_a_parse_error_naming_its_line() {
    use armada::verify::store::{CertKey, CertStore};

    let source = spec_source("specs/counter.arm");
    let cert = rich_cert(&source);
    let record = write_record(&cert);
    let payload = record.rsplit_once("checksum ").expect("checksum line").0;
    let dir = std::env::temp_dir().join(format!("armada-hostile-count-{}", std::process::id()));
    let store = CertStore::open(&dir);
    store.clear().expect("clean scratch dir");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let key = CertKey::compute("hostile", &cert.low, &cert.high, &SimConfig::default());
    for prefix in ["witness pairs ", "witness obligations "] {
        let (index, line) = payload
            .lines()
            .enumerate()
            .find(|(_, line)| line.starts_with(prefix))
            .expect("count line");
        for count in [1u64 << 40, 1 << 60] {
            let forged = payload.replacen(line, &format!("{prefix}{count}"), 1);
            let checksum = armada_recheck::record_checksum(&forged);
            let forged = format!("{forged}checksum {checksum:016x}\n");
            let err = recheck_record(&forged, Some(&source)).expect_err("hostile count accepted");
            assert!(
                matches!(err, RecheckError::Parse { line, .. } if line == index + 1),
                "{prefix}{count}: wrong rejection: {err}"
            );
            std::fs::write(store.path_for(&key), &forged).expect("plant the forgery");
            assert_eq!(
                store.load(&key, &cert.low, &cert.high),
                None,
                "{prefix}{count}"
            );
        }
    }
    assert_eq!(store.corrupt_loads(), 4);
    store.clear().expect("remove scratch dir");
}

/// The acceptance side of the campaign: clean records pass the checker —
/// structurally *and* under full semantic replay — and the serialized
/// records are byte-identical at jobs ∈ {1, 4}, witness sections included.
#[test]
fn clean_records_recheck_and_are_byte_identical_across_job_counts() {
    for rel in ["specs/counter.arm", "specs/spinlock.arm"] {
        let source = spec_source(rel);
        let serial: Vec<String> = certs(&source, 1).iter().map(write_record).collect();
        let parallel: Vec<String> = certs(&source, 4).iter().map(write_record).collect();
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
            let report = recheck_record(&write_record(cert), Some(source))
                .unwrap_or_else(|e| panic!("{name} {} ⊑ {}: rejected: {e}", cert.low, cert.high));
            assert!(report.replayed, "{name}: replay did not run");
            assert_eq!(report.obligations, cert.witness.obligations.len());
            largest = largest.max(report.obligations);
        }
    }
    assert!(largest > 25_000, "the queue witness shrank: {largest}");
}

/// Mutation class 5, at the pipeline: a stored record rebound to another
/// subject, with its digest and checksum recomputed, passes every check a
/// load makes. Only `--recheck`'s subject comparison can reject it, and
/// then the hit demotes to a miss: the check reruns and rewrites the
/// record under the true subject.
#[test]
fn a_forged_subject_demotes_a_recheck_hit_to_a_miss() {
    use armada::verify::store::CertStore;
    use armada::CacheDisposition;

    let source = spec_source("specs/counter.arm");
    let dir = std::env::temp_dir().join(format!("armada-forged-subject-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = |recheck: bool| {
        let report = Pipeline::from_source(&source)
            .expect("spec parses")
            .with_cert_store(CertStore::open(&dir))
            .with_recheck(recheck)
            .run()
            .expect("pipeline runs");
        assert!(report.verified(), "{}", report.failure_summary());
        report.outcomes[0].cache
    };
    assert_eq!(run(false), CacheDisposition::Miss);
    let path = std::fs::read_dir(&dir)
        .expect("store written")
        .map(|entry| entry.expect("dir entry").path())
        .next()
        .expect("one record");
    let clean = std::fs::read_to_string(&path).expect("record");
    let mut cert = parse_record(&clean).expect("clean record loads");
    cert.witness.bind_subject(cert.witness.subject ^ 1);
    let forged = write_record(&cert);
    let reloaded = parse_record(&forged).expect("the forgery parses");
    assert_eq!(
        reloaded
            .witness
            .validate(reloaded.product_nodes, reloaded.low_transitions, None),
        Ok(()),
        "the forgery passes a load"
    );
    std::fs::write(&path, &forged).expect("plant the forgery");
    assert_eq!(
        run(false),
        CacheDisposition::Hit,
        "a plain load cannot tell"
    );
    assert_eq!(
        run(true),
        CacheDisposition::Miss,
        "recheck served the forgery"
    );
    assert_eq!(
        std::fs::read_to_string(&path).expect("record"),
        clean,
        "the rerun rewrites the true record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
