//! Byte-level gates for the v4 certificate record codec on real records.
//!
//! The store's writer and parser are tuned for speed, so these tests pin
//! what speed must not change: the exact bytes of the queue model's four
//! records, and agreement with `armada-recheck`'s independent parser on
//! every record the store accepts.

use std::sync::OnceLock;

use armada::verify::store::{deserialize, serialize};
use armada::verify::{RefinementCert, SimConfig};
use armada::Pipeline;

/// The queue model's certificates at `SimConfig::default()`, in recipe
/// order (one pipeline run shared by every test here).
fn queue_certs() -> &'static [RefinementCert] {
    static CERTS: OnceLock<Vec<RefinementCert>> = OnceLock::new();
    CERTS.get_or_init(|| {
        let report = Pipeline::from_source(armada_cases::queue::MODEL)
            .expect("queue model parses")
            .with_sim_config(SimConfig::default())
            .run()
            .expect("pipeline runs");
        report
            .refinements
            .into_iter()
            .map(|r| r.expect("every queue recipe verifies"))
            .collect()
    })
}

#[test]
fn queue_record_checksums_are_pinned() {
    let pinned = [
        (
            "Implementation",
            "AbstractQueue",
            "checksum ed609e37fdd96b7b",
        ),
        ("AbstractQueue", "Cemented", "checksum 10559a3c4007fe8a"),
        ("Cemented", "Weak", "checksum ab2083ea0d9ef9eb"),
        ("Weak", "Spec", "checksum d4cb576f667245c8"),
    ];
    let certs = queue_certs();
    assert_eq!(certs.len(), pinned.len());
    for (cert, (low, high, checksum)) in certs.iter().zip(pinned) {
        assert_eq!((cert.low.as_str(), cert.high.as_str()), (low, high));
        let record = serialize(cert);
        let last = record.trim_end_matches('\n').rsplit('\n').next();
        assert_eq!(last, Some(checksum), "{low} ⊑ {high}");
    }
}

/// `payload` with a freshly computed checksum line, so only the parsers —
/// not the checksum — decide whether a damaged payload is accepted.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut record = payload.to_vec();
    let text = std::str::from_utf8(payload).expect("damage keeps the record ASCII");
    let checksum = armada_recheck::record_checksum(text);
    record.extend_from_slice(format!("checksum {checksum:016x}\n").as_bytes());
    record
}

/// Whenever the store's parser accepts `record`, the checker's
/// independent parser must accept it too and read the same certificate.
/// Returns whether the store accepted.
fn store_acceptance_implies_checker_agreement(record: &[u8], validate: bool) -> bool {
    let Ok(text) = std::str::from_utf8(record) else {
        return false;
    };
    let Some(cert) = deserialize(text, validate) else {
        return false;
    };
    let parsed = armada_recheck::parse_record(text)
        .unwrap_or_else(|e| panic!("store accepted a record the checker rejects: {e}\n{text}"));
    assert_eq!(
        (
            parsed.low.as_str(),
            parsed.high.as_str(),
            parsed.product_nodes,
            parsed.low_transitions,
        ),
        (
            cert.low.as_str(),
            cert.high.as_str(),
            cert.product_nodes,
            cert.low_transitions,
        ),
        "{text}"
    );
    assert_eq!(parsed.witness, cert.witness, "{text}");
    true
}

#[test]
fn the_store_parser_accepts_no_record_the_checker_rejects() {
    let cert = queue_certs()
        .iter()
        .filter(|c| c.witness.obligations.len() >= 2)
        .min_by_key(|c| c.product_nodes)
        .expect("a multi-obligation queue certificate");
    let record = serialize(cert).into_bytes();
    let payload_len = record.len() - "checksum 0123456789abcdef\n".len();
    assert!(store_acceptance_implies_checker_agreement(&record, true));

    let mut accepted = 0;
    for index in 0..record.len() {
        for mask in [0x01, 0x20] {
            let mut flipped = record.clone();
            flipped[index] ^= mask;
            store_acceptance_implies_checker_agreement(&flipped, true);
            if index < payload_len {
                let resealed = reseal(&flipped[..payload_len]);
                store_acceptance_implies_checker_agreement(&resealed, true);
                accepted += store_acceptance_implies_checker_agreement(&resealed, false) as usize;
            }
        }
    }
    for cut in 0..record.len() {
        store_acceptance_implies_checker_agreement(&record[..cut], true);
        let resealed = reseal(&record[..cut.min(payload_len)]);
        store_acceptance_implies_checker_agreement(&resealed, true);
        accepted += store_acceptance_implies_checker_agreement(&resealed, false) as usize;
    }
    // Digit flips inside numeric fields still parse, so the comparison
    // above ran on many accepted variants, not only on rejections.
    assert!(accepted > 1000, "only {accepted} damaged variants parsed");
}

#[test]
fn the_largest_queue_record_rechecks_and_replays() {
    let cert = queue_certs()
        .iter()
        .find(|c| (c.low.as_str(), c.high.as_str()) == ("Weak", "Spec"))
        .expect("the WeakRefinesSpec certificate");
    let record = serialize(cert);
    assert_eq!(deserialize(&record, true).as_ref(), Some(cert));
    let parsed = armada_recheck::parse_record(&record).expect("checker parses");
    assert_eq!(parsed.witness, cert.witness);
    let report = armada_recheck::recheck_record(&record, Some(armada_cases::queue::MODEL))
        .expect("recheck with replay");
    assert!(report.replayed);
    assert_eq!(report.pairs, cert.product_nodes);
    assert_eq!(report.obligations, cert.product_nodes - 1);
}
