//! Byte-level gates for the v5 certificate record codec on real records.
//!
//! `armada-recheck`'s `parse_record` is the one reader of a record and
//! `write_record` its one writer, both tuned for speed, so these tests pin
//! what speed must not change: the exact bytes of the queue model's four
//! records, a grammar with one spelling per certificate (every damaged
//! variant the parser accepts writes back to its own bytes), and the
//! non-canonical spellings it rejects.

use std::sync::OnceLock;

use armada::recheck::{parse_record, record_checksum, write_record, RecheckError};
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
            "checksum c375c586b1ab504e",
        ),
        ("AbstractQueue", "Cemented", "checksum b7b6dacb135e0d2d"),
        ("Cemented", "Weak", "checksum 84c5ff3e02d8dd5e"),
        ("Weak", "Spec", "checksum 3b29c044aa62fd0b"),
    ];
    let certs = queue_certs();
    assert_eq!(certs.len(), pinned.len());
    for (cert, (low, high, checksum)) in certs.iter().zip(pinned) {
        assert_eq!((cert.low.as_str(), cert.high.as_str()), (low, high));
        let record = write_record(cert);
        let last = record.trim_end_matches('\n').rsplit('\n').next();
        assert_eq!(last, Some(checksum), "{low} ⊑ {high}");
    }
}

/// `payload` with a freshly computed checksum line, so only the parser —
/// not the checksum — decides whether a damaged payload is accepted.
fn reseal(payload: &[u8]) -> Vec<u8> {
    let mut record = payload.to_vec();
    let text = std::str::from_utf8(payload).expect("damage keeps the record ASCII");
    let checksum = record_checksum(text);
    record.extend_from_slice(format!("checksum {checksum:016x}\n").as_bytes());
    record
}

/// Whenever the parser accepts `record`, writing what it read reproduces
/// `record` byte for byte: the grammar has one spelling per certificate.
/// Returns whether the parser accepted.
fn acceptance_implies_round_trip(record: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(record) else {
        return false;
    };
    let Ok(parsed) = parse_record(text) else {
        return false;
    };
    assert_eq!(
        write_record(&parsed),
        text,
        "accepted, but writes back otherwise"
    );
    true
}

/// The smallest queue certificate with at least two obligations.
fn small_queue_cert() -> &'static RefinementCert {
    queue_certs()
        .iter()
        .filter(|c| c.witness.obligations.len() >= 2)
        .min_by_key(|c| c.product_nodes)
        .expect("a multi-obligation queue certificate")
}

#[test]
fn every_damaged_record_the_parser_accepts_writes_back_to_its_bytes() {
    let record = write_record(small_queue_cert()).into_bytes();
    let payload_len = record.len() - "checksum 0123456789abcdef\n".len();
    assert!(acceptance_implies_round_trip(&record));

    let mut accepted = 0;
    for index in 0..record.len() {
        for mask in [0x01, 0x20] {
            let mut flipped = record.clone();
            flipped[index] ^= mask;
            acceptance_implies_round_trip(&flipped);
            if index < payload_len {
                accepted +=
                    acceptance_implies_round_trip(&reseal(&flipped[..payload_len])) as usize;
            }
        }
    }
    for cut in 0..record.len() {
        acceptance_implies_round_trip(&record[..cut]);
        accepted +=
            acceptance_implies_round_trip(&reseal(&record[..cut.min(payload_len)])) as usize;
    }
    // Digit flips inside numeric fields still parse, so the round trip
    // above ran on many accepted variants, not only on rejections.
    assert!(accepted > 1000, "only {accepted} damaged variants parsed");
}

#[test]
fn non_canonical_spellings_are_rejected_naming_their_line() {
    let cert = small_queue_cert();
    let record = write_record(cert);
    let payload = record.rsplit_once("checksum ").expect("checksum line").0;
    let digest_line = format!("witness digest {:016x}", cert.witness.digest);
    let digest_at = payload
        .lines()
        .position(|line| line == digest_line)
        .expect("digest line")
        + 1;
    let line = |prefix: &str| {
        payload
            .lines()
            .enumerate()
            .find(|(_, line)| line.starts_with(prefix))
            .map(|(index, line)| (format!("\n{line}\n"), index + 1))
            .expect("a line with the prefix")
    };
    // The first step encoding leads with its count, one byte; `80 00`
    // spells zero in two bytes, `81 00` spells one.
    let (first_obligation, first_obligation_at) = line("obl ");
    let (fields, steps) = first_obligation.rsplit_once(' ').expect("a step field");
    let count = u8::from_str_radix(&steps[..2], 16).expect("a hex step count");
    let overlong = format!("{fields} {:02x}00{}", count | 0x80, &steps[2..]);
    // The first pair names set 0; `00` spells it with a leading zero.
    let (first_pair, first_pair_at) = line("pair ");
    let first_pair = first_pair.trim_end().to_string();
    let crlf = payload.replace('\n', "\r\n");
    let crlf = format!("{crlf}checksum {:016x}\r\n", record_checksum(&crlf));
    let cases = [
        (
            "a leading zero",
            reseal(
                payload
                    .replacen("\nproduct_nodes ", "\nproduct_nodes 0", 1)
                    .as_bytes(),
            ),
            4,
        ),
        (
            "an uppercase hex digest",
            reseal(
                payload
                    .replacen(
                        &digest_line,
                        &format!("witness digest {:016X}", cert.witness.digest),
                        1,
                    )
                    .as_bytes(),
            ),
            digest_at,
        ),
        ("CRLF line ends", crlf.into_bytes(), 1),
        (
            "an overlong step varint",
            reseal(payload.replacen(&first_obligation, &overlong, 1).as_bytes()),
            first_obligation_at,
        ),
        (
            "a set index with a leading zero",
            reseal(
                payload
                    .replacen(&first_pair, &format!("{first_pair}0"), 1)
                    .as_bytes(),
            ),
            first_pair_at,
        ),
    ];
    for (what, variant, want) in cases {
        assert_ne!(
            variant,
            record.as_bytes(),
            "{what}: the variant must differ"
        );
        let text = std::str::from_utf8(&variant).expect("ASCII");
        match parse_record(text) {
            Err(RecheckError::Parse { line, .. }) => assert_eq!(line, want, "{what}"),
            other => panic!("{what}: not a parse error: {other:?}"),
        }
    }
}

#[test]
fn the_largest_queue_record_rechecks_and_replays() {
    let cert = queue_certs()
        .iter()
        .find(|c| (c.low.as_str(), c.high.as_str()) == ("Weak", "Spec"))
        .expect("the WeakRefinesSpec certificate");
    let record = write_record(cert);
    assert_eq!(parse_record(&record).as_ref(), Ok(cert));
    let report = armada_recheck::recheck_record(&record, Some(armada_cases::queue::MODEL))
        .expect("recheck with replay");
    assert!(report.replayed);
    assert_eq!(report.pairs, cert.product_nodes);
    assert_eq!(report.obligations, cert.product_nodes - 1);
}
