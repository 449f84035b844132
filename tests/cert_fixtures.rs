//! The persisted state format, pinned: `tests/fixtures/certs/<name>/` holds
//! the cert records of the current format version for `<name>.arm`, plus a
//! copy of that source. Witnesses store low-state fingerprints and set
//! digests over member fingerprints, so any change to how `ProgState`
//! hashes (or to the canonical states the engines reach) shows up here as a
//! record that no longer rechecks or no longer matches a fresh run byte for
//! byte.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use armada::verify::store::CertStore;
use armada::Pipeline;

/// Every `.cert` file under `dir`, by file name.
fn records(dir: &Path) -> BTreeMap<String, String> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "cert"))
        .map(|path| {
            let name = path.file_name().expect("file name").to_string_lossy();
            let text = std::fs::read_to_string(&path).expect("record readable");
            (name.into_owned(), text)
        })
        .collect()
}

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/certs")
        .join(name)
}

/// The fixture records recheck with full replay against the copied
/// source, and a cold verify into an empty store writes the same records.
fn fixture_holds(name: &str) {
    let dir = fixture_dir(name);
    let source = std::fs::read_to_string(dir.join(format!("{name}.arm"))).expect("source copy");
    let fixture = records(&dir);
    assert!(!fixture.is_empty(), "{name}: no fixture records");
    for (file, text) in &fixture {
        let report = armada::recheck::recheck_record(text, Some(&source))
            .unwrap_or_else(|e| panic!("{name}/{file} rejected: {e}"));
        assert!(report.replayed, "{name}/{file}: replay did not run");
    }

    let store_dir =
        std::env::temp_dir().join(format!("armada-cert-fixture-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let report = Pipeline::from_source(&source)
        .expect("front end")
        .with_cert_store(CertStore::open(&store_dir))
        .run()
        .expect("pipeline runs");
    assert!(report.verified(), "{name}: fresh run did not verify");
    let fresh = records(&store_dir);
    let _ = std::fs::remove_dir_all(&store_dir);
    assert_eq!(
        fresh.keys().collect::<Vec<_>>(),
        fixture.keys().collect::<Vec<_>>(),
        "{name}: record names differ"
    );
    for (file, text) in &fixture {
        assert!(
            fresh[file] == *text,
            "{name}/{file}: a fresh cold run writes a different record"
        );
    }
}

#[test]
fn handoff_fixture_records_recheck_and_reproduce() {
    fixture_holds("handoff");
}

#[test]
fn spinlock_fixture_records_recheck_and_reproduce() {
    fixture_holds("spinlock");
}
