//! The flat witness layout, measured with a counting allocator: loading a
//! certificate record and cloning its witness each allocate a fixed number
//! of times however many obligations the witness holds, and every record
//! the tool writes round-trips through the one record codec to the same
//! bytes.
//!
//! The counter is a `const` thread-local, so allocations made on other
//! test threads (or by the harness) never disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;
use std::sync::OnceLock;

use armada::recheck::{parse_record, write_record, CertRecord};
use armada::verify::SimConfig;
use armada::Pipeline;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCATIONS.with(|count| count.set(count.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local without a destructor, so touching it
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The queue model's four records at `SimConfig::default()`, in recipe
/// order; `WeakRefinesSpec` holds the largest witness the pipeline emits.
fn queue_records() -> &'static [String] {
    static RECORDS: OnceLock<Vec<String>> = OnceLock::new();
    RECORDS.get_or_init(|| {
        let report = Pipeline::from_source(armada_cases::queue::MODEL)
            .expect("queue model parses")
            .with_sim_config(SimConfig::default())
            .run()
            .expect("pipeline runs");
        report
            .refinements
            .iter()
            .map(|r| write_record(r.as_ref().expect("every queue recipe verifies")))
            .collect()
    })
}

/// What the store's loads do with a record: parse it, then validate the
/// witness's structure.
fn validating_load(record: &str) -> Result<CertRecord, armada::recheck::RecheckError> {
    let cert = parse_record(record)?;
    cert.witness
        .validate(cert.product_nodes, cert.low_transitions, None)?;
    Ok(cert)
}

/// What one validating load allocates: the two level names, the record's
/// set table (dropped once each pair holds its digest), the pair and
/// obligation tables, and the step arena; `validate` allocates nothing.
/// The renaming arenas of these records are empty and allocate nothing.
const LOAD_ALLOCATIONS: u64 = 6;

/// What one clone allocates: the level names, the two tables and the step
/// arena.
const CLONE_ALLOCATIONS: u64 = 5;

#[test]
fn loads_and_clones_allocate_a_fixed_number_of_times() {
    let mut obligation_counts = Vec::new();
    for record in queue_records() {
        let before = allocations();
        let cert = validating_load(record).expect("a validating load accepts the record");
        let load = allocations() - before;
        let before = allocations();
        let copy = cert.clone();
        let clone = allocations() - before;
        assert_eq!(copy, cert);
        let name = format!("{} ⊑ {}", cert.low, cert.high);
        assert!(
            cert.witness.renamings.is_empty() && cert.witness.root_renaming.is_empty(),
            "{name}: the pinned counts assume identity renamings"
        );
        assert_eq!(load, LOAD_ALLOCATIONS, "{name}: load allocations");
        assert_eq!(clone, CLONE_ALLOCATIONS, "{name}: clone allocations");
        obligation_counts.push(cert.witness.obligations.len());
    }
    // The same counts held from a few obligations to tens of thousands.
    let (fewest, most) = (
        obligation_counts.iter().min().copied(),
        obligation_counts.iter().max().copied(),
    );
    assert!(
        fewest < Some(100) && most > Some(25_000),
        "{obligation_counts:?}"
    );
}

/// Queue's `WeakRefinesSpec` record took 3,688,400 bytes in format v4,
/// most of them zero-padded step words and digests the checker
/// recomputes; a record may take at most half of that.
const WEAK_REFINES_SPEC_MAX_BYTES: usize = 3_688_400 / 2;

#[test]
fn the_largest_queue_record_takes_at_most_half_its_v4_size() {
    let record = queue_records()
        .iter()
        .find(|record| record.contains("\nlow Weak\nhigh Spec\n"))
        .expect("the WeakRefinesSpec record");
    assert!(
        record.len() <= WEAK_REFINES_SPEC_MAX_BYTES,
        "{} bytes, over {WEAK_REFINES_SPEC_MAX_BYTES}",
        record.len()
    );
}

/// Every record under `tests/fixtures/certs`.
fn fixture_records() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/certs");
    let mut out = Vec::new();
    for module in std::fs::read_dir(&root).expect("fixture root") {
        for entry in std::fs::read_dir(module.expect("module dir").path()).expect("fixture dir") {
            let path = entry.expect("fixture entry").path();
            if path.extension().is_some_and(|ext| ext == "cert") {
                let text = std::fs::read_to_string(&path).expect("fixture record");
                out.push((path.display().to_string(), text));
            }
        }
    }
    out.sort();
    out
}

#[test]
fn records_round_trip_through_the_codec() {
    let fixtures = fixture_records();
    assert!(fixtures.len() >= 3, "fixture records: {}", fixtures.len());
    let queue = queue_records()
        .iter()
        .enumerate()
        .map(|(i, text)| (format!("queue record {i}"), text.clone()));
    for (name, record) in fixtures.into_iter().chain(queue) {
        round_trip(&name, &record);
    }
}

/// A validating load accepts `record`, and the loaded certificate writes
/// back to `record`.
fn round_trip(name: &str, record: &str) {
    let cert = validating_load(record).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        write_record(&cert),
        record,
        "{name}: bytes differ after a round trip"
    );
}

/// No record of the corpus carries a symmetry renaming, so the renaming
/// arena is exercised by a built witness: identity and non-identity
/// renamings interleaved, with multi-step edges between them.
#[test]
fn renaming_arenas_round_trip_through_the_codec() {
    use armada::sm::Step;
    let renamings: [&[u64]; 4] = [&[], &[2, 1], &[], &[3, 1, 2]];
    let mut builder = armada::recheck::WitnessBuilder::new(true, 2, vec![2, 1], 0x10, 0x20);
    let mut micro = 0;
    for (i, renaming) in renamings.iter().enumerate() {
        let steps = vec![Step::instr(1); i + 1];
        micro += steps.len();
        builder.push_node(i as u32, 0x11 + i as u64, 0x21, &steps, renaming);
    }
    let mut witness = builder.seal(true, 5, 4);
    witness.bind_subject(0x5eed);
    assert_eq!(witness.renamings, [2, 1, 3, 1, 2]);
    assert_eq!(witness.renaming_of(3), [3, 1, 2]);
    let cert = CertRecord {
        low: "Impl".into(),
        high: "Spec".into(),
        product_nodes: renamings.len() + 1,
        low_transitions: micro,
        witness,
    };
    let record = write_record(&cert);
    round_trip("built witness", &record);
    assert_eq!(validating_load(&record), Ok(cert));
}
