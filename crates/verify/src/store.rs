//! Crash-safe, content-addressed persistence of [`RefinementCert`]s.
//!
//! Re-verifying a level pair whose programs and bounds have not changed
//! is pure waste, so the pipeline can persist each successful certificate
//! under `target/armada-certs/` and reuse it on the next run (the ROADMAP's
//! cert-cache item). Because a cache that silently serves stale or mangled
//! entries would *unsoundly* skip verification, the store is built around
//! one invariant — **a load either returns exactly what a completed save
//! wrote, or nothing** — and the pipeline treats "nothing" as a plain cache
//! miss and recomputes. Foundational VeriFast (PAPERS.md) takes the same
//! posture: cached verification results are only trustworthy if they are
//! re-validated cheaply on load.
//!
//! Mechanics:
//!
//! * **Content addressing.** [`CertKey::compute`] hashes the content the
//!   check reads — the pipeline passes the level pair's span-free
//!   [`armada_sm::pair_content`], relation included — the level names,
//!   and every result-affecting bound (`jobs` and the wall-clock deadline
//!   are deliberately excluded — they change wall-clock behavior, never
//!   results). Any edit to either program, the relation or the bounds
//!   changes the key, so stale certs are simply never addressed; an edit
//!   elsewhere in the module (a comment, another level) leaves it alone,
//!   and the cert is served again.
//! * **Atomic writes.** [`CertStore::save`] writes a temp file in the same
//!   directory and `rename`s it into place, so a crash mid-write leaves
//!   either the old entry or a stray `.tmp` — never a half-written `.cert`
//!   at the addressed path.
//! * **One codec, the checker's.** Records are written by
//!   [`armada_recheck::write_record`] and read by
//!   [`armada_recheck::parse_record`], the same codec `armada recheck`
//!   trusts; this module holds no grammar of its own. The record embeds a
//!   checksum of its payload ([`armada_recheck::record_checksum`], the
//!   witness format's word hash); [`CertStore::load`] re-verifies it,
//!   re-parses every field, and cross-checks the level names against the
//!   requested pair. Any mismatch — torn write, flipped byte, truncation,
//!   hand-editing — makes the load return `None`.
//! * **Witness-bearing records (format v2).** Every record carries the
//!   certificate's machine-checkable [`armada_recheck::Witness`] versioned
//!   alongside the counters, and a validating load additionally runs the
//!   witness's structural checks (subject-agnostic: counts, step
//!   encodings, the sealed digest over every pair and edge). A cached
//!   verdict therefore re-proves its own shape on every load; `armada
//!   recheck` can go further and replay it against the semantics. Each
//!   format bump ([`armada_recheck::FORMAT_VERSION`]) changes [`CertKey`]
//!   derivation too, so every older entry becomes unaddressable the
//!   moment it ships — a one-time full cache invalidation, not a parse
//!   hazard. v3 re-keys records on the level pair's content and binds the
//!   witness subject to the same content; v4 hashes 64-bit words, not
//!   bytes, in every witness digest and in the record checksum; v5 keeps
//!   only what the checker cannot recompute (no per-obligation digests,
//!   varint steps, one table of match-set digests).

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use armada_runtime::hash::Fnv64;

use crate::{RefinementCert, SimConfig};

/// Deterministic damage applied to a record as it is persisted, for fuzzing
/// the loader's validation invariant (see [`StoreShim`]). Our writer is
/// atomic by construction, so these model the *environment* — a torn sector,
/// latent bit rot — landing damage at the addressed path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// The record is truncated at half its length before it lands.
    Torn,
    /// One payload digit is flipped before the record lands. The damaged
    /// record still *parses* — only the checksum re-validation can reject
    /// it, which is exactly the defense being fuzzed.
    BitFlip,
}

/// Deterministic damage applied to the bytes a load reads, before parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadFault {
    /// One payload digit is flipped in the bytes handed to the parser (a
    /// bad sector surfacing on read; the on-disk record is untouched).
    Corrupt,
}

/// Fault-shim configuration for one store handle. The default injects
/// nothing; fuzzing wraps a store via [`CertStore::with_faults`] to damage
/// its IO deterministically and then asserts the store's load invariant — a
/// load returns exactly what a completed save wrote, or nothing — still
/// holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreShim {
    /// Damage applied by every `save`.
    pub write: Option<WriteFault>,
    /// Damage applied to the bytes read by every `load`.
    pub read: Option<ReadFault>,
    /// **Mutant hook, test-only:** skip checksum re-validation on load.
    /// Exists so the fuzzer's no-corrupt-cert-served invariant can be
    /// demonstrated to catch a store that stopped validating
    /// (`tests/fault_fuzz.rs`, mutant refutation); nothing in the tool ever
    /// sets it.
    pub unchecked_loads: bool,
}

/// Flips one decimal digit right after `needle` (xor 0x01 keeps `0`–`9` a
/// digit, and skipping `a`–`f` keeps hex fields hex), so the damaged
/// record still parses. Returns false if no digit follows the needle.
fn flip_digit_after(bytes: &mut [u8], needle: &[u8]) -> bool {
    let Some(at) = bytes
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + needle.len())
    else {
        return false;
    };
    for b in bytes[at..].iter_mut() {
        if b.is_ascii_digit() {
            *b ^= 0x01;
            return true;
        }
        if !b.is_ascii_hexdigit() {
            return false;
        }
    }
    false
}

/// Flips a digit in the counters region (`product_nodes`) *and* one in the
/// witness section (the sealed digest line), producing a record that
/// parses but cannot re-validate. Damaging both regions keeps the
/// twelve-fate fuzz campaign honest: a loader that checksummed only the
/// counters but trusted the witness bytes — or vice versa — would serve
/// one of the two corruptions. Falls back to flipping the middle byte if
/// neither needle lands (pre-damaged input).
fn flip_payload_digit(bytes: &mut [u8]) {
    let counters = flip_digit_after(bytes, b"product_nodes ");
    let witness = flip_digit_after(bytes, b"witness digest ");
    if !counters && !witness && !bytes.is_empty() {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    }
}

/// Content address of one certificate: a stable hash of everything that
/// determines the check's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CertKey(u64);

impl CertKey {
    /// Derives the key for checking `low ⊑ high` under `config`, where
    /// `content` is the content the key covers: for a recipe, the level
    /// pair's [`armada_sm::pair_content`] (both lowered programs and the
    /// relation, spans excluded). The serve daemon passes a whole module
    /// source with empty level names to coalesce requests per source.
    pub fn compute(content: &str, low: &str, high: &str, config: &SimConfig) -> CertKey {
        let mut h = Fnv64::new();
        h.write_u64(armada_recheck::FORMAT_VERSION as u64);
        h.write_str(content);
        h.write_str(low);
        h.write_str(high);
        h.write_usize(config.max_match);
        h.write_usize(config.max_nodes);
        h.write_usize(config.bounds.max_steps);
        h.write_usize(config.bounds.max_states);
        h.write_usize(config.bounds.max_buffer);
        h.write_usize(config.bounds.nondet_ints.len());
        for &candidate in &config.bounds.nondet_ints {
            h.write_i128(candidate);
        }
        // Reduction and symmetry change the cert's node/transition counts
        // (never the verdict), so a cached cert is only exact for the same
        // settings. Spill and checkpoint are deliberately excluded, like
        // jobs and deadlines: they change how a check runs, never what a
        // successful check certifies.
        h.write_u64(config.bounds.reduction as u64);
        h.write_u64(config.bounds.symmetry as u64);
        CertKey(h.finish())
    }

    /// The key as the 16-hex-digit file stem.
    pub fn as_hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A directory of checksummed certificate records, one file per key.
#[derive(Debug, Clone)]
pub struct CertStore {
    root: PathBuf,
    shim: StoreShim,
    /// Records that were *present* but failed validation on load (torn,
    /// bit-flipped, version-skewed, or addressed to the wrong pair). The
    /// counter is shared across clones of this handle — including the
    /// per-recipe fault-shimmed views the pipeline makes — so tier-2
    /// corruption is auditable instead of silently recomputed away.
    rejected_loads: Arc<AtomicU64>,
}

impl CertStore {
    /// A store rooted at `root`. No IO happens until the first save (loads
    /// from a nonexistent directory are just misses).
    pub fn open(root: impl Into<PathBuf>) -> CertStore {
        CertStore {
            root: root.into(),
            shim: StoreShim::default(),
            rejected_loads: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The same store with `shim`'s deterministic IO faults applied to
    /// every save and load (fuzzing only).
    pub fn with_faults(mut self, shim: StoreShim) -> CertStore {
        self.shim = shim;
        self
    }

    /// This handle's fault-shim configuration (default: injects nothing).
    pub fn shim(&self) -> StoreShim {
        self.shim
    }

    /// The conventional location, `target/armada-certs/`.
    pub fn default_root() -> PathBuf {
        PathBuf::from("target/armada-certs")
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file a key addresses (whether or not it exists yet).
    pub fn path_for(&self, key: &CertKey) -> PathBuf {
        self.root.join(format!("{}.cert", key.as_hex()))
    }

    /// Persists `cert` under `key`: serialize, write to a same-directory
    /// temp file, checksum embedded, then atomically rename into place.
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error; callers may treat saving as
    /// best-effort (a failed save only costs a future recomputation).
    pub fn save(&self, key: &CertKey, cert: &RefinementCert) -> io::Result<()> {
        self.save_serialized(key, cert, &armada_recheck::write_record(cert))
    }

    /// [`CertStore::save`] for a caller that already holds `record`, which
    /// must be `write_record(cert)`: the tiered store serializes once and
    /// shares the bytes between its tiers. The write-fault shim applies
    /// here, to this tier's copy only.
    pub(crate) fn save_serialized(
        &self,
        key: &CertKey,
        cert: &RefinementCert,
        record: &str,
    ) -> io::Result<()> {
        if !level_name_fits(&cert.low) || !level_name_fits(&cert.high) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "level names must be single-line and non-empty",
            ));
        }
        fs::create_dir_all(&self.root)?;
        let mut damaged;
        let mut bytes = record.as_bytes();
        if let Some(fault) = self.shim.write {
            damaged = bytes.to_vec();
            match fault {
                WriteFault::Torn => damaged.truncate(damaged.len() / 2),
                WriteFault::BitFlip => flip_payload_digit(&mut damaged),
            }
            bytes = &damaged;
        }
        let target = self.path_for(key);
        // Same-directory temp path: rename is atomic only within a
        // filesystem. The name is key-deterministic; concurrent writers of
        // the same key write identical bytes, so the race is benign.
        let temp = self.root.join(format!("{}.tmp", key.as_hex()));
        fs::write(&temp, bytes)?;
        fs::rename(&temp, &target)
    }

    /// Loads the certificate stored under `key`, if and only if a complete,
    /// checksum-valid record for exactly the pair `low ⊑ high` is present.
    /// Every failure mode — absent file, torn or corrupted record, version
    /// skew, a record for a different pair — is a silent `None`, which
    /// callers treat as a cache miss.
    pub fn load(&self, key: &CertKey, low: &str, high: &str) -> Option<RefinementCert> {
        self.load_record(key, low, high).map(|(cert, _)| cert)
    }

    /// [`CertStore::load`] that also hands back the record text the cert
    /// was parsed from, so the tiered store can promote a disk hit without
    /// serializing it again.
    pub(crate) fn load_record(
        &self,
        key: &CertKey,
        low: &str,
        high: &str,
    ) -> Option<(RefinementCert, String)> {
        let mut bytes = fs::read(self.path_for(key)).ok()?;
        if let Some(ReadFault::Corrupt) = self.shim.read {
            flip_payload_digit(&mut bytes);
        }
        // From here on a record *exists*: any rejection below is audited as
        // a corrupt load (the recompute is silent for results, not for the
        // operator — `--telemetry` surfaces the counter).
        let reject = || {
            self.rejected_loads.fetch_add(1, Ordering::Relaxed);
            None
        };
        let Ok(text) = String::from_utf8(bytes) else {
            return reject();
        };
        let loaded = if self.shim.unchecked_loads {
            reseal(&text).and_then(|text| armada_recheck::parse_record(&text).ok())
        } else {
            validated(&text)
        };
        let Some(cert) = loaded else {
            return reject();
        };
        if cert.low == low && cert.high == high {
            Some((cert, text))
        } else {
            reject()
        }
    }

    /// How many loads found a record that failed validation (and were
    /// therefore answered as misses, forcing recomputation). Shared across
    /// clones of this handle.
    pub fn corrupt_loads(&self) -> u64 {
        self.rejected_loads.load(Ordering::Relaxed)
    }

    /// Strict re-validation sweep over every record in the store, ignoring
    /// this handle's shim: `(valid, rejected)` record counts. Fuzzing uses
    /// it to audit what a fault campaign left on disk (a rejected record is
    /// merely a future cache miss, never an invariant violation).
    ///
    /// # Errors
    ///
    /// Returns the underlying IO error from the directory walk (a missing
    /// root is an empty store, not an error).
    pub fn audit(&self) -> io::Result<(usize, usize)> {
        let entries = match fs::read_dir(&self.root) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((0, 0)),
            Err(e) => return Err(e),
        };
        let (mut valid, mut rejected) = (0, 0);
        for entry in entries {
            let path = entry?.path();
            if path.extension().is_none_or(|ext| ext != "cert") {
                continue;
            }
            let ok = fs::read_to_string(&path)
                .ok()
                .and_then(|text| validated(&text))
                .is_some();
            if ok {
                valid += 1;
            } else {
                rejected += 1;
            }
        }
        Ok((valid, rejected))
    }

    /// Removes every record in the store (missing directory is fine).
    ///
    /// # Errors
    ///
    /// Returns the first IO error encountered while deleting.
    pub fn clear(&self) -> io::Result<()> {
        match fs::remove_dir_all(&self.root) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

/// Level names are identifiers, but the record format is line-based, so
/// defend the serialization against anything that could smuggle a line
/// break or an empty field into the record.
fn level_name_fits(name: &str) -> bool {
    !name.is_empty() && !name.chars().any(|c| c.is_control())
}

/// A validating load of `text`: [`armada_recheck::parse_record`] (version,
/// checksum, every field), then the witness's structural self-checks
/// (counts, step encodings, sealed digest). The disk tier, the
/// memory tier and [`CertStore::audit`] all load through it.
pub(crate) fn validated(text: &str) -> Option<RefinementCert> {
    let cert = armada_recheck::parse_record(text).ok()?;
    cert.witness
        .validate(cert.product_nodes, cert.low_transitions, None)
        .is_ok()
        .then_some(cert)
}

/// `text` with its checksum line recomputed over the payload before it,
/// when its last line is a checksum line: what lets the
/// [`StoreShim::unchecked_loads`] mutant serve a damaged record that
/// still parses.
fn reseal(text: &str) -> Option<String> {
    let rest = text.strip_suffix('\n')?;
    let at = rest.rfind('\n')? + 1;
    rest[at..].strip_prefix("checksum ")?;
    let payload = &text[..at];
    let checksum = armada_recheck::record_checksum(payload);
    Some(format!("{payload}checksum {checksum:016x}\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_recheck::{parse_record, write_record, Extent, Witness};

    fn scratch_store(test: &str) -> CertStore {
        let root =
            std::env::temp_dir().join(format!("armada-cert-store-{}-{test}", std::process::id()));
        let store = CertStore::open(root);
        store.clear().expect("clean scratch dir");
        store
    }

    /// A structurally valid witness for a linear `nodes`-pair run with one
    /// micro-step per edge (so `low_transitions` = `nodes - 1`).
    fn witness_for(nodes: usize) -> Witness {
        if nodes == 0 {
            return Witness::empty();
        }
        let step = [armada_sm::Step::instr(1)];
        let mut b = armada_recheck::WitnessBuilder::new(false, 8, Vec::new(), 0xaaaa, 0xbbbb);
        for i in 1..nodes {
            b.push_node((i - 1) as u32, 0xaaaa + i as u64, 0xbbbb, &step, &[]);
        }
        b.seal(true, nodes as u64, (nodes - 1) as u64)
    }

    fn sample_cert() -> RefinementCert {
        RefinementCert {
            low: "Impl".into(),
            high: "Spec".into(),
            product_nodes: 5,
            low_transitions: 4,
            witness: witness_for(5),
        }
    }

    /// A record touching every field shape of the v5 layout: truncated
    /// status, multi-entry and identity renamings, a set table entry used
    /// twice, one- and two-step encodings with a two-byte tid varint and a
    /// zigzagged nondet value, and digests at both ends of `u64`. Not a
    /// valid witness — only the bytes matter here.
    fn golden_cert() -> RefinementCert {
        use armada_recheck::{Obligation, WitnessPair};
        RefinementCert {
            low: "Impl".into(),
            high: "Spec".into(),
            product_nodes: 3,
            low_transitions: 18_446_744_073_709_551_615,
            witness: Witness {
                subject: u64::MAX,
                complete: false,
                waves: 12,
                max_depth: 0,
                symmetry: true,
                max_buffer: 7,
                root_renaming: vec![3, 1, 2],
                pairs: vec![
                    WitnessPair {
                        low_fp: 0,
                        set_digest: u64::MAX,
                    },
                    WitnessPair {
                        low_fp: 0x0123_4567_89ab_cdef,
                        set_digest: 0xf,
                    },
                    WitnessPair {
                        low_fp: u64::MAX,
                        set_digest: u64::MAX,
                    },
                ],
                obligations: vec![
                    Obligation {
                        parent: 0,
                        renaming: Extent { start: 0, end: 0 },
                        steps: Extent { start: 0, end: 3 },
                    },
                    Obligation {
                        parent: 1,
                        renaming: Extent { start: 0, end: 3 },
                        steps: Extent { start: 3, end: 12 },
                    },
                ],
                // One drain by tid 1; then tid 300 (`ac 02`) with the
                // nondet math int -1 (zigzag 1), and a drain by tid 2.
                steps: vec![1, 1, 0, 2, 0xac, 0x02, 1, 1, 1, 1, 2, 0],
                renamings: vec![2, 1, 10],
                digest: 0x8000_0000_0000_0000,
            },
        }
    }

    const GOLDEN: &str = "\
armada-cert v5
low Impl
high Spec
product_nodes 3
low_transitions 18446744073709551615
witness subject ffffffffffffffff
witness status truncated waves 12 depth 0 symmetry 1 buffer 7
witness root 3,1,2
witness sets 2
set ffffffffffffffff
set 000000000000000f
witness pairs 3
pair 0000000000000000 0
pair 0123456789abcdef 1
pair ffffffffffffffff 0
witness obligations 2
obl 0 - 010100
obl 1 2,1,10 02ac02010101010200
witness digest 8000000000000000
checksum 34287ce96260df22
";

    #[test]
    fn serialized_bytes_are_pinned_for_every_field_shape() {
        let cert = golden_cert();
        let text = write_record(&cert);
        assert_eq!(text, GOLDEN);
        assert_eq!(parse_record(&text), Ok(cert));
    }

    #[test]
    fn round_trips_and_misses_cleanly() {
        let store = scratch_store("round_trip");
        let key = CertKey::compute("module text", "Impl", "Spec", &SimConfig::default());
        assert_eq!(store.load(&key, "Impl", "Spec"), None, "empty store");
        let cert = sample_cert();
        store.save(&key, &cert).expect("save");
        assert_eq!(store.load(&key, "Impl", "Spec"), Some(cert));
        // A record for the right key but the wrong pair is a miss.
        assert_eq!(store.load(&key, "Impl", "Other"), None);
        store.clear().expect("clear");
        assert_eq!(store.load(&key, "Impl", "Spec"), None, "cleared store");
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let store = scratch_store("byte_flips");
        let key = CertKey::compute("module text", "Impl", "Spec", &SimConfig::default());
        store.save(&key, &sample_cert()).expect("save");
        let pristine = std::fs::read(store.path_for(&key)).expect("read record");
        for index in 0..pristine.len() {
            let mut corrupt = pristine.clone();
            corrupt[index] ^= 0x04; // keep it printable-ish; any flip must do
            std::fs::write(store.path_for(&key), &corrupt).expect("write corrupt");
            assert_eq!(
                store.load(&key, "Impl", "Spec"),
                None,
                "flip at byte {index} must be rejected"
            );
        }
        std::fs::write(store.path_for(&key), &pristine).expect("restore");
        assert!(store.load(&key, "Impl", "Spec").is_some());
    }

    #[test]
    fn truncated_and_garbage_records_are_misses() {
        let store = scratch_store("garbage");
        let key = CertKey::compute("m", "A", "B", &SimConfig::default());
        let cert = RefinementCert {
            low: "A".into(),
            high: "B".into(),
            product_nodes: 1,
            low_transitions: 0,
            witness: witness_for(1),
        };
        store.save(&key, &cert).expect("save");
        let full = std::fs::read_to_string(store.path_for(&key)).expect("read");
        for cut in 0..full.len() {
            std::fs::write(store.path_for(&key), &full[..cut]).expect("truncate");
            assert_eq!(store.load(&key, "A", "B"), None, "truncated at {cut}");
        }
        std::fs::write(store.path_for(&key), "total garbage\n").expect("garbage");
        assert_eq!(store.load(&key, "A", "B"), None);
    }

    #[test]
    fn keys_separate_programs_pairs_and_bounds() {
        let config = SimConfig::default();
        let base = CertKey::compute("src", "A", "B", &config);
        assert_ne!(base, CertKey::compute("src2", "A", "B", &config));
        assert_ne!(base, CertKey::compute("src", "A", "C", &config));
        assert_ne!(base, CertKey::compute("src", "B", "A", &config));
        let tighter = SimConfig {
            max_nodes: 7,
            ..SimConfig::default()
        };
        assert_ne!(base, CertKey::compute("src", "A", "B", &tighter));
        // Reduction changes the cert's counters, so it is part of the key.
        let unreduced = SimConfig::default().with_reduction(false);
        assert_ne!(base, CertKey::compute("src", "A", "B", &unreduced));
        // So does symmetry reduction.
        let unsymmetric = SimConfig::default().with_symmetry(false);
        assert_ne!(base, CertKey::compute("src", "A", "B", &unsymmetric));
        // jobs and deadline must NOT affect the key: they never change
        // results, and sharing certs across them is the point.
        let parallel = SimConfig::default().with_jobs(8);
        assert_eq!(base, CertKey::compute("src", "A", "B", &parallel));
        let mut deadlined = SimConfig::default();
        deadlined.bounds = deadlined
            .bounds
            .with_deadline(std::time::Duration::from_secs(3600));
        assert_eq!(base, CertKey::compute("src", "A", "B", &deadlined));
    }

    #[test]
    fn shimmed_writes_and_reads_are_rejected_by_validation() {
        let store = scratch_store("shim_faults");
        let key = CertKey::compute("module text", "Impl", "Spec", &SimConfig::default());
        let cert = sample_cert();

        // A torn write lands a truncated record: the strict loader misses.
        let torn = store.clone().with_faults(StoreShim {
            write: Some(WriteFault::Torn),
            ..StoreShim::default()
        });
        torn.save(&key, &cert).expect("torn save");
        assert_eq!(store.load(&key, "Impl", "Spec"), None, "torn record");
        assert_eq!(store.audit().expect("audit"), (0, 1));

        // A bit-flipped write lands a record that still parses — only the
        // checksum rejects it.
        let flipped = store.clone().with_faults(StoreShim {
            write: Some(WriteFault::BitFlip),
            ..StoreShim::default()
        });
        flipped.save(&key, &cert).expect("flipped save");
        let text = std::fs::read_to_string(store.path_for(&key)).expect("read");
        assert!(
            reseal(&text).is_some_and(|text| parse_record(&text).is_ok()),
            "bit-flipped record must still parse (the checksum is the only defense)"
        );
        assert_eq!(store.load(&key, "Impl", "Spec"), None, "flipped record");

        // A clean save with a corrupting reader: the disk record is fine,
        // but this handle's loads miss; a pristine handle still hits.
        store.save(&key, &cert).expect("clean save");
        let bad_reader = store.clone().with_faults(StoreShim {
            read: Some(ReadFault::Corrupt),
            ..StoreShim::default()
        });
        assert_eq!(bad_reader.load(&key, "Impl", "Spec"), None);
        assert_eq!(store.load(&key, "Impl", "Spec"), Some(cert));
        assert_eq!(store.audit().expect("audit"), (1, 0));
    }

    #[test]
    fn unchecked_loads_mutant_serves_corrupt_certs() {
        // The mutant hook disables the checksum defense: a bit-flipped
        // record is then *served*, with silently different statistics —
        // the exact unsoundness the fuzzer's invariant exists to catch.
        let store = scratch_store("unchecked_mutant");
        let key = CertKey::compute("module text", "Impl", "Spec", &SimConfig::default());
        let cert = sample_cert();
        store
            .clone()
            .with_faults(StoreShim {
                write: Some(WriteFault::BitFlip),
                ..StoreShim::default()
            })
            .save(&key, &cert)
            .expect("flipped save");
        let mutant = store.clone().with_faults(StoreShim {
            unchecked_loads: true,
            ..StoreShim::default()
        });
        let served = mutant
            .load(&key, "Impl", "Spec")
            .expect("mutant serves the damaged record");
        assert_ne!(served, cert, "the served cert is corrupt");
        assert_eq!(
            store.load(&key, "Impl", "Spec"),
            None,
            "strict load rejects"
        );
    }

    #[test]
    fn corrupt_loads_are_audited_and_shared_across_clones() {
        let store = scratch_store("audit_counter");
        let key = CertKey::compute("module text", "Impl", "Spec", &SimConfig::default());
        let cert = sample_cert();
        assert_eq!(store.corrupt_loads(), 0);
        // Absent records are plain misses, not corruption.
        assert_eq!(store.load(&key, "Impl", "Spec"), None);
        assert_eq!(store.corrupt_loads(), 0);
        // A clean hit is not corruption either.
        store.save(&key, &cert).expect("save");
        assert!(store.load(&key, "Impl", "Spec").is_some());
        assert_eq!(store.corrupt_loads(), 0);
        // A shimmed corrupt read is audited — on the clone *and* on the
        // original handle (the counter is shared).
        let bad_reader = store.clone().with_faults(StoreShim {
            read: Some(ReadFault::Corrupt),
            ..StoreShim::default()
        });
        assert_eq!(bad_reader.load(&key, "Impl", "Spec"), None);
        assert_eq!(bad_reader.corrupt_loads(), 1);
        assert_eq!(store.corrupt_loads(), 1);
        // On-disk damage is audited too.
        std::fs::write(store.path_for(&key), "total garbage\n").expect("write");
        assert_eq!(store.load(&key, "Impl", "Spec"), None);
        assert_eq!(store.corrupt_loads(), 2);
    }

    #[test]
    fn save_rejects_unserializable_level_names() {
        let store = scratch_store("bad_names");
        let key = CertKey::compute("m", "A", "B", &SimConfig::default());
        let cert = RefinementCert {
            low: "A\nB".into(),
            high: "C".into(),
            product_nodes: 0,
            low_transitions: 0,
            witness: Witness::empty(),
        };
        assert!(store.save(&key, &cert).is_err());
        assert_eq!(store.load(&key, "A\nB", "C"), None);
    }
}
