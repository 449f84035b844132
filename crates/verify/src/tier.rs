//! A memory → disk certificate cache hierarchy.
//!
//! `armada serve` keeps one shared in-memory certificate tier in front of
//! the crash-safe disk store ([`crate::store`]): tier 1 answers repeat
//! requests without touching the filesystem, tier 2 survives restarts. The
//! same trust posture applies at both tiers — **a load either returns
//! exactly what a completed save wrote, or nothing** — so tier-1 entries
//! keep their *serialized, checksummed* record form and are re-validated on
//! every fetch, exactly like a disk read. A record that fails validation in
//! memory is evicted and audited, never served, and the lookup falls
//! through to tier 2 (whose own validation then applies); a tier-2 hit is
//! promoted into tier 1 only after it validated.
//!
//! Eviction is least-recently-used over a bounded entry count. All counters
//! (`mem_hits`, `disk_hits`, `misses`, `evictions`, promotion and
//! corruption audits) surface through the runtime telemetry layer's
//! [`CounterSet`], so the serve daemon's `--telemetry` output reports cache
//! behavior alongside the stage histograms.

use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use armada_runtime::CounterSet;

use crate::store::{validated, CertKey, CertStore, StoreShim};
use crate::RefinementCert;

/// One tier-1 entry: the serialized record (checksum line included) plus
/// the LRU clock tick of its last touch. The record is shared, so a fetch
/// clones a pointer under the lock and validates the bytes outside it.
struct MemEntry {
    record: Arc<str>,
    last_used: u64,
}

/// The shared in-memory tier: a bounded LRU map of serialized certificate
/// records. Interior mutability so one tier can sit behind an `Arc` and
/// serve every concurrent request of a daemon.
#[derive(Debug)]
pub struct MemTier {
    entries: Mutex<MemTierMap>,
    capacity: usize,
    mem_hits: AtomicU64,
    mem_corrupt: AtomicU64,
    evictions: AtomicU64,
    promotions: AtomicU64,
}

#[derive(Default)]
struct MemTierMap {
    map: HashMap<u64, MemEntry>,
    clock: u64,
}

impl std::fmt::Debug for MemTierMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemTierMap({} entries)", self.map.len())
    }
}

impl MemTier {
    /// A tier holding at most `capacity` records (0 clamps to 1).
    pub fn with_capacity(capacity: usize) -> Arc<MemTier> {
        Arc::new(MemTier {
            entries: Mutex::new(MemTierMap::default()),
            capacity: capacity.max(1),
            mem_hits: AtomicU64::new(0),
            mem_corrupt: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
        })
    }

    fn key_of(key: &CertKey) -> u64 {
        armada_runtime::fnv1a_64(key.as_hex().as_bytes())
    }

    /// Fetches and re-validates the record under `key` for the pair
    /// `low ⊑ high`. A checksum-invalid or mismatched entry is evicted and
    /// counted, never returned. The lock covers only the LRU touch and the
    /// pointer clone: validation runs outside it, so one large record does
    /// not stall every other lookup.
    fn fetch(&self, key: &CertKey, low: &str, high: &str) -> Option<RefinementCert> {
        let k = Self::key_of(key);
        let record = {
            let mut inner = self.entries.lock().expect("mem tier lock");
            inner.clock += 1;
            let clock = inner.clock;
            let entry = inner.map.get_mut(&k)?;
            entry.last_used = clock;
            Arc::clone(&entry.record)
        };
        match validated(&record).filter(|c| c.low == low && c.high == high) {
            Some(cert) => {
                self.mem_hits.fetch_add(1, Ordering::Relaxed);
                Some(cert)
            }
            None => {
                // In-memory rot (or a fuzz fate poking the tier): evict the
                // lying entry so the next lookup goes to disk.
                self.evict_if_current(k, &record);
                self.mem_corrupt.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Evicts the entry under `k` only if it still holds `record`: a
    /// validation that failed outside the lock must not evict a newer
    /// install that replaced the bytes it read.
    fn evict_if_current(&self, k: u64, record: &Arc<str>) {
        let mut inner = self.entries.lock().expect("mem tier lock");
        if inner
            .map
            .get(&k)
            .is_some_and(|e| Arc::ptr_eq(&e.record, record))
        {
            inner.map.remove(&k);
        }
    }

    /// Installs a validated serialized record under `key`, evicting the
    /// least-recently-used entry when over capacity.
    fn install(&self, key: &CertKey, record: Arc<str>, promoted: bool) {
        let k = Self::key_of(key);
        let mut inner = self.entries.lock().expect("mem tier lock");
        inner.clock += 1;
        let clock = inner.clock;
        let fresh = inner
            .map
            .insert(
                k,
                MemEntry {
                    record,
                    last_used: clock,
                },
            )
            .is_none();
        if fresh && promoted {
            self.promotions.fetch_add(1, Ordering::Relaxed);
        }
        while inner.map.len() > self.capacity {
            let Some((&victim, _)) = inner.map.iter().min_by_key(|(_, e)| e.last_used) else {
                break;
            };
            inner.map.remove(&victim);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Test-and-fuzz hook: overwrite the stored record bytes under `key`
    /// (models in-memory rot; the next fetch must evict, audit, and fall
    /// through to disk).
    pub fn corrupt_entry(&self, key: &CertKey) -> bool {
        let k = Self::key_of(key);
        let mut inner = self.entries.lock().expect("mem tier lock");
        match inner.map.get_mut(&k) {
            Some(entry) => {
                entry.record = entry
                    .record
                    .replace("product_nodes", "product_n0des")
                    .into();
                true
            }
            None => false,
        }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("mem tier lock").map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved).
    pub fn clear(&self) {
        self.entries.lock().expect("mem tier lock").map.clear();
    }
}

/// A two-tier certificate store: an optional shared [`MemTier`] in front of
/// an optional disk [`CertStore`]. Both absent is a store that always
/// misses; the pipeline treats every configuration uniformly.
#[derive(Debug, Clone)]
pub struct TieredStore {
    mem: Option<Arc<MemTier>>,
    disk: Option<CertStore>,
    misses: Arc<AtomicU64>,
    disk_hits: Arc<AtomicU64>,
}

impl TieredStore {
    /// Disk-only: the classic `--cert-cache` configuration.
    pub fn disk(store: CertStore) -> TieredStore {
        TieredStore {
            mem: None,
            disk: Some(store),
            misses: Arc::new(AtomicU64::new(0)),
            disk_hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Memory-only: a daemon without a persistent tier.
    pub fn mem_only(mem: Arc<MemTier>) -> TieredStore {
        TieredStore {
            mem: Some(mem),
            disk: None,
            misses: Arc::new(AtomicU64::new(0)),
            disk_hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The same store with `mem` as tier 1.
    pub fn with_mem(mut self, mem: Arc<MemTier>) -> TieredStore {
        self.mem = Some(mem);
        self
    }

    /// The disk tier, when present.
    pub fn disk_store(&self) -> Option<&CertStore> {
        self.disk.as_ref()
    }

    /// The disk tier's fault-shim configuration (defaults when there is no
    /// disk tier).
    pub fn shim(&self) -> StoreShim {
        self.disk.as_ref().map(|d| d.shim()).unwrap_or_default()
    }

    /// The same store with `shim`'s IO faults applied to the disk tier
    /// (fuzzing only; the memory tier has its own corruption hook).
    pub fn with_faults(mut self, shim: StoreShim) -> TieredStore {
        self.disk = self.disk.map(|d| d.with_faults(shim));
        self
    }

    /// Tier-aware load: memory first (validated), then disk (validated by
    /// [`CertStore::load`]), promoting disk hits into memory. `None` is a
    /// plain miss at both tiers.
    pub fn load(&self, key: &CertKey, low: &str, high: &str) -> Option<RefinementCert> {
        if let Some(mem) = &self.mem {
            if let Some(cert) = mem.fetch(key, low, high) {
                return Some(cert);
            }
        }
        if let Some(disk) = &self.disk {
            if let Some((cert, record)) = disk.load_record(key, low, high) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(mem) = &self.mem {
                    // Promote the record bytes that just validated, so tier
                    // 1 holds the same self-checking form tier 2 does.
                    mem.install(key, record.into(), true);
                }
                return Some(cert);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Write-through save: the certificate is serialized once, and the
    /// memory tier and the disk tier's atomic rename write share those
    /// bytes. A disk IO error does not poison the memory tier (the cert is
    /// valid either way), but is still reported to the caller.
    pub fn save(&self, key: &CertKey, cert: &RefinementCert) -> io::Result<()> {
        let record = armada_recheck::write_record(cert);
        if let Some(mem) = &self.mem {
            // Note: the *unshimmed* bytes. Write faults model disk sectors;
            // the memory tier is damaged only via its own hook.
            mem.install(key, record.as_str().into(), false);
        }
        match &self.disk {
            Some(disk) => disk.save_serialized(key, cert, &record),
            None => Ok(()),
        }
    }

    /// Corrupt loads audited across both tiers (disk rejections plus
    /// in-memory evict-on-validate events).
    pub fn corrupt_loads(&self) -> u64 {
        let disk = self.disk.as_ref().map_or(0, |d| d.corrupt_loads());
        let mem = self
            .mem
            .as_ref()
            .map_or(0, |m| m.mem_corrupt.load(Ordering::Relaxed));
        disk + mem
    }

    /// The hierarchy's counters, for the telemetry layer.
    pub fn counters(&self) -> CounterSet {
        let mut set = CounterSet::new();
        if let Some(mem) = &self.mem {
            set.add("cache.mem_hits", mem.mem_hits.load(Ordering::Relaxed));
            set.add("cache.mem_corrupt", mem.mem_corrupt.load(Ordering::Relaxed));
            set.add("cache.evictions", mem.evictions.load(Ordering::Relaxed));
            set.add("cache.promotions", mem.promotions.load(Ordering::Relaxed));
            set.add("cache.resident", mem.len() as u64);
        }
        set.add("cache.disk_hits", self.disk_hits.load(Ordering::Relaxed));
        set.add("cache.misses", self.misses.load(Ordering::Relaxed));
        if let Some(disk) = &self.disk {
            set.add("cache.disk_corrupt", disk.corrupt_loads());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimConfig;

    fn scratch(tag: &str) -> CertStore {
        let root = std::env::temp_dir().join(format!("armada-tier-{tag}-{}", std::process::id()));
        let store = CertStore::open(root);
        store.clear().expect("clean scratch");
        store
    }

    fn cert(n: usize) -> RefinementCert {
        // A structurally valid linear witness (one micro-step per edge) so
        // validating loads and promotions accept the record.
        let witness = if n == 0 {
            armada_recheck::Witness::empty()
        } else {
            let step = [armada_sm::Step::instr(1)];
            let mut b = armada_recheck::WitnessBuilder::new(
                false,
                8,
                Vec::new(),
                0x1000 + n as u64,
                0x2000,
            );
            for i in 1..n {
                b.push_node((i - 1) as u32, 0x1000 + (n + i) as u64, 0x2000, &step, &[]);
            }
            b.seal(true, n as u64, n.saturating_sub(1) as u64)
        };
        RefinementCert {
            low: "Impl".into(),
            high: "Spec".into(),
            product_nodes: n,
            low_transitions: n.saturating_sub(1),
            witness,
        }
    }

    fn key(n: usize) -> CertKey {
        CertKey::compute(
            &format!("module {n}"),
            "Impl",
            "Spec",
            &SimConfig::default(),
        )
    }

    #[test]
    fn memory_tier_fronts_disk_and_promotes_validated_hits() {
        let disk = scratch("promote");
        let mem = MemTier::with_capacity(8);
        let tiered = TieredStore::disk(disk.clone()).with_mem(mem.clone());

        // Cold: miss at both tiers.
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), None);
        assert_eq!(tiered.counters().get("cache.misses"), 1);

        // Save writes through; the next load is a memory hit.
        tiered.save(&key(1), &cert(1)).expect("save");
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), Some(cert(1)));
        assert_eq!(tiered.counters().get("cache.mem_hits"), 1);
        assert_eq!(tiered.counters().get("cache.disk_hits"), 0);

        // A fresh memory tier over the same disk: the first load is a disk
        // hit that promotes, the second a memory hit.
        let fresh = TieredStore::disk(disk).with_mem(MemTier::with_capacity(8));
        assert_eq!(fresh.load(&key(1), "Impl", "Spec"), Some(cert(1)));
        assert_eq!(fresh.counters().get("cache.disk_hits"), 1);
        assert_eq!(fresh.counters().get("cache.promotions"), 1);
        assert_eq!(fresh.load(&key(1), "Impl", "Spec"), Some(cert(1)));
        assert_eq!(fresh.counters().get("cache.mem_hits"), 1);
    }

    #[test]
    fn lru_eviction_is_bounded_and_counted() {
        let mem = MemTier::with_capacity(2);
        let tiered = TieredStore::mem_only(mem.clone());
        tiered.save(&key(1), &cert(1)).expect("save");
        tiered.save(&key(2), &cert(2)).expect("save");
        // Touch key 1 so key 2 is the LRU victim.
        assert!(tiered.load(&key(1), "Impl", "Spec").is_some());
        tiered.save(&key(3), &cert(3)).expect("save");
        assert_eq!(mem.len(), 2);
        assert_eq!(tiered.counters().get("cache.evictions"), 1);
        assert!(tiered.load(&key(1), "Impl", "Spec").is_some(), "kept");
        assert!(tiered.load(&key(3), "Impl", "Spec").is_some(), "kept");
        assert_eq!(tiered.load(&key(2), "Impl", "Spec"), None, "evicted");
    }

    #[test]
    fn corrupt_memory_entries_are_evicted_and_fall_through_to_disk() {
        let disk = scratch("mem_rot");
        let mem = MemTier::with_capacity(8);
        let tiered = TieredStore::disk(disk).with_mem(mem.clone());
        tiered.save(&key(1), &cert(1)).expect("save");
        assert!(mem.corrupt_entry(&key(1)), "entry resident");
        // The rotted record is never served: evicted, audited, and the
        // disk copy (still pristine) answers and re-promotes.
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), Some(cert(1)));
        assert_eq!(tiered.counters().get("cache.mem_corrupt"), 1);
        assert_eq!(tiered.counters().get("cache.disk_hits"), 1);
        assert!(tiered.corrupt_loads() >= 1);
        // Re-promoted: memory hit again.
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), Some(cert(1)));
        assert_eq!(tiered.counters().get("cache.mem_hits"), 1);
    }

    #[test]
    fn a_stale_failed_validation_never_evicts_a_newer_install() {
        let mem = MemTier::with_capacity(4);
        let tiered = TieredStore::mem_only(mem.clone());
        tiered.save(&key(1), &cert(2)).expect("save");
        assert!(mem.corrupt_entry(&key(1)));
        let k = MemTier::key_of(&key(1));
        // A fetch clones the rotted bytes and starts validating them...
        let stale = Arc::clone(&mem.entries.lock().unwrap().map[&k].record);
        assert!(validated(&stale).is_none());
        // ...while a save installs a fresh record under the same key.
        tiered.save(&key(1), &cert(2)).expect("save");
        mem.evict_if_current(k, &stale);
        assert_eq!(mem.len(), 1, "the newer install survives");
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), Some(cert(2)));
        // Evicting the current bytes does remove them.
        let current = Arc::clone(&mem.entries.lock().unwrap().map[&k].record);
        mem.evict_if_current(k, &current);
        assert!(mem.is_empty());
    }

    #[test]
    fn concurrent_fetches_never_serve_a_corrupt_cert() {
        const FETCHERS: usize = 3;
        const ROUNDS: u64 = 300;
        let mem = MemTier::with_capacity(4);
        let tiered = TieredStore::mem_only(mem.clone());
        let pristine = cert(6);
        tiered.save(&key(1), &pristine).expect("save");
        let done = std::sync::atomic::AtomicBool::new(false);
        let (served, refused) = std::thread::scope(|scope| {
            let fetchers: Vec<_> = (0..FETCHERS)
                .map(|_| {
                    scope.spawn(|| {
                        let (mut served, mut refused) = (0u64, 0u64);
                        while !done.load(Ordering::Relaxed) {
                            match tiered.load(&key(1), "Impl", "Spec") {
                                Some(cert) => {
                                    assert_eq!(cert, pristine, "a corrupt cert was served");
                                    served += 1;
                                }
                                None => refused += 1,
                            }
                        }
                        (served, refused)
                    })
                })
                .collect();
            for round in 0..ROUNDS {
                assert!(mem.corrupt_entry(&key(1)), "round {round}: entry resident");
                // Re-install only once some fetcher has rejected the rot, so
                // every round races a failed validation against a save.
                while mem.mem_corrupt.load(Ordering::Relaxed) <= round {
                    std::thread::yield_now();
                }
                tiered.save(&key(1), &pristine).expect("save");
            }
            done.store(true, Ordering::Relaxed);
            fetchers
                .into_iter()
                .map(|f| f.join().expect("fetcher"))
                .fold((0, 0), |(s, r), (ds, dr)| (s + ds, r + dr))
        });
        let counters = tiered.counters();
        assert_eq!(counters.get("cache.mem_hits"), served);
        // A refusal is either an audited rejection or a miss on a key that
        // a rejection evicted before the next install; nothing else fails.
        assert_eq!(counters.get("cache.misses"), refused);
        let rejections = counters.get("cache.mem_corrupt");
        assert!(
            (ROUNDS..=refused).contains(&rejections),
            "{rejections} of {refused}"
        );
        // The last install was pristine and nothing rotted it since.
        assert_eq!(tiered.load(&key(1), "Impl", "Spec"), Some(pristine));
    }

    #[test]
    fn mem_only_and_disk_only_configurations_behave() {
        let mem_only = TieredStore::mem_only(MemTier::with_capacity(4));
        assert_eq!(mem_only.load(&key(1), "Impl", "Spec"), None);
        mem_only.save(&key(1), &cert(1)).expect("save");
        assert_eq!(mem_only.load(&key(1), "Impl", "Spec"), Some(cert(1)));

        let disk_only = TieredStore::disk(scratch("disk_only"));
        disk_only.save(&key(2), &cert(2)).expect("save");
        assert_eq!(disk_only.load(&key(2), "Impl", "Spec"), Some(cert(2)));
        assert_eq!(disk_only.counters().get("cache.disk_hits"), 1);
    }
}
