//! Disk-backed page store for interned states: the mechanism behind
//! `--mem-cap`.
//!
//! The state arena is append-only — a state, once interned, is never
//! mutated — so paging is *write-on-seal*: states accumulate in a tail
//! page, and when the page fills it is encoded ([`crate::codec`]), fitted
//! with the checksum + temp-file + rename discipline of
//! [`crate::codec::write_atomic`], and written out exactly once. From then
//! on the in-memory copy is redundant: **eviction is free** (drop the
//! `Vec` of `Arc`s) and a **fault** is a read + checksum verify + decode.
//! A page whose checksum fails on fault is discarded unread — corrupt
//! bytes are never decoded, never served — and re-read from disk once
//! (the torn-read case); a page that fails twice aborts the run loudly
//! rather than risk a wrong verdict.
//!
//! Residency is governed by a byte budget over *encoded* page sizes (the
//! stable, measurable proxy for state footprint): when resident bytes
//! exceed the cap, least-recently-touched sealed pages are dropped until
//! the budget holds. The tail page is always resident (it has no file
//! yet), so the effective floor is one page.
//!
//! Hit/miss/evict tallies accumulate in a
//! [`armada_runtime::telemetry::CounterSet`]-compatible shape via
//! [`Pager::counters`], which the engines merge into their stage
//! telemetry. Counts depend on access order and therefore on `jobs`;
//! like the histograms, they are stderr-only diagnostics, never part of a
//! byte-identity surface.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::codec::{self, Dec, Enc};
use crate::state::ProgState;

/// Default number of states per page: small enough that a tiny `--mem-cap`
/// on a toy subject still seals several pages, large enough to amortize
/// the per-file cost on real subjects.
pub const DEFAULT_PAGE_STATES: usize = 64;

/// Configuration for a spill-backed arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillSpec {
    /// Resident-byte budget (encoded sizes) for sealed pages.
    pub mem_cap: u64,
    /// Directory to spill under; the pager creates a unique run
    /// subdirectory inside it and removes it on drop.
    pub dir: PathBuf,
    /// States per page.
    pub page_states: usize,
    /// Fault-injection hook (fuzzing only): the first faulted page read
    /// observes deliberately corrupted bytes, exercising the
    /// checksum-reject + re-read path.
    pub corrupt_first_read: bool,
}

impl SpillSpec {
    /// A spec with the default page size and no fault injection.
    pub fn new(mem_cap: u64, dir: PathBuf) -> SpillSpec {
        SpillSpec {
            mem_cap,
            dir,
            page_states: DEFAULT_PAGE_STATES,
            corrupt_first_read: false,
        }
    }
}

/// One page of interned states.
struct Page {
    /// Resident states, id order within the page; `None` once evicted.
    states: Option<Vec<Arc<ProgState>>>,
    /// Encoded payload size; exact once sealed.
    bytes: u64,
    /// LRU clock value of the last access.
    last_touch: u64,
    /// Whether the page file has been written.
    sealed: bool,
}

/// Monotonic source of unique pager run-directory names (several pagers
/// can coexist in one process: parallel recipes, tests).
static RUN_SEQ: AtomicU64 = AtomicU64::new(0);

/// The disk-backed page store. Indices are assigned densely in push
/// order, matching the owning arena's [`crate::arena::StateId`]s.
pub struct Pager {
    spec: SpillSpec,
    /// Unique per-run spill directory (inside `spec.dir`).
    run_dir: PathBuf,
    pages: Vec<Page>,
    /// States pushed into the not-yet-full tail page, with their encoded
    /// bytes (kept so sealing concatenates instead of re-encoding and the
    /// tail counts exactly against the budget).
    tail: Vec<(Arc<ProgState>, Vec<u8>)>,
    tail_bytes: u64,
    len: usize,
    /// Encoded bytes currently resident (sealed resident pages + tail).
    resident_bytes: u64,
    clock: u64,
    // Monotonic event tallies, drained into telemetry by the engines.
    hits: u64,
    misses: u64,
    evictions: u64,
    corrupt_rejected: u64,
    peak_resident: u64,
    injected_corruption: bool,
}

impl Pager {
    /// Creates the pager and its unique spill directory.
    pub fn new(spec: SpillSpec) -> std::io::Result<Pager> {
        let seq = RUN_SEQ.fetch_add(1, Ordering::Relaxed);
        let run_dir = spec.dir.join(format!("pg-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&run_dir)?;
        Ok(Pager {
            spec,
            run_dir,
            pages: Vec::new(),
            tail: Vec::new(),
            tail_bytes: 0,
            len: 0,
            resident_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            corrupt_rejected: 0,
            peak_resident: 0,
            injected_corruption: false,
        })
    }

    /// Number of states pushed so far.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The spec this pager was built from.
    pub fn spec(&self) -> &SpillSpec {
        &self.spec
    }

    /// Total encoded bytes across all pages — the run's "footprint" in
    /// the same units the cap governs.
    pub fn total_bytes(&self) -> u64 {
        self.pages.iter().map(|p| p.bytes).sum::<u64>() + self.tail_bytes
    }

    fn page_path(&self, page: usize) -> PathBuf {
        self.run_dir.join(format!("page-{page:08}.bin"))
    }

    /// Appends a state; its index is the pre-push [`Pager::len`].
    pub fn push(&mut self, state: Arc<ProgState>) {
        let bytes = codec::state_to_bytes(&state);
        self.tail_bytes += bytes.len() as u64;
        self.resident_bytes += bytes.len() as u64;
        self.peak_resident = self.peak_resident.max(self.resident_bytes);
        self.tail.push((state, bytes));
        self.len += 1;
        if self.tail.len() >= self.spec.page_states {
            self.seal_tail();
            self.enforce_cap();
        }
    }

    /// Seals the tail into a page file. The states stay resident (the
    /// page is hot until the cap says otherwise).
    fn seal_tail(&mut self) {
        let page_ix = self.pages.len();
        let mut enc = Enc::new();
        enc.len_of(self.tail.len());
        for (_, bytes) in &self.tail {
            enc.bytes(bytes);
        }
        let payload = enc.into_bytes();
        let path = self.page_path(page_ix);
        codec::write_atomic(&path, &payload)
            .unwrap_or_else(|err| panic!("spill: writing page {} failed: {err}", path.display()));
        let states: Vec<Arc<ProgState>> = self.tail.drain(..).map(|(s, _)| s).collect();
        self.resident_bytes -= self.tail_bytes;
        self.resident_bytes += payload.len() as u64;
        self.pages.push(Page {
            states: Some(states),
            bytes: payload.len() as u64,
            last_touch: self.clock,
            sealed: true,
        });
        self.tail_bytes = 0;
        self.peak_resident = self.peak_resident.max(self.resident_bytes);
    }

    /// Evicts least-recently-touched sealed pages until the resident
    /// budget holds (the tail never evicts — it has no file yet).
    fn enforce_cap(&mut self) {
        while self.resident_bytes > self.spec.mem_cap {
            let victim = self
                .pages
                .iter()
                .enumerate()
                .filter(|(_, p)| p.sealed && p.states.is_some())
                .min_by_key(|(_, p)| p.last_touch)
                .map(|(i, _)| i);
            let Some(victim) = victim else { break };
            let page = &mut self.pages[victim];
            page.states = None;
            self.resident_bytes -= page.bytes;
            self.evictions += 1;
        }
    }

    /// The state at `index`, faulting its page in from disk if evicted.
    ///
    /// # Panics
    ///
    /// Panics if the page file fails verification on two consecutive
    /// reads — serving (or silently skipping) corrupt states is never an
    /// option for a verifier.
    pub fn get(&mut self, index: usize) -> Arc<ProgState> {
        let page_ix = index / self.spec.page_states;
        let offset = index % self.spec.page_states;
        self.clock += 1;
        if page_ix >= self.pages.len() {
            // Tail page.
            self.hits += 1;
            return Arc::clone(&self.tail[offset].0);
        }
        self.pages[page_ix].last_touch = self.clock;
        if let Some(states) = &self.pages[page_ix].states {
            self.hits += 1;
            return Arc::clone(&states[offset]);
        }
        self.misses += 1;
        let states = self.fault(page_ix);
        let state = Arc::clone(&states[offset]);
        self.resident_bytes += self.pages[page_ix].bytes;
        self.peak_resident = self.peak_resident.max(self.resident_bytes);
        self.pages[page_ix].states = Some(states);
        self.enforce_cap();
        state
    }

    /// Reads, verifies, and decodes one evicted page.
    fn fault(&mut self, page_ix: usize) -> Vec<Arc<ProgState>> {
        let path = self.page_path(page_ix);
        let payload = match self.read_page(&path) {
            Ok(payload) => payload,
            Err(first) => {
                // A failed verify may be a transient torn read; the page
                // file itself was written atomically, so one re-read is
                // the honest retry. The corrupt bytes are dropped without
                // ever reaching the decoder.
                self.corrupt_rejected += 1;
                codec::read_verified(&path).unwrap_or_else(|second| {
                    panic!(
                        "spill: page {} failed verification twice \
                         (first: {first}; second: {second})",
                        path.display()
                    )
                })
            }
        };
        let mut dec = Dec::new(&payload);
        let count = dec.len_of().expect("verified page has a count");
        let mut states = Vec::with_capacity(count);
        for _ in 0..count {
            let bytes = dec.bytes().expect("verified page has records");
            let state = codec::state_from_bytes(&bytes).expect("verified page decodes");
            states.push(Arc::new(state));
        }
        states
    }

    /// One verified page read, with the fuzzing hook: when armed, the
    /// first fault observes a corrupted copy of the file's bytes.
    fn read_page(&mut self, path: &Path) -> Result<Vec<u8>, String> {
        if self.spec.corrupt_first_read && !self.injected_corruption {
            self.injected_corruption = true;
            let mut raw =
                std::fs::read(path).map_err(|err| format!("{}: {err}", path.display()))?;
            if let Some(byte) = raw.last_mut() {
                *byte ^= 0x01;
            }
            return Err(codec::verify_bytes(&raw, path)
                .err()
                .unwrap_or_else(|| "injected corruption went undetected".to_string()));
        }
        codec::read_verified(path)
    }

    /// Drains the event tallies as `(label, value)` pairs (zero-valued
    /// entries included for the headline counters, so reports always show
    /// the full set).
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("spill.hits", self.hits),
            ("spill.misses", self.misses),
            ("spill.evictions", self.evictions),
            ("spill.pages", self.pages.len() as u64),
            ("spill.corrupt_rejected", self.corrupt_rejected),
            ("spill.resident_bytes", self.resident_bytes),
            ("spill.peak_resident_bytes", self.peak_resident),
            ("spill.total_bytes", self.total_bytes()),
        ]
    }
}

impl Drop for Pager {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

impl std::fmt::Debug for Pager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pager")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("resident_bytes", &self.resident_bytes)
            .field("mem_cap", &self.spec.mem_cap)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Bounds};
    use crate::lower::lower;

    fn states() -> Vec<Arc<ProgState>> {
        let module = armada_lang::parse_module(
            "level L { var x: uint32; void main() { while (x < 40) { x := x + 1; } print(x); } }",
        )
        .unwrap();
        let typed = armada_lang::check_module(&module).unwrap();
        let program = lower(&typed, "L").unwrap();
        let result = explore(&program, &Bounds::small());
        (0..result.arena.len())
            .map(|i| result.arena.get_arc(crate::arena::StateId(i as u32)))
            .collect()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("armada-pager-{tag}-{}", std::process::id()))
    }

    #[test]
    fn pages_spill_fault_and_round_trip() {
        let states = states();
        assert!(states.len() >= 40, "need enough states to fill pages");
        let mut spec = SpillSpec::new(256, tmp_dir("rt"));
        spec.page_states = 8;
        let mut pager = Pager::new(spec).unwrap();
        for s in &states {
            pager.push(Arc::clone(s));
        }
        assert_eq!(pager.len(), states.len());
        let evictions = pager.counters()[2].1;
        assert!(evictions > 0, "a 256-byte cap must evict");
        // Every state reads back equal, resident or not.
        for (i, s) in states.iter().enumerate() {
            assert_eq!(pager.get(i).as_ref(), s.as_ref());
        }
        let misses = pager.counters()[1].1;
        assert!(misses > 0, "cold pages must fault");
    }

    #[test]
    fn corrupt_read_is_rejected_then_served_from_a_clean_reread() {
        let states = states();
        let mut spec = SpillSpec::new(1, tmp_dir("corrupt"));
        spec.page_states = 4;
        spec.corrupt_first_read = true;
        let mut pager = Pager::new(spec).unwrap();
        for s in &states {
            pager.push(Arc::clone(s));
        }
        // Touch an evicted page: the first read is corrupted, rejected by
        // the checksum, and the re-read serves the true bytes.
        assert_eq!(pager.get(0).as_ref(), states[0].as_ref());
        let counters = pager.counters();
        let rejected = counters
            .iter()
            .find(|(l, _)| *l == "spill.corrupt_rejected")
            .unwrap()
            .1;
        assert_eq!(rejected, 1);
    }

    #[test]
    fn spill_directory_is_removed_on_drop() {
        let dir = tmp_dir("cleanup");
        let run_dir;
        {
            let mut spec = SpillSpec::new(1, dir.clone());
            spec.page_states = 2;
            let mut pager = Pager::new(spec).unwrap();
            run_dir = pager.run_dir.clone();
            for s in states().iter().take(10) {
                pager.push(Arc::clone(s));
            }
            assert!(run_dir.exists());
        }
        assert!(!run_dir.exists(), "drop must clean the spill dir");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
