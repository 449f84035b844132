//! Hash-consed state arena: dense ids + cached fingerprints for `ProgState`.
//!
//! Both hot engines — [`crate::explore`] and the refinement checker in
//! `armada-verify` — used to carry whole [`ProgState`] trees in their
//! frontiers and key their seen-sets on full states, which re-hashes and
//! deep-compares a thread-map/frame-stack/heap forest on every probe. A
//! [`StateArena`] interns each distinct state exactly once, hands out a
//! dense [`StateId`] (`u32`), and caches a 64-bit FNV-1a fingerprint per
//! state so that:
//!
//! - seen-set probes are an integer bucket lookup (full structural equality
//!   runs only on the rare fingerprint collision inside one bucket);
//! - frontiers, parent links, and traces carry 4-byte ids instead of
//!   cloned states;
//! - every interned state is stored behind an [`Arc`], so handing a state
//!   to a result set (terminal classes, counterexamples) is a refcount
//!   bump, not a deep clone.
//!
//! Ids are assigned in interning order, so an engine that interns states
//! in a deterministic order (the wave-commit order in `explore` and
//! `check_refinement`) gets deterministic ids for free — `jobs=1 ≡ jobs=N`
//! comparisons can compare arenas structurally.
//!
//! The arena stores exactly what callers pass it: under symmetry reduction
//! (`crate::canon`, on by default) the engines canonicalize each state
//! *before* fingerprinting and interning, so the stored representative
//! **is** the canonical state and every symmetric copy of it maps to the
//! same id. The arena itself needs no symmetry awareness — equality and
//! fingerprints over canonical forms do the collapsing.
//!
//! Fingerprints are computed by feeding the state's derived [`Hash`]
//! implementation into [`FpHasher`], an in-repo word-at-a-time
//! rotate-xor-multiply hasher (hermetic-build policy: no crates.io
//! hashers). Fingerprinting runs once per *generated edge* in the hot
//! engines, so it is built for speed: one multiply per hashed word, not
//! one per byte like FNV. Collisions cost only a structural equality check
//! inside the bucket — never correctness. A fingerprint depends only on the
//! state's content, so it is the same in every process: witnesses persist
//! low-state fingerprints and set digests computed over member
//! fingerprints, and `armada recheck` recomputes both in another process.
//! Any change to the `Hash` stream of `ProgState` (or to [`FpHasher`]) is
//! therefore a cert-format change; `tests/cert_fixtures.rs` pins it.

use crate::pager::{Pager, SpillSpec};
use crate::state::ProgState;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// A dense handle to an interned [`ProgState`] inside one [`StateArena`].
///
/// Ids are only meaningful relative to the arena that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The id as a usable index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Word-at-a-time fingerprint hasher: `state = (state <<< 5 ^ word) * K`
/// per 64-bit word, with the odd multiplier from splitmix64's increment.
/// Derived `Hash` impls on state types mostly emit fixed-width integer
/// writes, so each field costs one rotate-xor-multiply — roughly an order
/// of magnitude fewer operations than a byte-serial FNV over the same
/// state. Not cryptographic and not collision-free, and doesn't need to
/// be: arena buckets re-check structural equality on every fingerprint
/// hit.
#[derive(Default)]
pub struct FpHasher(u64);

const FP_K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FpHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(FP_K);
    }
}

impl Hasher for FpHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // Final avalanche so short inputs still spread across all 64 bits.
        let mut v = self.0;
        v ^= v >> 32;
        v = v.wrapping_mul(FP_K);
        v ^= v >> 29;
        v
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.mix(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Length tag so "ab" + "" and "a" + "b" diverge.
            self.mix(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
    #[inline]
    fn write_i128(&mut self, v: i128) {
        self.mix(v as u64);
        self.mix((v >> 64) as u64);
    }
}

/// Pass-through hasher for the fingerprint-keyed bucket map: the key *is*
/// already a 64-bit hash, so re-hashing it (std's SipHash default) would
/// only burn cycles on the hottest probe path.
#[derive(Default)]
pub struct FpIdentityHasher(u64);

impl Hasher for FpIdentityHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("fingerprint keys hash via write_u64");
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// A fingerprint bucket: the common case is exactly one id per
/// fingerprint, held inline so no per-state allocation happens; genuine
/// 64-bit collisions overflow into `rest` (empty `Vec`s don't allocate).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bucket {
    first: u32,
    rest: Vec<u32>,
}

impl Bucket {
    fn ids(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.rest.iter().copied())
    }
}

/// An arena of hash-consed program states.
///
/// # Spill mode
///
/// [`StateArena::enable_spill`] swaps the resident `Vec` of states for a
/// disk-backed [`Pager`] governed by a byte budget. Fingerprints and
/// buckets — 8 bytes + bucket entry per state — always stay resident, so
/// dedup *probes* stay an integer lookup; only the rare fingerprint *hit*
/// needs the state bytes for the equality check, and may fault a cold
/// page. In spill mode the faulting accessors (`get_arc_mut`,
/// `lookup_with_fp_mut`) must be used anywhere an evicted state could be
/// touched; the `&self` accessors panic on an evicted state rather than
/// silently guess. Both engines access the arena only from the
/// coordinator thread, so the `&mut` requirement costs nothing.
#[derive(Debug, Default)]
pub struct StateArena {
    /// Interned states, indexed by [`StateId`]; insertion order is the
    /// caller's interning order. Empty in spill mode.
    states: Vec<Arc<ProgState>>,
    /// Disk-backed store replacing `states` when spill is enabled.
    pager: Option<Pager>,
    /// Cached fingerprint per state, same indexing. Always resident.
    fps: Vec<u64>,
    /// Fingerprint → ids carrying it.
    buckets: HashMap<u64, Bucket, BuildHasherDefault<FpIdentityHasher>>,
}

impl Clone for StateArena {
    /// Clones the resident image. Spill mode is a run-scoped property of
    /// one engine invocation; cloning a spilled arena would alias its
    /// backing files, so it is not supported.
    fn clone(&self) -> StateArena {
        assert!(
            self.pager.is_none(),
            "cannot clone a spilled arena (backing files are run-scoped)"
        );
        StateArena {
            states: self.states.clone(),
            pager: None,
            fps: self.fps.clone(),
            buckets: self.buckets.clone(),
        }
    }
}

impl StateArena {
    /// An empty arena.
    pub fn new() -> StateArena {
        StateArena::default()
    }

    /// Switches this arena to disk-backed storage under `spec`'s budget.
    /// Must be called before anything is interned.
    ///
    /// # Errors
    ///
    /// Fails if the spill directory cannot be created.
    pub fn enable_spill(&mut self, spec: SpillSpec) -> std::io::Result<()> {
        assert!(self.is_empty(), "spill must be enabled on an empty arena");
        self.pager = Some(Pager::new(spec)?);
        Ok(())
    }

    /// The spill pager's event counters (`(label, value)` pairs), if
    /// spill is enabled — drained into stage telemetry by the engines.
    pub fn spill_counters(&self) -> Option<Vec<(&'static str, u64)>> {
        self.pager.as_ref().map(|p| p.counters())
    }

    /// Number of distinct interned states.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// The 64-bit fingerprint of a state (whether interned or not).
    pub fn fingerprint(state: &ProgState) -> u64 {
        let mut h = FpHasher::default();
        state.hash(&mut h);
        h.finish()
    }

    /// Interns a state, returning its id and whether it was fresh.
    pub fn intern(&mut self, state: ProgState) -> (StateId, bool) {
        let fp = StateArena::fingerprint(&state);
        self.intern_with_fp(fp, state)
    }

    /// Interns a state whose fingerprint the caller already computed
    /// (e.g. in a parallel expansion phase, off the commit path).
    pub fn intern_with_fp(&mut self, fp: u64, state: ProgState) -> (StateId, bool) {
        if let Some(id) = self.lookup_with_fp_mut(fp, &state) {
            return (id, false);
        }
        let id = u32::try_from(self.len()).expect("state arena overflow (> u32::MAX ids)");
        match &mut self.pager {
            Some(pager) => pager.push(Arc::new(state)),
            None => self.states.push(Arc::new(state)),
        }
        self.fps.push(fp);
        self.buckets
            .entry(fp)
            .and_modify(|b| b.rest.push(id))
            .or_insert(Bucket {
                first: id,
                rest: Vec::new(),
            });
        (StateId(id), true)
    }

    /// Looks up a state already interned, by precomputed fingerprint.
    /// Structural equality runs only on ids sharing the fingerprint.
    ///
    /// # Panics
    ///
    /// In spill mode, panics if a candidate state is evicted — use
    /// [`StateArena::lookup_with_fp_mut`] on paths that may touch cold
    /// pages.
    pub fn lookup_with_fp(&self, fp: u64, state: &ProgState) -> Option<StateId> {
        let bucket = self.buckets.get(&fp)?;
        bucket
            .ids()
            .find(|&id| *self.resident(id as usize) == *state)
            .map(StateId)
    }

    /// [`StateArena::lookup_with_fp`], faulting evicted candidates in
    /// from disk for the equality check (exact dedup is kept even past
    /// RAM: a fingerprint hit costs at most one page fault, never
    /// correctness).
    pub fn lookup_with_fp_mut(&mut self, fp: u64, state: &ProgState) -> Option<StateId> {
        let bucket = self.buckets.get(&fp)?;
        match &mut self.pager {
            None => bucket
                .ids()
                .find(|&id| *self.states[id as usize] == *state)
                .map(StateId),
            Some(pager) => {
                let ids: Vec<u32> = bucket.ids().collect();
                ids.into_iter()
                    .find(|&id| *pager.get(id as usize) == *state)
                    .map(StateId)
            }
        }
    }

    /// Looks up a state already interned.
    pub fn lookup(&self, state: &ProgState) -> Option<StateId> {
        self.lookup_with_fp(StateArena::fingerprint(state), state)
    }

    /// Resident access by raw index, for the `&self` accessors.
    fn resident(&self, index: usize) -> &ProgState {
        match &self.pager {
            None => &self.states[index],
            Some(_) => {
                panic!("state {index} may be evicted; use a faulting (&mut) accessor in spill mode")
            }
        }
    }

    /// The state behind an id.
    ///
    /// # Panics
    ///
    /// Panics in spill mode (the state may be evicted); use
    /// [`StateArena::get_arc_mut`] there.
    pub fn get(&self, id: StateId) -> &ProgState {
        self.resident(id.index())
    }

    /// A shared handle to the state behind an id (refcount bump, no clone).
    ///
    /// # Panics
    ///
    /// Panics in spill mode; use [`StateArena::get_arc_mut`] there.
    pub fn get_arc(&self, id: StateId) -> Arc<ProgState> {
        self.resident(id.index());
        Arc::clone(&self.states[id.index()])
    }

    /// A shared handle to the state behind an id, faulting its page in
    /// from disk if evicted.
    pub fn get_arc_mut(&mut self, id: StateId) -> Arc<ProgState> {
        match &mut self.pager {
            None => Arc::clone(&self.states[id.index()]),
            Some(pager) => pager.get(id.index()),
        }
    }

    /// The cached fingerprint of an interned state.
    pub fn fp_of(&self, id: StateId) -> u64 {
        self.fps[id.index()]
    }

    /// All interned states in id (interning) order.
    ///
    /// # Panics
    ///
    /// Panics in spill mode; iterate ids and use
    /// [`StateArena::get_arc_mut`] instead.
    pub fn iter(&self) -> impl Iterator<Item = &ProgState> {
        assert!(
            self.pager.is_none(),
            "cannot iterate a spilled arena by reference; fault states by id instead"
        );
        self.states.iter().map(|arc| arc.as_ref())
    }
}

/// Arenas compare by interned content *and order*: two deterministic
/// engines agree iff they interned the same states in the same order.
/// If either side spills, the comparison uses the resident fingerprint
/// sequence (64 bits per state, same interning order) — the states
/// themselves live on disk, and the identity gates additionally compare
/// rendered output.
impl PartialEq for StateArena {
    fn eq(&self, other: &StateArena) -> bool {
        if self.fps != other.fps {
            return false;
        }
        if self.pager.is_some() || other.pager.is_some() {
            return self.len() == other.len();
        }
        self.states.len() == other.states.len()
            && self.states.iter().zip(&other.states).all(|(a, b)| a == b)
    }
}

impl Eq for StateArena {}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::{check_module, parse_module};

    fn tiny_states() -> Vec<ProgState> {
        let module =
            parse_module("level L { var x: uint32; void main() { x := 1; x := 2; print(x); } }")
                .unwrap();
        let typed = check_module(&module).unwrap();
        let program = crate::lower(&typed, "L").unwrap();
        let exploration = crate::explore(&program, &crate::Bounds::small());
        exploration.arena.iter().cloned().collect()
    }

    #[test]
    fn intern_is_idempotent_and_dense() {
        let states = tiny_states();
        assert!(states.len() >= 3, "expected a few distinct states");
        let mut arena = StateArena::new();
        let mut ids = Vec::new();
        for state in &states {
            let (id, fresh) = arena.intern(state.clone());
            assert!(fresh);
            ids.push(id);
        }
        // Re-interning yields the same ids, marked stale.
        for (state, &expect) in states.iter().zip(&ids) {
            let (id, fresh) = arena.intern(state.clone());
            assert!(!fresh);
            assert_eq!(id, expect);
        }
        assert_eq!(arena.len(), states.len());
        // Ids are dense and ordered by interning.
        for (i, id) in ids.iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(arena.get(*id), &states[i]);
        }
    }

    #[test]
    fn fingerprints_cached_and_consistent() {
        let states = tiny_states();
        let mut arena = StateArena::new();
        for state in &states {
            let fp = StateArena::fingerprint(state);
            let (id, _) = arena.intern(state.clone());
            assert_eq!(arena.fp_of(id), fp);
            assert_eq!(arena.lookup_with_fp(fp, state), Some(id));
            assert_eq!(arena.lookup(state), Some(id));
        }
    }

    #[test]
    fn collision_buckets_fall_back_to_equality() {
        // Force two distinct states into one bucket by lying about the
        // fingerprint: structural equality must still keep them apart.
        let states = tiny_states();
        let (a, b) = (&states[0], &states[1]);
        assert_ne!(a, b);
        let mut arena = StateArena::new();
        let (ia, fresh_a) = arena.intern_with_fp(42, a.clone());
        let (ib, fresh_b) = arena.intern_with_fp(42, b.clone());
        assert!(fresh_a && fresh_b);
        assert_ne!(ia, ib);
        assert_eq!(arena.lookup_with_fp(42, a), Some(ia));
        assert_eq!(arena.lookup_with_fp(42, b), Some(ib));
        assert_eq!(arena.get(ia), a);
        assert_eq!(arena.get(ib), b);
    }

    #[test]
    fn spilled_arena_interns_dedups_and_faults_like_a_resident_one() {
        let states = tiny_states();
        let dir = std::env::temp_dir().join(format!("armada-arena-spill-{}", std::process::id()));
        let mut spec = crate::pager::SpillSpec::new(64, dir.clone());
        spec.page_states = 2;
        let mut spilled = StateArena::new();
        spilled.enable_spill(spec).unwrap();
        let mut resident = StateArena::new();
        for state in &states {
            let (a, fresh_a) = spilled.intern(state.clone());
            let (b, fresh_b) = resident.intern(state.clone());
            assert_eq!(a, b);
            assert_eq!(fresh_a, fresh_b);
        }
        // Dedup still works across evicted pages (exact, via page fault).
        for (state, i) in states.iter().zip(0u32..) {
            let (id, fresh) = spilled.intern(state.clone());
            assert!(!fresh);
            assert_eq!(id, StateId(i));
            assert_eq!(spilled.get_arc_mut(id).as_ref(), state);
            assert_eq!(spilled.fp_of(id), resident.fp_of(id));
        }
        assert_eq!(spilled, resident);
        let counters = spilled.spill_counters().unwrap();
        let get = |label: &str| counters.iter().find(|(l, _)| *l == label).unwrap().1;
        assert!(get("spill.evictions") > 0, "64-byte cap must evict");
        assert!(get("spill.misses") > 0, "dedup probes must fault");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn arena_equality_is_order_sensitive() {
        let states = tiny_states();
        let mut fwd = StateArena::new();
        let mut rev = StateArena::new();
        for state in &states {
            fwd.intern(state.clone());
        }
        for state in states.iter().rev() {
            rev.intern(state.clone());
        }
        let mut fwd2 = StateArena::new();
        for state in &states {
            fwd2.intern(state.clone());
        }
        assert_eq!(fwd, fwd2);
        assert_ne!(fwd, rev);
    }
}
