//! Independent replay checker for refinement certificates.
//!
//! The engine in `crates/verify` explores a product state space and, on
//! success, emits a [`Witness`]: the simulation relation as interned
//! canonical state pairs (low-state fingerprint, match-set digest), one
//! chained obligation hash per product edge binding the low micro-steps and
//! the commuted symmetry renamings, and the truncation point. This crate is
//! the matching *trusted core* in the Foundational-VeriFast sense: a small,
//! separately compiled checker that validates a certificate in O(witness)
//! — never re-exploring — so a warm cache hit or a served verdict carries a
//! proof instead of a checksum.
//!
//! Independence posture:
//!
//! * This crate depends on `armada-lang` and `armada-sm` only — the parser
//!   and the spec *semantics* (step function, canonicalizer, fingerprints).
//!   It never links the exploration engine (`armada-verify`), whose search,
//!   subsumption, and match-set machinery are exactly the code a witness
//!   exists to double-check.
//! * The record parser here is written independently of the store's
//!   serializer (`armada-verify/src/store.rs`). The duplication is the
//!   point: a parser bug in the tool cannot hide from the checker.
//! * The *hash definitions* ([`subject_digest`], [`pair_digest`],
//!   [`obligation_hash`], [`Witness::compute_digest`], [`record_checksum`])
//!   live here and are reused by the emitter and the store, so tool and
//!   checker agree on the format by construction while the checker owns
//!   its meaning. All of them are one hash, [`WordDigest`], which is the
//!   state-fingerprint hasher the replay already trusts.
//!
//! What `recheck` does and does not establish (see DESIGN.md,
//! "Certificates and recheck"):
//!
//! * **Validated against the semantics** (with `--source`): the low-side
//!   product tree is real — every obligation's recorded micro-steps are
//!   enabled, step by step, from its parent's canonical state under
//!   `armada-sm`'s transition relation, the canonicalized successor's
//!   fingerprint matches the recorded pair, and the composed symmetry
//!   renamings match the recorded ones.
//! * **Validated structurally** (always): the subject binding, the
//!   obligation hash chain, the witness digest, and every count
//!   cross-check (pairs = product nodes, micro-steps sum to the low
//!   transition count).
//! * **Attested, not replayed**: the high-side match sets enter each pair
//!   as a digest over member-state fingerprints. Re-deciding the relation
//!   would *be* re-exploration; the digests bind what the engine claimed,
//!   they do not re-establish it.

use std::fmt;
use std::hash::Hasher;

use armada_sm::arena::FpHasher;
use armada_sm::codec::{self, Dec, Enc};
use armada_sm::{
    initial_state, lower, try_step, Canonicalizer, ProgState, Program, StateArena, Step, Tid,
};

/// The witness format's one hash, as an explicit incremental hasher so
/// chained digests have one unambiguous word-level definition shared by
/// emitter and checker. It is [`FpHasher`], the word-at-a-time
/// rotate-xor-multiply behind the state fingerprints a witness carries, so
/// the checker trusts a single hash: each 64-bit word costs one multiply,
/// where a byte-serial FNV paid one per byte. The state starts from a
/// fixed nonzero word, so leading zero words still move it.
pub struct WordDigest(FpHasher);

/// The word every [`WordDigest`] absorbs first.
const DIGEST_SEED: u64 = 0x6172_6d61_6461_7634; // "armadav4"

impl Default for WordDigest {
    fn default() -> Self {
        WordDigest::new()
    }
}

impl WordDigest {
    pub fn new() -> WordDigest {
        let mut h = WordDigest(FpHasher::default());
        h.u64(DIGEST_SEED);
        h
    }

    /// Absorbs `bytes` eight at a time; a short tail is zero-padded and
    /// tagged with its length.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut WordDigest {
        self.0.write(bytes);
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut WordDigest {
        self.0.write_u64(v);
        self
    }

    /// Absorbs `s` behind its length, so adjacent strings cannot trade
    /// bytes.
    pub fn str(&mut self, s: &str) -> &mut WordDigest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The checksum on a record's last line, over the whole payload before
/// it (every line up to and including the one before `checksum`). The
/// store's writer and parser and this crate's [`parse_record`] all call
/// it, so the one definition cannot drift between them.
pub fn record_checksum(payload: &str) -> u64 {
    WordDigest::new().str(payload).finish()
}

/// Binds a witness to its subject: `content`, the content the check
/// covers (the level pair's span-free [`armada_sm::pair_content`], which
/// takes in the module's refinement relation), plus the level names. A
/// witness spliced from another level pair, another relation, or another
/// module whose pair differs fails this binding; one whose pair differs
/// only in comments, layout or unrelated levels was checked against the
/// same programs and passes.
pub fn subject_digest(content: &str, low: &str, high: &str) -> u64 {
    WordDigest::new()
        .str("armada-subject v4")
        .str(content)
        .str(low)
        .str(high)
        .finish()
}

/// Digest of one simulation pair: the canonical low state's fingerprint
/// and the digest of its matched high-state set.
pub fn pair_digest(low_fp: u64, set_digest: u64) -> u64 {
    WordDigest::new().u64(low_fp).u64(set_digest).finish()
}

/// Digest of a match set, over its member states' content fingerprints in
/// sorted order. Sorting is what makes the digest identical at any job
/// count: interned state *ids* depend on exploration interleaving,
/// fingerprints do not.
pub fn set_digest(member_fps_sorted: &[u64]) -> u64 {
    let mut h = WordDigest::new();
    h.u64(member_fps_sorted.len() as u64);
    for &fp in member_fps_sorted {
        h.u64(fp);
    }
    h.finish()
}

/// Digest of a canonical→original tid renaming (empty = identity).
pub fn renaming_digest(map: &[Tid]) -> u64 {
    let mut h = WordDigest::new();
    h.u64(map.len() as u64);
    for &t in map {
        h.u64(t);
    }
    h.finish()
}

/// Seed of the obligation hash chain. Deliberately independent of the
/// subject digest so a certificate can be emitted by the engine (which
/// does not compute the subject) and bound to its subject afterwards.
pub fn chain_seed() -> u64 {
    WordDigest::new().str("armada-witness v2").finish()
}

/// Digest of one obligation's encoded low steps, behind their length.
pub fn steps_digest(encoded: &[u8]) -> u64 {
    WordDigest::new()
        .u64(encoded.len() as u64)
        .bytes(encoded)
        .finish()
}

/// One link of the obligation chain: the previous hash, both pair digests,
/// the micro-step count, the digest of the encoded low steps, and the
/// digest of the commuted symmetry renaming.
pub fn obligation_hash(
    prev: u64,
    parent_digest: u64,
    child_digest: u64,
    micro: u32,
    steps_digest: u64,
    renaming: &[Tid],
) -> u64 {
    WordDigest::new()
        .u64(prev)
        .u64(parent_digest)
        .u64(child_digest)
        .u64(micro as u64)
        .u64(steps_digest)
        .u64(renaming_digest(renaming))
        .finish()
}

/// One simulation pair: a canonical low product state and the attested
/// digest of its matched high states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessPair {
    /// Content fingerprint of the canonical low state.
    pub low_fp: u64,
    /// [`set_digest`] of the matched high states.
    pub set_digest: u64,
}

/// A half-open `start..end` range into one of a [`Witness`]'s arenas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Extent {
    pub start: u32,
    pub end: u32,
}

impl Extent {
    /// The extent `start..end`, if both offsets fit `u32` (an arena under
    /// 4 GiB).
    pub fn new(start: usize, end: usize) -> Option<Extent> {
        Some(Extent {
            start: start.try_into().ok()?,
            end: end.try_into().ok()?,
        })
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// One proof obligation: the product edge that admitted pair `index + 1`.
/// A fixed-size record; its variable-length fields live in the witness's
/// arenas ([`Witness::steps_of`], [`Witness::renaming_of`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obligation {
    /// Pair index of the edge's source node (the child is implicit: pair
    /// `index + 1`, in admission order).
    pub parent: u32,
    /// Micro-steps on this (possibly fused) edge.
    pub micro: u32,
    /// The low micro-steps, codec-encoded, in the *parent's canonical
    /// coordinates* — exactly what [`replay`] feeds the step function: a
    /// range of [`Witness::steps`].
    pub steps: Extent,
    /// The child pair's canonical→original tid map (empty = identity),
    /// the commuted symmetry renaming validated during replay: a range of
    /// [`Witness::renamings`].
    pub renaming: Extent,
    /// [`steps_digest`] of the step encoding.
    pub steps_digest: u64,
    /// Chained [`obligation_hash`] up to and including this link.
    pub hash: u64,
}

/// The machine-checkable refinement witness carried by a certificate.
///
/// One flat layout: the fixed-size [`Obligation`] records index into two
/// shared arenas, so a witness of any size is a handful of allocations.
/// Every producer (the builder and both record parsers) lays the arenas out
/// in obligation order, so equal witnesses compare equal field by field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Witness {
    /// [`subject_digest`] binding; 0 until [`Witness::bind_subject`].
    pub subject: u64,
    /// False when the search stopped early (budget/deadline); the engine
    /// only certifies complete runs today, but the format records the
    /// truncation point so a partial witness is never mistaken for a
    /// finished one.
    pub complete: bool,
    /// Wave count at the truncation point.
    pub waves: u64,
    /// Maximum micro-depth over all pairs.
    pub max_depth: u64,
    /// Whether symmetry canonicalization was configured; replay mirrors
    /// the engine's gate (flag AND the program's own observability gate).
    pub symmetry: bool,
    /// The store-buffer bound the steps were enumerated under.
    pub max_buffer: u64,
    /// Canonical→original tid map of the initial pair (empty = identity).
    pub root_renaming: Vec<Tid>,
    /// Simulation pairs, in node-admission order (index 0 is the root).
    pub pairs: Vec<WitnessPair>,
    /// One obligation per non-root pair, in admission order.
    pub obligations: Vec<Obligation>,
    /// Arena of every obligation's step encoding, back to back in
    /// obligation order.
    pub steps: Vec<u8>,
    /// Arena of every obligation's renaming, back to back in obligation
    /// order.
    pub renamings: Vec<Tid>,
    /// [`Witness::compute_digest`] over everything above.
    pub digest: u64,
}

impl Witness {
    /// Obligation `index`'s step encoding and renaming; `None` when either
    /// extent lies outside its arena.
    fn slices(&self, index: usize) -> Option<(&[u8], &[Tid])> {
        let obl = &self.obligations[index];
        Some((
            self.steps.get(obl.steps.range())?,
            self.renamings.get(obl.renaming.range())?,
        ))
    }

    /// Obligation `index`'s codec-encoded micro-steps.
    ///
    /// # Panics
    ///
    /// If `index` is out of range or its extent lies outside the arena
    /// (never for a witness built or parsed here).
    pub fn steps_of(&self, index: usize) -> &[u8] {
        self.slices(index)
            .expect("obligation extents lie in the arenas")
            .0
    }

    /// Obligation `index`'s renaming (empty = identity).
    ///
    /// # Panics
    ///
    /// As [`Witness::steps_of`].
    pub fn renaming_of(&self, index: usize) -> &[Tid] {
        self.slices(index)
            .expect("obligation extents lie in the arenas")
            .1
    }

    /// The digest the `digest` field must equal.
    pub fn compute_digest(&self) -> u64 {
        self.digest_over(
            self.pairs
                .iter()
                .map(|p| pair_digest(p.low_fp, p.set_digest)),
        )
    }

    /// [`Witness::compute_digest`] given every pair's [`pair_digest`] in
    /// order.
    fn digest_over(&self, pair_digests: impl Iterator<Item = u64>) -> u64 {
        let mut h = WordDigest::new();
        h.str("armada-witness-digest v2")
            .u64(self.subject)
            .u64(self.complete as u64)
            .u64(self.waves)
            .u64(self.max_depth)
            .u64(self.symmetry as u64)
            .u64(self.max_buffer)
            .u64(renaming_digest(&self.root_renaming))
            .u64(self.pairs.len() as u64);
        for digest in pair_digests {
            h.u64(digest);
        }
        h.u64(self.obligations.len() as u64);
        h.u64(self.obligations.last().map_or(chain_seed(), |o| o.hash));
        h.finish()
    }

    /// Binds the witness to its subject and reseals the digest. The
    /// obligation chain is subject-independent by design, so late binding
    /// (the pipeline computes the subject; the engine does not) changes
    /// only the binding and the digest.
    pub fn bind_subject(&mut self, subject: u64) {
        self.subject = subject;
        self.digest = self.compute_digest();
    }

    /// A sealed witness attesting nothing: zero pairs, zero obligations.
    /// Only consistent with a certificate claiming zero product nodes
    /// (strategy-only placeholder certs).
    pub fn empty() -> Witness {
        let mut w = Witness {
            subject: 0,
            complete: true,
            waves: 0,
            max_depth: 0,
            symmetry: false,
            max_buffer: 0,
            root_renaming: Vec::new(),
            pairs: Vec::new(),
            obligations: Vec::new(),
            steps: Vec::new(),
            renamings: Vec::new(),
            digest: 0,
        };
        w.digest = w.compute_digest();
        w
    }

    /// Structural validation: subject binding (when expected), digest,
    /// count cross-checks against the certificate's claimed totals, and
    /// the full obligation hash chain. O(witness); no semantics.
    ///
    /// # Errors
    ///
    /// The first failing check, naming the failing obligation where one is
    /// at fault.
    pub fn validate(
        &self,
        product_nodes: usize,
        low_transitions: usize,
        expected_subject: Option<u64>,
    ) -> Result<(), RecheckError> {
        if let Some(want) = expected_subject {
            if self.subject != want {
                return Err(RecheckError::SubjectMismatch {
                    want,
                    got: self.subject,
                });
            }
        }
        // Each pair digest enters the sealed digest once and the chain once
        // or more: hash each pair once.
        let pair_digests: Vec<u64> = self
            .pairs
            .iter()
            .map(|p| pair_digest(p.low_fp, p.set_digest))
            .collect();
        let want = self.digest_over(pair_digests.iter().copied());
        if self.digest != want {
            return Err(RecheckError::DigestMismatch {
                want,
                got: self.digest,
            });
        }
        if self.pairs.len() != product_nodes {
            return Err(RecheckError::PairCount {
                pairs: self.pairs.len(),
                product_nodes,
            });
        }
        if self.obligations.len() != self.pairs.len().saturating_sub(1) {
            return Err(RecheckError::ObligationCount {
                obligations: self.obligations.len(),
                pairs: self.pairs.len(),
            });
        }
        // The certificate's transition count covers *every* explored micro
        // edge, including successors the antichain subsumed; the witness
        // records only the admitted simulation tree. So the sum bounds the
        // claim from below — a witness claiming more edges than the check
        // counted is forged.
        let micro_sum: u64 = self.obligations.iter().map(|o| o.micro as u64).sum();
        if micro_sum > low_transitions as u64 {
            return Err(RecheckError::TransitionCount {
                sum: micro_sum,
                low_transitions,
            });
        }
        let mut chain = chain_seed();
        for (index, obl) in self.obligations.iter().enumerate() {
            let child = index + 1;
            let fail = |reason: String| RecheckError::Obligation { index, reason };
            if obl.parent as usize > index {
                return Err(fail(format!(
                    "parent {} is not an earlier pair than child {child}",
                    obl.parent
                )));
            }
            if obl.micro == 0 {
                return Err(fail("zero micro-steps".to_string()));
            }
            let (steps, renaming) = self
                .slices(index)
                .ok_or_else(|| fail("extent outside the witness arenas".to_string()))?;
            if obl.steps_digest != steps_digest(steps) {
                return Err(fail(
                    "step digest does not cover the recorded steps".to_string(),
                ));
            }
            let count = count_steps(steps).map_err(|e| fail(format!("undecodable steps: {e}")))?;
            if count != obl.micro as usize {
                return Err(fail(format!(
                    "micro count {} disagrees with {count} recorded steps",
                    obl.micro
                )));
            }
            chain = obligation_hash(
                chain,
                pair_digests[obl.parent as usize],
                pair_digests[child],
                obl.micro,
                obl.steps_digest,
                renaming,
            );
            if chain != obl.hash {
                return Err(RecheckError::ObligationHash {
                    index,
                    want: chain,
                    got: obl.hash,
                });
            }
        }
        Ok(())
    }
}

/// Incremental witness construction in node-admission order; used by the
/// emitter (and by tests that need small valid witnesses). The chain and
/// digests are computed here so an emitted witness validates by
/// construction.
#[derive(Debug, Default)]
pub struct WitnessBuilder {
    symmetry: bool,
    max_buffer: u64,
    root_renaming: Vec<Tid>,
    pairs: Vec<WitnessPair>,
    obligations: Vec<Obligation>,
    steps: Enc,
    renamings: Vec<Tid>,
    chain: u64,
}

/// Why an arena extent cannot be recorded.
const ARENA_LIMIT: &str = "witness arenas are limited to u32 offsets";

impl WitnessBuilder {
    /// Starts a witness whose root pair is `(root_fp, root_set)` reached
    /// under `root_renaming` (empty = identity).
    pub fn new(
        symmetry: bool,
        max_buffer: u64,
        root_renaming: Vec<Tid>,
        root_fp: u64,
        root_set: u64,
    ) -> WitnessBuilder {
        WitnessBuilder {
            symmetry,
            max_buffer,
            root_renaming,
            pairs: vec![WitnessPair {
                low_fp: root_fp,
                set_digest: root_set,
            }],
            chain: chain_seed(),
            ..WitnessBuilder::default()
        }
    }

    /// Admits the next pair via an edge from `parent` whose micro-steps are
    /// `steps`, given in the parent's canonical coordinates; they are
    /// encoded straight into the witness's step arena.
    ///
    /// # Panics
    ///
    /// If an arena outgrows `u32` offsets (a witness of over 4 GiB).
    pub fn push_node(
        &mut self,
        parent: u32,
        low_fp: u64,
        set: u64,
        steps: &[Step],
        renaming: &[Tid],
    ) {
        let child = self.pairs.len();
        self.pairs.push(WitnessPair {
            low_fp,
            set_digest: set,
        });
        let start = self.steps.len();
        encode_steps_into(&mut self.steps, steps);
        let steps_digest = steps_digest(&self.steps.as_bytes()[start..]);
        let renamed = self.renamings.len();
        self.renamings.extend_from_slice(renaming);
        let micro = u32::try_from(steps.len()).expect("an edge's micro-steps fit u32");
        let parent_pair = self.pairs[parent as usize];
        self.chain = obligation_hash(
            self.chain,
            pair_digest(parent_pair.low_fp, parent_pair.set_digest),
            pair_digest(self.pairs[child].low_fp, self.pairs[child].set_digest),
            micro,
            steps_digest,
            renaming,
        );
        self.obligations.push(Obligation {
            parent,
            micro,
            steps: Extent::new(start, self.steps.len()).expect(ARENA_LIMIT),
            renaming: Extent::new(renamed, self.renamings.len()).expect(ARENA_LIMIT),
            steps_digest,
            hash: self.chain,
        });
    }

    /// Seals the witness (unbound; see [`Witness::bind_subject`]).
    pub fn seal(self, complete: bool, waves: u64, max_depth: u64) -> Witness {
        let mut w = Witness {
            subject: 0,
            complete,
            waves,
            max_depth,
            symmetry: self.symmetry,
            max_buffer: self.max_buffer,
            root_renaming: self.root_renaming,
            pairs: self.pairs,
            obligations: self.obligations,
            steps: self.steps.into_bytes(),
            renamings: self.renamings,
            digest: 0,
        };
        w.digest = w.compute_digest();
        w
    }
}

/// Why a certificate was rejected. Every variant names what failed —
/// obligation-level failures carry the obligation's index — so a rejection
/// is actionable without re-running anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecheckError {
    /// The record text could not be parsed (line number and reason).
    Parse { line: usize, reason: String },
    /// The record's trailing checksum does not cover its payload.
    Checksum { want: u64, got: u64 },
    /// The witness is bound to a different subject (spliced certificate).
    SubjectMismatch { want: u64, got: u64 },
    /// The sealed witness digest does not cover the witness contents.
    DigestMismatch { want: u64, got: u64 },
    /// Pair count disagrees with the certificate's product-node count.
    PairCount { pairs: usize, product_nodes: usize },
    /// Obligation count disagrees with the pair count.
    ObligationCount { obligations: usize, pairs: usize },
    /// Micro-step sum exceeds the certificate's transition count.
    TransitionCount { sum: u64, low_transitions: usize },
    /// Obligation `index` is malformed (reason says how).
    Obligation { index: usize, reason: String },
    /// Obligation `index`'s chained hash does not recompute.
    ObligationHash { index: usize, want: u64, got: u64 },
    /// The module source does not produce the witnessed initial pair.
    Root { reason: String },
    /// The module source could not be parsed/checked/lowered for replay.
    Subject { reason: String },
}

impl fmt::Display for RecheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecheckError::Parse { line, reason } => {
                write!(f, "record line {line}: {reason}")
            }
            RecheckError::Checksum { want, got } => {
                write!(
                    f,
                    "record checksum {got:016x} does not match payload {want:016x}"
                )
            }
            RecheckError::SubjectMismatch { want, got } => {
                write!(
                    f,
                    "witness subject {got:016x} is not this subject {want:016x}"
                )
            }
            RecheckError::DigestMismatch { want, got } => {
                write!(
                    f,
                    "witness digest {got:016x} does not recompute ({want:016x})"
                )
            }
            RecheckError::PairCount {
                pairs,
                product_nodes,
            } => write!(
                f,
                "{pairs} simulation pairs for a certificate claiming {product_nodes} product nodes"
            ),
            RecheckError::ObligationCount { obligations, pairs } => write!(
                f,
                "{obligations} obligations cannot justify {pairs} pairs (want pairs - 1)"
            ),
            RecheckError::TransitionCount {
                sum,
                low_transitions,
            } => write!(
                f,
                "obligation micro-steps sum to {sum}, certificate only counted {low_transitions}"
            ),
            RecheckError::Obligation { index, reason } => {
                write!(f, "obligation {index}: {reason}")
            }
            RecheckError::ObligationHash { index, want, got } => write!(
                f,
                "obligation {index}: chained hash {got:016x} does not recompute ({want:016x})"
            ),
            RecheckError::Root { reason } => write!(f, "initial pair: {reason}"),
            RecheckError::Subject { reason } => write!(f, "subject: {reason}"),
        }
    }
}

/// A parsed certificate record: the claimed verdict plus its witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    pub low: String,
    pub high: String,
    pub product_nodes: usize,
    pub low_transitions: usize,
    pub witness: Witness,
}

/// Magic first line this checker accepts (format v4, whose digests and
/// checksum hash 64-bit words; v3 records hashed bytes with FNV-1a, v2
/// records bound the whole module source and v1 records predate
/// witnesses, and all are rejected naming their version).
pub const RECORD_MAGIC: &str = "armada-cert v4";

fn parse_err(line: usize, reason: impl Into<String>) -> RecheckError {
    RecheckError::Parse {
        line,
        reason: reason.into(),
    }
}

fn parse_hex64(line: usize, text: &str, what: &str) -> Result<u64, RecheckError> {
    u64::from_str_radix(text, 16).map_err(|_| parse_err(line, format!("bad {what} `{text}`")))
}

/// Parses a renaming onto the end of `arena`, returning its extent.
fn parse_renaming(line: usize, text: &str, arena: &mut Vec<Tid>) -> Result<Extent, RecheckError> {
    let start = arena.len();
    if text != "-" {
        for t in text.split(',') {
            let tid = t
                .parse::<Tid>()
                .map_err(|_| parse_err(line, format!("bad renaming entry `{t}`")))?;
            arena.push(tid);
        }
    }
    arena_extent(line, start, arena.len())
}

/// The extent `start..end` of a parsed field, or a parse error if the
/// arena outgrew `u32` offsets.
fn arena_extent(line: usize, start: usize, end: usize) -> Result<Extent, RecheckError> {
    Extent::new(start, end).ok_or_else(|| parse_err(line, ARENA_LIMIT))
}

fn renaming_text(map: &[Tid]) -> String {
    let mut out = String::new();
    push_renaming(&mut out, map);
    out
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";

/// Appends `v` as exactly 16 lowercase hex digits (`{v:016x}`).
fn push_hex16(out: &mut String, v: u64) {
    for shift in (0..16).rev() {
        out.push(HEX_DIGITS[(v >> (shift * 4)) as usize & 0xf] as char);
    }
}

/// Appends `v` in decimal (`{v}`).
fn push_dec(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    for &d in &digits[at..] {
        out.push(d as char);
    }
}

/// Appends a renaming as comma-separated tids, or `-` for the identity.
fn push_renaming(out: &mut String, map: &[Tid]) {
    if map.is_empty() {
        out.push('-');
        return;
    }
    for (i, &t) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_dec(out, t);
    }
}

/// Appends a step encoding as lowercase hex pairs, or `-` when empty.
fn push_steps(out: &mut String, bytes: &[u8]) {
    if bytes.is_empty() {
        out.push('-');
        return;
    }
    for &b in bytes {
        out.push(HEX_DIGITS[(b >> 4) as usize] as char);
        out.push(HEX_DIGITS[(b & 0xf) as usize] as char);
    }
}

/// Parses a step encoding onto the end of `arena`, returning its extent.
fn hex_to_bytes(line: usize, text: &str, arena: &mut Vec<u8>) -> Result<Extent, RecheckError> {
    let start = arena.len();
    if text != "-" {
        if !text.len().is_multiple_of(2) {
            return Err(parse_err(line, "odd-length step encoding"));
        }
        for pair in text.as_bytes().chunks_exact(2) {
            let byte = std::str::from_utf8(pair)
                .ok()
                .and_then(|pair| u8::from_str_radix(pair, 16).ok())
                .ok_or_else(|| parse_err(line, "non-hex step encoding"))?;
            arena.push(byte);
        }
    }
    arena_extent(line, start, arena.len())
}

/// Renders the witness section exactly as the store serializes it; shared
/// so emitter-side serialization and this crate's tests cannot drift.
pub fn witness_lines(w: &Witness) -> String {
    let mut out = String::new();
    write_witness_lines(w, &mut out);
    out
}

/// Appends the witness section of a record to `out` in one pass, reserving
/// its size up front (the store renders whole records into one buffer).
pub fn write_witness_lines(w: &Witness, out: &mut String) {
    // A reservation, not a bound: 39 bytes per pair line; per obligation
    // line 42 fixed bytes, up to 20 digits of parent and micro count, a
    // `-` or up to 21 bytes per renaming entry, and a `-` or two hex
    // digits per step byte.
    let obligations = 64 * w.obligations.len() + 21 * w.renamings.len() + 2 * w.steps.len();
    out.reserve(256 + 39 * w.pairs.len() + obligations);
    out.push_str("witness subject ");
    push_hex16(out, w.subject);
    out.push_str("\nwitness status ");
    out.push_str(if w.complete { "complete" } else { "truncated" });
    out.push_str(" waves ");
    push_dec(out, w.waves);
    out.push_str(" depth ");
    push_dec(out, w.max_depth);
    out.push_str(" symmetry ");
    out.push(if w.symmetry { '1' } else { '0' });
    out.push_str(" buffer ");
    push_dec(out, w.max_buffer);
    out.push_str("\nwitness root ");
    push_renaming(out, &w.root_renaming);
    out.push_str("\nwitness pairs ");
    push_dec(out, w.pairs.len() as u64);
    out.push('\n');
    for pair in &w.pairs {
        out.push_str("pair ");
        push_hex16(out, pair.low_fp);
        out.push(' ');
        push_hex16(out, pair.set_digest);
        out.push('\n');
    }
    out.push_str("witness obligations ");
    push_dec(out, w.obligations.len() as u64);
    out.push('\n');
    for (index, obl) in w.obligations.iter().enumerate() {
        out.push_str("obl ");
        push_dec(out, obl.parent as u64);
        out.push(' ');
        push_dec(out, obl.micro as u64);
        out.push(' ');
        push_renaming(out, w.renaming_of(index));
        out.push(' ');
        push_hex16(out, obl.steps_digest);
        out.push(' ');
        push_hex16(out, obl.hash);
        out.push(' ');
        push_steps(out, w.steps_of(index));
        out.push('\n');
    }
    out.push_str("witness digest ");
    push_hex16(out, w.digest);
    out.push('\n');
}

/// Parses a full certificate record, validating its format version and
/// then the trailing checksum. This parser is deliberately independent of
/// the store's (see the module docs).
///
/// # Errors
///
/// [`RecheckError::Parse`] naming the first offending line, or
/// [`RecheckError::Checksum`].
pub fn parse_record(text: &str) -> Result<CertRecord, RecheckError> {
    // The version comes first: another format's checksum is another
    // function, so a v3 record (FNV-1a) is named as v3, not as damaged.
    let magic = text.lines().next().unwrap_or_default();
    if magic != RECORD_MAGIC {
        let reason = match magic.strip_prefix("armada-cert ") {
            Some(version) => format!(
                "record format {version} is not supported (this checker reads {}); \
                 re-verify to write it again",
                &RECORD_MAGIC["armada-cert ".len()..]
            ),
            None => format!("bad magic `{magic}`"),
        };
        return Err(parse_err(1, reason));
    }
    let rest = text
        .strip_suffix('\n')
        .ok_or_else(|| parse_err(0, "record does not end in a newline"))?;
    let checksum_at = rest
        .rfind('\n')
        .ok_or_else(|| parse_err(0, "record has no checksum line"))?
        + 1;
    let (payload_text, checksum_line) = (&text[..checksum_at], &rest[checksum_at..]);
    let stored = checksum_line
        .strip_prefix("checksum ")
        .ok_or_else(|| parse_err(0, "record has no checksum line"))?;
    let stored = parse_hex64(0, stored, "checksum")?;
    let computed = record_checksum(payload_text);
    if stored != computed {
        return Err(RecheckError::Checksum {
            want: computed,
            got: stored,
        });
    }

    let mut lines = payload_text.lines().enumerate().peekable();
    let mut next = |want: &str| -> Result<(usize, String), RecheckError> {
        let (i, line) = lines
            .next()
            .ok_or_else(|| parse_err(0, format!("record ends before `{want}`")))?;
        let line_no = i + 1;
        let rest = line
            .strip_prefix(want)
            .ok_or_else(|| parse_err(line_no, format!("expected `{want}…`, got `{line}`")))?;
        Ok((line_no, rest.to_string()))
    };

    next("")?; // the magic, checked above
    let (_, low) = next("low ")?;
    let (_, high) = next("high ")?;
    let (ln, pn) = next("product_nodes ")?;
    let product_nodes: usize = pn
        .parse()
        .map_err(|_| parse_err(ln, format!("bad product_nodes `{pn}`")))?;
    let (ln, lt) = next("low_transitions ")?;
    let low_transitions: usize = lt
        .parse()
        .map_err(|_| parse_err(ln, format!("bad low_transitions `{lt}`")))?;
    let (ln, subject) = next("witness subject ")?;
    let subject = parse_hex64(ln, &subject, "subject")?;
    let (ln, status) = next("witness status ")?;
    let words: Vec<&str> = status.split(' ').collect();
    let [state, "waves", waves, "depth", depth, "symmetry", symmetry, "buffer", buffer] =
        words.as_slice()
    else {
        return Err(parse_err(ln, format!("bad status line `{status}`")));
    };
    let complete = match *state {
        "complete" => true,
        "truncated" => false,
        other => return Err(parse_err(ln, format!("bad status `{other}`"))),
    };
    let waves: u64 = waves.parse().map_err(|_| parse_err(ln, "bad wave count"))?;
    let max_depth: u64 = depth.parse().map_err(|_| parse_err(ln, "bad depth"))?;
    let symmetry = match *symmetry {
        "0" => false,
        "1" => true,
        _ => return Err(parse_err(ln, "bad symmetry flag")),
    };
    let max_buffer: u64 = buffer
        .parse()
        .map_err(|_| parse_err(ln, "bad buffer bound"))?;
    let (ln, root) = next("witness root ")?;
    let mut root_renaming = Vec::new();
    parse_renaming(ln, &root, &mut root_renaming)?;
    let (ln, count) = next("witness pairs ")?;
    let pair_count: usize = count.parse().map_err(|_| parse_err(ln, "bad pair count"))?;
    let mut pairs = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        let (ln, pair) = next("pair ")?;
        let (fp, set) = pair
            .split_once(' ')
            .ok_or_else(|| parse_err(ln, "pair line wants two digests"))?;
        pairs.push(WitnessPair {
            low_fp: parse_hex64(ln, fp, "low fingerprint")?,
            set_digest: parse_hex64(ln, set, "set digest")?,
        });
    }
    let (ln, count) = next("witness obligations ")?;
    let obl_count: usize = count
        .parse()
        .map_err(|_| parse_err(ln, "bad obligation count"))?;
    let mut obligations = Vec::with_capacity(obl_count);
    let (mut steps_arena, mut renamings) = (Vec::new(), Vec::new());
    for _ in 0..obl_count {
        let (ln, obl) = next("obl ")?;
        let fields: Vec<&str> = obl.split(' ').collect();
        let [parent, micro, renaming, steps_digest, hash, steps] = fields.as_slice() else {
            return Err(parse_err(ln, "obligation line wants six fields"));
        };
        obligations.push(Obligation {
            parent: parent
                .parse()
                .map_err(|_| parse_err(ln, "bad parent index"))?,
            micro: micro
                .parse()
                .map_err(|_| parse_err(ln, "bad micro count"))?,
            renaming: parse_renaming(ln, renaming, &mut renamings)?,
            steps_digest: parse_hex64(ln, steps_digest, "step digest")?,
            hash: parse_hex64(ln, hash, "obligation hash")?,
            steps: hex_to_bytes(ln, steps, &mut steps_arena)?,
        });
    }
    let (ln, digest) = next("witness digest ")?;
    let digest = parse_hex64(ln, &digest, "witness digest")?;
    if let Some((i, line)) = lines.next() {
        return Err(parse_err(i + 1, format!("trailing line `{line}`")));
    }
    Ok(CertRecord {
        low,
        high,
        product_nodes,
        low_transitions,
        witness: Witness {
            subject,
            complete,
            waves,
            max_depth,
            symmetry,
            max_buffer,
            root_renaming,
            pairs,
            obligations,
            steps: steps_arena,
            renamings,
            digest,
        },
    })
}

/// Encodes an edge's micro-steps onto the end of `e`: the step count,
/// then each step's codec encoding.
fn encode_steps_into(e: &mut Enc, steps: &[Step]) {
    e.len_of(steps.len());
    for step in steps {
        codec::enc_step(e, step);
    }
}

/// Decodes an edge's micro-steps.
///
/// # Errors
///
/// A message describing the malformation.
pub fn decode_steps(bytes: &[u8]) -> Result<Vec<Step>, String> {
    let mut steps = Vec::new();
    decode_steps_into(bytes, &mut steps)?;
    Ok(steps)
}

/// [`decode_steps`] onto the end of `steps`, for a caller that reuses one
/// buffer.
fn decode_steps_into(bytes: &[u8], steps: &mut Vec<Step>) -> Result<(), String> {
    walk_steps(bytes, |d| {
        steps.push(codec::dec_step(d)?);
        Ok(())
    })
    .map(drop)
}

/// The number of micro-steps an encoding holds, accepting exactly what
/// [`decode_steps`] accepts without building the steps.
fn count_steps(bytes: &[u8]) -> Result<usize, String> {
    walk_steps(bytes, codec::skip_step)
}

/// Reads an edge's step count and then each step through `step`, and
/// returns the count; the one framing behind [`decode_steps`] and
/// [`count_steps`].
fn walk_steps(
    bytes: &[u8],
    mut step: impl FnMut(&mut Dec) -> Result<(), codec::CodecError>,
) -> Result<usize, String> {
    let mut d = Dec::new(bytes);
    let count = d.len_of().map_err(|e| e.to_string())?;
    if count > bytes.len() {
        return Err(format!("step count {count} exceeds encoding size"));
    }
    for _ in 0..count {
        step(&mut d).map_err(|e| e.to_string())?;
    }
    if !d.at_end() {
        return Err("trailing bytes after steps".to_string());
    }
    Ok(count)
}

/// Composes a parent's canonical→original tid map with one more inverse
/// renaming (the checker's copy of the engine's composition — duplicated
/// on purpose, see the module docs). `None`/empty encodes the identity.
fn compose_renaming(parent: &[Tid], inverse: Option<Vec<Tid>>, thread_count: usize) -> Vec<Tid> {
    if parent.is_empty() && inverse.is_none() {
        return Vec::new();
    }
    let mut map = Vec::with_capacity(thread_count);
    for canonical in 1..=thread_count as Tid {
        let pre = match &inverse {
            Some(inv) => inv
                .get(canonical as usize - 1)
                .copied()
                .unwrap_or(canonical),
            None => canonical,
        };
        let original = if parent.is_empty() {
            pre
        } else {
            parent.get(pre as usize - 1).copied().unwrap_or(pre)
        };
        map.push(original);
    }
    if map.iter().enumerate().all(|(i, &t)| t == i as Tid + 1) {
        Vec::new()
    } else {
        map
    }
}

/// Replays the witness's low-side product tree against the spec semantics:
/// every obligation's recorded steps must be enabled from its parent's
/// canonical state, and the canonicalized successor must have the recorded
/// fingerprint and renaming. O(witness) — each edge is replayed exactly
/// once; nothing is searched.
///
/// # Errors
///
/// The first failing obligation (or the root pair).
pub fn replay(witness: &Witness, low: &Program) -> Result<(), RecheckError> {
    if witness.pairs.is_empty() {
        // An empty witness attests nothing; structural validation has
        // already required product_nodes == 0.
        return Ok(());
    }
    let init = initial_state(low).map_err(|e| RecheckError::Root {
        reason: format!("initial state: {e}"),
    })?;
    let canonicalizer = Canonicalizer::new(low);
    let canon = (witness.symmetry && canonicalizer.enabled()).then_some(&canonicalizer);
    let (init, init_inverse) = match canon {
        Some(c) => c.canonicalize(init),
        None => (init, None),
    };
    let root_renaming = compose_renaming(&[], init_inverse, init.threads.len());
    if root_renaming != witness.root_renaming {
        return Err(RecheckError::Root {
            reason: format!(
                "root renaming `{}` does not replay (`{}`)",
                renaming_text(&witness.root_renaming),
                renaming_text(&root_renaming)
            ),
        });
    }
    let init_fp = StateArena::fingerprint(&init);
    if init_fp != witness.pairs[0].low_fp {
        return Err(RecheckError::Root {
            reason: format!(
                "initial state fingerprint {init_fp:016x} is not the witnessed {:016x}",
                witness.pairs[0].low_fp
            ),
        });
    }
    let max_buffer = witness.max_buffer as usize;
    // Each pair's state is kept only until the last obligation that steps
    // from it, so replay holds the tree's frontier, not every state.
    let mut last_child: Vec<Option<usize>> = vec![None; witness.pairs.len()];
    for (index, obl) in witness.obligations.iter().enumerate() {
        if let Some(last) = last_child.get_mut(obl.parent as usize) {
            *last = Some(index);
        }
    }
    let mut states: Vec<Option<ProgState>> = Vec::with_capacity(witness.pairs.len());
    states.push(Some(init));
    let mut steps = Vec::new();
    for (index, obl) in witness.obligations.iter().enumerate() {
        let child = index + 1;
        let fail = |reason: String| RecheckError::Obligation { index, reason };
        let (encoded, recorded) = witness
            .slices(index)
            .ok_or_else(|| fail("extent outside the witness arenas".to_string()))?;
        steps.clear();
        decode_steps_into(encoded, &mut steps)
            .map_err(|e| fail(format!("undecodable steps: {e}")))?;
        let parent_index = obl.parent as usize;
        let parent = states
            .get(parent_index)
            .and_then(Option::as_ref)
            .ok_or_else(|| fail(format!("parent {parent_index} is not an earlier pair")))?;
        // Step from the borrowed parent: the first micro-step's result is
        // the first owned state, so no parent is ever cloned just to be
        // stepped (a zero-step obligation yields the parent itself).
        let mut stepped: Option<ProgState> = None;
        for (k, step) in steps.iter().enumerate() {
            let from = stepped.as_ref().unwrap_or(parent);
            stepped = Some(try_step(low, from, step, max_buffer).ok_or_else(|| {
                fail(format!(
                    "micro-step {k} (t{}) is not enabled in the parent's state",
                    step.tid
                ))
            })?);
        }
        let state = stepped.unwrap_or_else(|| parent.clone());
        if last_child[parent_index] == Some(index) {
            states[parent_index] = None;
        }
        let (state, inverse) = match canon {
            Some(c) => c.canonicalize(state),
            None => (state, None),
        };
        let parent_renaming: &[Tid] = if obl.parent == 0 {
            &witness.root_renaming
        } else {
            witness.renaming_of(parent_index - 1)
        };
        let renaming = compose_renaming(parent_renaming, inverse, state.threads.len());
        if renaming != recorded {
            return Err(fail(format!(
                "renaming `{}` does not replay (`{}`)",
                renaming_text(recorded),
                renaming_text(&renaming)
            )));
        }
        let fp = StateArena::fingerprint(&state);
        if fp != witness.pairs[child].low_fp {
            return Err(fail(format!(
                "replayed state fingerprint {fp:016x} is not the witnessed {:016x}",
                witness.pairs[child].low_fp
            )));
        }
        states.push(last_child.get(child).copied().flatten().map(|_| state));
    }
    Ok(())
}

/// Summary of one successful recheck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecheckReport {
    pub pairs: usize,
    pub obligations: usize,
    /// True when the low-side tree was replayed against the semantics
    /// (a module source was supplied), not just structurally validated.
    pub replayed: bool,
}

/// Rechecks one serialized certificate record: parse, checksum, structural
/// validation, and — when `source` is supplied — subject binding plus full
/// semantic replay of the low-side tree.
///
/// # Errors
///
/// The first failing check, as a [`RecheckError`].
pub fn recheck_record(text: &str, source: Option<&str>) -> Result<RecheckReport, RecheckError> {
    let record = parse_record(text)?;
    let bound = source
        .map(|source| subject_of(source, &record))
        .transpose()?;
    record.witness.validate(
        record.product_nodes,
        record.low_transitions,
        bound.as_ref().map(|(subject, _)| *subject),
    )?;
    if let Some((_, low)) = &bound {
        replay(&record.witness, low)?;
    }
    Ok(RecheckReport {
        pairs: record.witness.pairs.len(),
        obligations: record.witness.obligations.len(),
        replayed: bound.is_some(),
    })
}

/// The subject `record` must be bound to within `source` — the digest of
/// its level pair's content, recomputed from the lowered levels — and the
/// low program its witness replays against.
fn subject_of(source: &str, record: &CertRecord) -> Result<(u64, Program), RecheckError> {
    let subject = |reason: String| RecheckError::Subject { reason };
    let module = armada_lang::parse_module(source).map_err(|e| subject(format!("parse: {e}")))?;
    let typed =
        armada_lang::check_module(&module).map_err(|e| subject(format!("typecheck: {e}")))?;
    let lowered =
        |level: &str| lower(&typed, level).map_err(|e| subject(format!("lower `{level}`: {e}")));
    let low = lowered(&record.low)?;
    let high = lowered(&record.high)?;
    let content = armada_sm::pair_content(&low, &high, &typed.module.relation());
    Ok((subject_digest(&content, &record.low, &record.high), low))
}

/// The `armada-recheck` / `armada recheck` command-line driver. Returns
/// the process exit code: 0 every certificate rechecks, 1 any certificate
/// is rejected, 2 usage or IO trouble.
pub fn run_cli(args: &[String]) -> u8 {
    let mut source_path: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--source" => {
                i += 1;
                let Some(path) = args.get(i) else {
                    eprintln!("armada-recheck: --source wants a module path");
                    return 2;
                };
                source_path = Some(path.clone());
            }
            arg if arg.starts_with("--source=") => {
                source_path = Some(arg["--source=".len()..].to_string());
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return 0;
            }
            arg if arg.starts_with('-') => {
                eprintln!("armada-recheck: unknown flag `{arg}`\n{USAGE}");
                return 2;
            }
            path => targets.push(path.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        eprintln!("armada-recheck: no certificate files or directories given\n{USAGE}");
        return 2;
    }
    let source = match &source_path {
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => Some(text),
            Err(e) => {
                eprintln!("armada-recheck: reading {path}: {e}");
                return 2;
            }
        },
        None => None,
    };
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for target in &targets {
        let path = std::path::PathBuf::from(target);
        if path.is_dir() {
            let entries = match std::fs::read_dir(&path) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("armada-recheck: reading {target}: {e}");
                    return 2;
                }
            };
            let mut certs: Vec<_> = entries
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "cert"))
                .collect();
            certs.sort();
            files.extend(certs);
        } else {
            files.push(path);
        }
    }
    if files.is_empty() {
        eprintln!("armada-recheck: no .cert records under the given paths");
        return 2;
    }
    let mut rejected = false;
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("armada-recheck: reading {}: {e}", file.display());
                return 2;
            }
        };
        match recheck_record(&text, source.as_deref()) {
            Ok(report) => println!(
                "{}: ok ({} pairs, {} obligations{})",
                file.display(),
                report.pairs,
                report.obligations,
                if report.replayed { ", replayed" } else { "" }
            ),
            Err(e) => {
                rejected = true;
                println!("{}: REJECTED: {e}", file.display());
            }
        }
    }
    u8::from(rejected)
}

const USAGE: &str = "usage: armada-recheck [--source <module.arm>] <cert-file-or-dir>...\n\
    \n\
    Validates refinement certificates independently of the verifier:\n\
    checksum, subject binding, obligation hash chain, and (with --source)\n\
    a full semantic replay of the witnessed low-side product tree.\n\
    Exit 0: all certificates recheck. 1: a certificate was rejected.\n\
    2: usage or IO trouble.";

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_witness() -> Witness {
        // Two pairs, one obligation: a hand-built chain (no semantics).
        let mut b = WitnessBuilder::new(false, 8, Vec::new(), 0x1111, 0x2222);
        b.push_node(0, 0x3333, 0x4444, &[Step::instr(1)], &[]);
        let mut w = b.seal(true, 2, 1);
        w.bind_subject(subject_digest("module", "A", "B"));
        w
    }

    #[test]
    fn builder_output_validates_structurally() {
        let w = tiny_witness();
        w.validate(2, 1, Some(subject_digest("module", "A", "B")))
            .expect("clean witness validates");
        assert_eq!(
            w.validate(2, 1, Some(subject_digest("module", "A", "C"))),
            Err(RecheckError::SubjectMismatch {
                want: subject_digest("module", "A", "C"),
                got: w.subject,
            })
        );
    }

    #[test]
    fn count_mismatches_are_named() {
        let w = tiny_witness();
        assert!(matches!(
            w.validate(3, 1, None),
            Err(RecheckError::PairCount {
                pairs: 2,
                product_nodes: 3
            })
        ));
        assert!(matches!(
            w.validate(2, 0, None),
            Err(RecheckError::TransitionCount {
                sum: 1,
                low_transitions: 0
            })
        ));
    }

    #[test]
    fn a_flipped_obligation_hash_is_caught_and_named() {
        let mut w = tiny_witness();
        w.obligations[0].hash ^= 1;
        // The digest covers the final chain hash, so reseal to isolate the
        // chain check.
        w.digest = w.compute_digest();
        assert!(matches!(
            w.validate(2, 1, None),
            Err(RecheckError::ObligationHash { index: 0, .. })
        ));
    }

    #[test]
    fn digest_covers_every_field() {
        let base = tiny_witness();
        let mut variants = vec![base.clone()];
        variants[0].complete = false;
        let mut v = base.clone();
        v.waves += 1;
        variants.push(v);
        let mut v = base.clone();
        v.pairs[0].low_fp ^= 1;
        variants.push(v);
        let mut v = base.clone();
        v.root_renaming = vec![2, 1];
        variants.push(v);
        for v in variants {
            assert!(matches!(
                v.validate(2, 1, None),
                Err(RecheckError::DigestMismatch { .. })
            ));
        }
    }

    #[test]
    fn record_round_trips_through_the_independent_parser() {
        let w = tiny_witness();
        let payload = format!(
            "{RECORD_MAGIC}\nlow A\nhigh B\nproduct_nodes 2\nlow_transitions 1\n{}",
            witness_lines(&w)
        );
        let checksum = record_checksum(&payload);
        let text = format!("{payload}checksum {checksum:016x}\n");
        let record = parse_record(&text).expect("parses");
        assert_eq!(record.low, "A");
        assert_eq!(record.high, "B");
        assert_eq!(record.product_nodes, 2);
        assert_eq!(record.witness, w);
        recheck_record(&text, None).expect("structurally valid");
        // Any single-byte damage is rejected (checksum or field checks).
        let mut damaged = text.clone().into_bytes();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0x04;
        if let Ok(damaged) = String::from_utf8(damaged) {
            assert!(recheck_record(&damaged, None).is_err());
        }
    }

    #[test]
    fn steps_round_trip_through_the_codec() {
        let steps = vec![Step::instr(1), Step::drain(2)];
        let mut enc = Enc::new();
        encode_steps_into(&mut enc, &steps);
        let enc = enc.into_bytes();
        assert_eq!(decode_steps(&enc).expect("decodes"), steps);
        assert!(decode_steps(&enc[..enc.len() - 1]).is_err());
    }

    /// A one-thread program with a deterministic run, lowered.
    fn two_write_program() -> Program {
        let source = r#"
            level A {
                var x: uint32;
                void main() { x := 1; x := 2; }
            }
            level B {
                var x: uint32;
                void main() { x := 1; x := 2; }
            }
            proof P { refinement A B weakening }
        "#;
        let module = armada_lang::parse_module(source).expect("parses");
        let typed = armada_lang::check_module(&module).expect("typechecks");
        lower(&typed, "A").expect("lowers")
    }

    /// A one-obligation witness rooted at `low`'s initial state whose
    /// edge replays `steps`; the child fingerprint is arbitrary.
    fn one_edge_witness(low: &Program, steps: &[Step]) -> Witness {
        let init = initial_state(low).expect("initial state");
        let mut b = WitnessBuilder::new(false, 8, Vec::new(), StateArena::fingerprint(&init), 1);
        b.push_node(0, 0x5eed, 2, steps, &[]);
        b.seal(true, 2, steps.len() as u64)
    }

    #[test]
    fn a_disabled_micro_step_is_rejected_naming_it() {
        let low = two_write_program();
        let init = initial_state(&low).expect("initial state");
        let (first, _) = armada_sm::enabled_steps(&low, &init, &[], 8)
            .into_iter()
            .next()
            .expect("one enabled step");
        let absent = Step::instr(7);
        for (steps, k) in [
            (vec![absent.clone()], 0),
            (vec![first.clone(), absent.clone(), first.clone()], 1),
        ] {
            assert_eq!(
                replay(&one_edge_witness(&low, &steps), &low),
                Err(RecheckError::Obligation {
                    index: 0,
                    reason: format!("micro-step {k} (t7) is not enabled in the parent's state"),
                })
            );
        }
    }

    #[test]
    fn a_parent_that_is_not_an_earlier_pair_is_rejected_naming_it() {
        let low = two_write_program();
        let init = initial_state(&low).expect("initial state");
        let (step, _) = armada_sm::enabled_steps(&low, &init, &[], 8)
            .into_iter()
            .next()
            .expect("one enabled step");
        let mut w = one_edge_witness(&low, std::slice::from_ref(&step));
        w.obligations[0].parent = 1;
        assert_eq!(
            replay(&w, &low),
            Err(RecheckError::Obligation {
                index: 0,
                reason: "parent 1 is not an earlier pair".to_string(),
            })
        );
    }

    #[test]
    fn semantic_replay_accepts_a_real_run_and_rejects_a_forged_fingerprint() {
        // A deterministic run; the witness is built by hand from the
        // semantics, as the engine would.
        let low = two_write_program();
        let init = initial_state(&low).expect("initial state");
        let fp0 = StateArena::fingerprint(&init);
        let steps = armada_sm::enabled_steps(&low, &init, &[], 8);
        assert!(!steps.is_empty());
        let (step, next) = steps.into_iter().next().expect("one enabled step");
        let fp1 = StateArena::fingerprint(&next);
        let mut b = WitnessBuilder::new(false, 8, Vec::new(), fp0, 0xd1d1);
        b.push_node(0, fp1, 0xd2d2, std::slice::from_ref(&step), &[]);
        let w = b.seal(true, 2, 1);
        replay(&w, &low).expect("real run replays");

        let mut forged = w.clone();
        forged.pairs[1].low_fp ^= 1;
        forged.digest = forged.compute_digest();
        assert!(matches!(
            replay(&forged, &low),
            Err(RecheckError::Obligation { index: 0, .. })
        ));

        let mut bad_root = w;
        bad_root.pairs[0].low_fp ^= 1;
        bad_root.digest = bad_root.compute_digest();
        assert!(matches!(
            replay(&bad_root, &low),
            Err(RecheckError::Root { .. })
        ));
    }
}
