//! Independent replay checker for refinement certificates.
//!
//! The engine in `crates/verify` explores a product state space and, on
//! success, emits a [`Witness`]: the simulation relation as interned
//! canonical state pairs (low-state fingerprint, match-set digest), each
//! product edge's low micro-steps and commuted symmetry renaming, the
//! truncation point, and one digest sealing them all. A witness holds only
//! what the checker cannot recompute: no per-edge digest, since
//! [`Witness::validate`] rehashes every edge into the sealed digest anyway.
//! This crate is the matching *trusted core* in the Foundational-VeriFast
//! sense: a small, separately compiled checker that validates a
//! certificate in O(witness) — never re-exploring — so a warm cache hit or
//! a served verdict carries a proof instead of a checksum.
//!
//! Independence posture:
//!
//! * This crate depends on `armada-lang` and `armada-sm` only — the parser
//!   and the spec *semantics* (step function, canonicalizer, fingerprints).
//!   It never links the exploration engine (`armada-verify`), whose search,
//!   subsumption, and match-set machinery are exactly the code a witness
//!   exists to double-check.
//! * The record codec lives here, and only here: [`parse_record`] is the
//!   one reader of a certificate record and [`write_record`] its one
//!   writer; the store, its memory tier, the fuzzer and `armada recheck`
//!   all call them. Soundness does not rest on the parser: a record is
//!   accepted only if the parsed [`Witness`] passes the checksum,
//!   [`Witness::validate`] and, with a source, [`replay`], so a misread
//!   record either fails those checks or is a valid witness for that
//!   subject. A second parser would add a grammar to trust, not a check.
//! * The *hash definitions* ([`subject_digest`], [`set_digest`],
//!   [`Witness::compute_digest`], [`record_checksum`]) live here and are
//!   reused by the emitter and the store, so tool and checker agree on the
//!   format by construction while the checker owns its meaning. All of them are one hash, [`WordDigest`], which is the
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
//!   witness digest over every pair and edge, each step encoding's
//!   grammar, and every count cross-check (pairs = product nodes, micro-steps sum to
//!   the low transition count).
//! * **Attested, not replayed**: the high-side match sets enter each pair
//!   as a digest over member-state fingerprints. Re-deciding the relation
//!   would *be* re-exploration; the digests bind what the engine claimed,
//!   they do not re-establish it.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use armada_sm::arena::FpHasher;
use armada_sm::codec::{self, Dec, Enc};
use armada_sm::{
    initial_state, lower, try_step, Canonicalizer, ProgState, Program, StateArena, Step, Tid,
};

/// The witness format's one hash, as an explicit incremental hasher so
/// its digests have one unambiguous word-level definition shared by
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

    /// Absorbs a tid list behind its length.
    pub fn tids(&mut self, tids: &[Tid]) -> &mut WordDigest {
        self.u64(tids.len() as u64);
        for &t in tids {
            self.u64(t);
        }
        self
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// The checksum on a record's last line, over the whole payload before
/// it (every line up to and including the one before `checksum`).
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

/// One simulation pair: a canonical low product state and the attested
/// digest of its matched high states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WitnessPair {
    /// Content fingerprint of the canonical low state.
    pub low_fp: u64,
    /// [`set_digest`] of the matched high states. A record writes each
    /// distinct digest once, in a table its pair lines index; in memory
    /// the index is resolved, since a `u32` beside the `u64` fingerprint
    /// would pad the pair to the same 16 bytes.
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
/// arenas ([`Witness::steps_of`], [`Witness::renaming_of`]). It holds no
/// micro-step count and no digest: the step encoding leads with its count,
/// and [`Witness::compute_digest`] hashes the edge itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Obligation {
    /// Pair index of the edge's source node (the child is implicit: pair
    /// `index + 1`, in admission order).
    pub parent: u32,
    /// The low micro-steps, varint-encoded (see [`decode_steps`]), in the
    /// *parent's canonical coordinates* — exactly what [`replay`] feeds the
    /// step function: a range of [`Witness::steps`].
    pub steps: Extent,
    /// The child pair's canonical→original tid map (empty = identity),
    /// the commuted symmetry renaming validated during replay: a range of
    /// [`Witness::renamings`].
    pub renaming: Extent,
}

/// The machine-checkable refinement witness carried by a certificate.
///
/// One flat layout: the fixed-size [`Obligation`] records index into two
/// shared arenas, so a witness of any size is a handful of allocations.
/// Both producers (the builder and [`parse_record`]) lay the arenas out in
/// obligation order, so equal witnesses compare equal field by field.
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

    /// Obligation `index`'s varint-encoded micro-steps.
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

    /// The digest the `digest` field must equal: one [`WordDigest`] pass
    /// over the header, every pair and every edge — its parent, the length
    /// and bytes of its step encoding, and its renaming — in order. The
    /// child of an edge is its position, so each edge binds both its
    /// pairs, its micro-steps and its renaming. An extent outside its
    /// arena hashes as empty; [`Witness::validate`] rejects it.
    pub fn compute_digest(&self) -> u64 {
        let mut h = WordDigest::new();
        h.str("armada-witness-digest v5")
            .u64(self.subject)
            .u64(self.complete as u64)
            .u64(self.waves)
            .u64(self.max_depth)
            .u64(self.symmetry as u64)
            .u64(self.max_buffer)
            .tids(&self.root_renaming)
            .u64(self.pairs.len() as u64);
        for pair in &self.pairs {
            h.u64(pair.low_fp).u64(pair.set_digest);
        }
        h.u64(self.obligations.len() as u64);
        for index in 0..self.obligations.len() {
            let (steps, renaming) = self.slices(index).unwrap_or_default();
            // Both halves fit 32 bits: a parent is a `u32` and an extent's
            // length is at most `u32::MAX`.
            h.u64(self.obligations[index].parent as u64 | (steps.len() as u64) << 32)
                .bytes(steps)
                .tids(renaming);
        }
        h.finish()
    }

    /// Binds the witness to its subject and reseals the digest. Nothing
    /// else in the witness depends on the subject, so late binding (the
    /// pipeline computes the subject; the engine does not) changes only the
    /// binding and the digest.
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
    /// every obligation's parent, extents and step count. O(witness); no
    /// semantics.
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
        let want = self.compute_digest();
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
        let mut micro_sum = 0u64;
        for (index, obl) in self.obligations.iter().enumerate() {
            let fail = |reason: String| RecheckError::Obligation { index, reason };
            if obl.parent as usize > index {
                return Err(fail(format!(
                    "parent {} is not an earlier pair than child {}",
                    obl.parent,
                    index + 1
                )));
            }
            let (steps, _) = self
                .slices(index)
                .ok_or_else(|| fail("extent outside the witness arenas".to_string()))?;
            // Only the leading count: the steps after it are grammar, which
            // `parse_record` checks (naming the line) and `replay` decodes.
            let micro = Dec::varint(steps)
                .len_of()
                .map_err(|e| fail(format!("undecodable step count: {e}")))?;
            if micro == 0 {
                return Err(fail("zero micro-steps".to_string()));
            }
            micro_sum += micro as u64;
        }
        // The certificate's transition count covers *every* explored micro
        // edge, including successors the antichain subsumed; the witness
        // records only the admitted simulation tree. So the sum bounds the
        // claim from below — a witness claiming more edges than the check
        // counted is forged.
        if micro_sum > low_transitions as u64 {
            return Err(RecheckError::TransitionCount {
                sum: micro_sum,
                low_transitions,
            });
        }
        Ok(())
    }
}

/// Incremental witness construction in node-admission order; used by the
/// emitter (and by tests that need small valid witnesses). The digest is
/// computed at [`WitnessBuilder::seal`], so an emitted witness validates by
/// construction.
#[derive(Debug)]
pub struct WitnessBuilder {
    symmetry: bool,
    max_buffer: u64,
    root_renaming: Vec<Tid>,
    pairs: Vec<WitnessPair>,
    obligations: Vec<Obligation>,
    steps: Enc,
    renamings: Vec<Tid>,
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
            obligations: Vec::new(),
            steps: Enc::varint(),
            renamings: Vec::new(),
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
        self.pairs.push(WitnessPair {
            low_fp,
            set_digest: set,
        });
        let start = self.steps.len();
        encode_steps_into(&mut self.steps, steps);
        let renamed = self.renamings.len();
        self.renamings.extend_from_slice(renaming);
        self.obligations.push(Obligation {
            parent,
            steps: Extent::new(start, self.steps.len()).expect(ARENA_LIMIT),
            renaming: Extent::new(renamed, self.renamings.len()).expect(ARENA_LIMIT),
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
            RecheckError::Root { reason } => write!(f, "initial pair: {reason}"),
            RecheckError::Subject { reason } => write!(f, "subject: {reason}"),
        }
    }
}

/// A certificate record: evidence that the bounded refinement check
/// succeeded, as the store persists it and [`recheck_record`] reads it.
/// `armada-verify` re-exports it as `RefinementCert`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertRecord {
    /// Name of the low-level program.
    pub low: String,
    /// Name of the high-level program.
    pub high: String,
    /// Product nodes explored.
    pub product_nodes: usize,
    /// Low-level micro-transitions checked (fused macro edges count their
    /// full micro length).
    pub low_transitions: usize,
    /// The machine-checkable witness: the simulation relation as
    /// fingerprinted canonical state pairs plus one obligation per product
    /// edge, sealed by one digest. [`replay`] checks it against the spec
    /// semantics without re-exploring. Emitted unbound (subject 0) — the
    /// pipeline binds it to the level pair's content before persisting.
    pub witness: Witness,
}

/// Version of the record format. The store's cert keys hash it, so a bump
/// makes every older record unaddressable garbage instead of a parse
/// hazard; [`RECORD_MAGIC`] names it on each record's first line.
/// v2: records carry the machine-checkable refinement witness.
/// v3: keys and witness subjects cover the level pair's content, not the
/// module source.
/// v4: witness digests and the record checksum hash 64-bit words
/// ([`WordDigest`]), not bytes.
/// v5: records hold only what the checker cannot recompute: no
/// per-obligation digests or micro-step counts, varint step integers, and
/// a table of distinct match-set digests that pair lines index.
pub const FORMAT_VERSION: u32 = 5;

/// Magic first line this checker accepts (format v5; v4 records stored
/// per-obligation digests and fixed-width steps, v3 records hashed bytes
/// with FNV-1a, v2 records bound the whole module source and v1 records
/// predate witnesses, and all are rejected naming their version).
pub const RECORD_MAGIC: &str = "armada-cert v5";

fn parse_err(line: usize, reason: impl Into<String>) -> RecheckError {
    RecheckError::Parse {
        line,
        reason: reason.into(),
    }
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

/// Appends a step encoding as lowercase hex pairs.
fn push_steps(out: &mut String, bytes: &[u8]) {
    for &b in bytes {
        out.push(HEX_DIGITS[(b >> 4) as usize] as char);
        out.push(HEX_DIGITS[(b & 0xf) as usize] as char);
    }
}

/// Renders `cert` as its record, checksum line included: the one writer
/// of the format [`parse_record`] reads. Header and witness go into one
/// buffer, which is then checksummed in place.
pub fn write_record(cert: &CertRecord) -> String {
    let mut out = String::with_capacity(128 + cert.low.len() + cert.high.len());
    out.push_str(RECORD_MAGIC);
    out.push_str("\nlow ");
    out.push_str(&cert.low);
    out.push_str("\nhigh ");
    out.push_str(&cert.high);
    out.push_str("\nproduct_nodes ");
    push_dec(&mut out, cert.product_nodes as u64);
    out.push_str("\nlow_transitions ");
    push_dec(&mut out, cert.low_transitions as u64);
    out.push('\n');
    write_witness_lines(&cert.witness, &mut out);
    let checksum = record_checksum(&out);
    out.push_str("checksum ");
    push_hex16(&mut out, checksum);
    out.push('\n');
    out
}

/// The distinct match-set digests of `pairs` in order of first use, and
/// each pair's index into them: the set table a record writes once.
fn set_table(pairs: &[WitnessPair]) -> (Vec<u64>, Vec<u64>) {
    let mut index_of: HashMap<u64, u64, BuildHasherDefault<FpHasher>> = HashMap::default();
    let mut table = Vec::new();
    let indices = pairs
        .iter()
        .map(|pair| {
            *index_of.entry(pair.set_digest).or_insert_with(|| {
                table.push(pair.set_digest);
                table.len() as u64 - 1
            })
        })
        .collect();
    (table, indices)
}

/// Appends the witness section of a record to `out` in one pass, reserving
/// its size up front.
fn write_witness_lines(w: &Witness, out: &mut String) {
    let (sets, set_indices) = set_table(&w.pairs);
    // A reservation, not a bound: 21 bytes per set line, 24 per pair line
    // with a one-digit set index; per obligation line 18 fixed bytes with
    // a ten-digit parent, up to 21 bytes per renaming entry, and two hex
    // digits per step byte.
    let obligations = 18 * w.obligations.len() + 21 * w.renamings.len() + 2 * w.steps.len();
    out.reserve(256 + 21 * sets.len() + 24 * w.pairs.len() + obligations);
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
    out.push_str("\nwitness sets ");
    push_dec(out, sets.len() as u64);
    out.push('\n');
    for &set in &sets {
        out.push_str("set ");
        push_hex16(out, set);
        out.push('\n');
    }
    out.push_str("witness pairs ");
    push_dec(out, w.pairs.len() as u64);
    out.push('\n');
    for (pair, &set) in w.pairs.iter().zip(&set_indices) {
        out.push_str("pair ");
        push_hex16(out, pair.low_fp);
        out.push(' ');
        push_dec(out, set);
        out.push('\n');
    }
    out.push_str("witness obligations ");
    push_dec(out, w.obligations.len() as u64);
    out.push('\n');
    for (index, obl) in w.obligations.iter().enumerate() {
        out.push_str("obl ");
        push_dec(out, obl.parent as u64);
        out.push(' ');
        push_renaming(out, w.renaming_of(index));
        out.push(' ');
        push_steps(out, w.steps_of(index));
        out.push('\n');
    }
    out.push_str("witness digest ");
    push_hex16(out, w.digest);
    out.push('\n');
}

/// Bytes in every set line (`set`, a digest, a newline).
const SET_LINE: usize = 21;

/// Bytes in the shortest pair line: a digest and a one-digit set index.
const MIN_PAIR_LINE: usize = 24;

/// Bytes in the shortest obligation line (`obl 0 - 00`): a one-digit
/// parent, the identity renaming and a one-byte step encoding. All but two
/// of them are not step digits.
const MIN_OBLIGATION_LINE: usize = 11;

/// Parses a full certificate record: the format version first (another
/// format's checksum is another function, so a v4 record is named as v4,
/// not as damaged), then the trailing checksum over the whole payload, so
/// *any* payload damage — even damage that would still parse — is
/// rejected, then every field. Numbers must be in the canonical form
/// [`write_record`] writes (no sign, no leading zeros, exactly sixteen
/// lowercase digits per hex field, step varints in their shortest form),
/// the set table must list each digest once in order of first use, lines
/// end in a bare `\n`, and a count is checked against the bytes left
/// before it sizes an allocation: every record this accepts writes back to
/// the same bytes. It does not validate the witness; see
/// [`Witness::validate`].
///
/// # Errors
///
/// [`RecheckError::Parse`] naming the first offending line, or
/// [`RecheckError::Checksum`].
pub fn parse_record(text: &str) -> Result<CertRecord, RecheckError> {
    let magic = text.split('\n').next().unwrap_or_default();
    if magic != RECORD_MAGIC {
        let reason = match magic.strip_prefix("armada-cert ") {
            Some(version) if version.bytes().all(|b| b.is_ascii_alphanumeric()) => format!(
                "record format {version} is not supported (this checker reads {}); \
                 re-verify to write it again",
                &RECORD_MAGIC["armada-cert ".len()..]
            ),
            _ => format!("bad magic `{}`", magic.escape_debug()),
        };
        return Err(parse_err(1, reason));
    }
    // Line numbers are counted only on these error paths.
    let line_at = |offset: usize| text[..offset].matches('\n').count() + 1;
    let rest = text
        .strip_suffix('\n')
        .ok_or_else(|| parse_err(line_at(text.len()), "record does not end in a newline"))?;
    let checksum_at = rest.rfind('\n').map_or(0, |at| at + 1);
    let (payload, checksum_line) = (&text[..checksum_at], &rest[checksum_at..]);
    let stored = checksum_line
        .strip_prefix("checksum ")
        .and_then(hex64)
        .ok_or_else(|| parse_err(line_at(checksum_at), "record ends without a checksum line"))?;
    let computed = record_checksum(payload);
    if stored != computed {
        return Err(RecheckError::Checksum {
            want: computed,
            got: stored,
        });
    }

    let mut lines = Lines { payload, at: 0 };
    lines.read(RECORD_MAGIC, |rest| rest.is_empty().then_some(()))?; // checked above
    let low = lines.read("low ", |name| Some(name.to_string()))?;
    let high = lines.read("high ", |name| Some(name.to_string()))?;
    let product_nodes = lines.read("product_nodes ", int)?;
    let low_transitions = lines.read("low_transitions ", int)?;
    let subject = lines.read("witness subject ", hex64)?;
    let (complete, waves, max_depth, symmetry, max_buffer) =
        lines.read("witness status ", status)?;
    let mut root_renaming = Vec::new();
    lines.read("witness root ", |text| renaming(text, &mut root_renaming))?;
    let set_count = lines.count("witness sets ", SET_LINE)?;
    let sets_at = lines.at;
    // The table fills the first half; the second half is a sorted copy
    // that finds a repeated digest without another allocation.
    let mut sets = Vec::with_capacity(2 * set_count);
    for _ in 0..set_count {
        sets.push(lines.read("set ", hex64)?);
    }
    sets.extend_from_within(..);
    sets[set_count..].sort_unstable();
    if sets[set_count..].windows(2).any(|w| w[0] == w[1]) {
        let repeat = (1..set_count).find(|&i| sets[..i].contains(&sets[i]));
        return Err(parse_err(
            lines.line_at(sets_at) + repeat.unwrap_or_default(),
            "set digest repeats an earlier entry",
        ));
    }
    let pair_count = lines.count("witness pairs ", MIN_PAIR_LINE)?;
    let mut pairs = Vec::with_capacity(pair_count);
    // The table lists digests in order of first use: a pair names an entry
    // already used or the first unused one.
    let mut used = 0;
    for _ in 0..pair_count {
        let at = lines.at;
        let (low_fp, set) = lines.read_in_place("pair ", pair)?;
        if set >= set_count {
            return Err(parse_err(
                lines.line_at(at),
                format!("set index {set} is outside the {set_count}-entry set table"),
            ));
        }
        if set > used {
            return Err(parse_err(
                lines.line_at(at),
                format!("set index {set} skips the first unused entry {used}"),
            ));
        }
        used += usize::from(set == used);
        pairs.push(WitnessPair {
            low_fp,
            set_digest: sets[set],
        });
    }
    if used < set_count {
        return Err(parse_err(
            lines.line_at(sets_at) + used,
            "no pair uses this set digest",
        ));
    }
    let obl_count = lines.count("witness obligations ", MIN_OBLIGATION_LINE)?;
    let mut obligations = Vec::with_capacity(obl_count);
    // Two digits make one step byte: the bytes left after every
    // obligation line's non-step bytes bound the step arena, so it is
    // sized once for a well-formed record.
    let step_bytes = (payload.len() - lines.at - (MIN_OBLIGATION_LINE - 2) * obl_count) / 2;
    let mut steps_arena = Vec::with_capacity(step_bytes);
    let mut renamings = Vec::new();
    for _ in 0..obl_count {
        let at = lines.at;
        let obl = lines.read_in_place("obl ", |body| {
            obligation(body, &mut renamings, &mut steps_arena)
        })?;
        // The step encoding is grammar too: its count, then exactly that
        // many steps, every varint in its shortest form.
        count_steps(&steps_arena[obl.steps.range()])
            .map_err(|e| parse_err(lines.line_at(at), format!("bad step encoding: {e}")))?;
        obligations.push(obl);
    }
    let digest = lines.read("witness digest ", hex64)?;
    if lines.at != payload.len() {
        return Err(parse_err(
            lines.line_at(lines.at),
            "trailing line before the checksum",
        ));
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

/// A record's payload and the offset of its next unread line. Lines are
/// numbered only on error paths, by counting the newlines before an
/// offset.
struct Lines<'a> {
    payload: &'a str,
    at: usize,
}

impl<'a> Lines<'a> {
    /// The number of the line that starts at byte `offset`.
    fn line_at(&self, offset: usize) -> usize {
        self.payload[..offset].matches('\n').count() + 1
    }

    /// The next line with `prefix` stripped, read by `read`.
    fn read<T>(
        &mut self,
        prefix: &'static str,
        read: impl FnOnce(&'a str) -> Option<T>,
    ) -> Result<T, RecheckError> {
        self.read_in_place(prefix, |body| {
            let len = body.find('\n').unwrap_or(body.len());
            Ok((read(&body[..len]).ok_or(prefix.trim_end())?, len))
        })
    }

    /// The next line, which must start with `prefix`. `read` parses the
    /// payload after the prefix in place and returns what it read and the
    /// length of the line's rest, or names what is malformed; the line must
    /// end there. The pair and obligation lines are read this way, each
    /// byte scanned once, without finding the line's end first.
    fn read_in_place<T>(
        &mut self,
        prefix: &'static str,
        read: impl FnOnce(&'a str) -> Result<(T, usize), &'static str>,
    ) -> Result<T, RecheckError> {
        let rest = &self.payload[self.at..];
        let Some(body) = rest.strip_prefix(prefix) else {
            let reason = if rest.is_empty() {
                format!("record ends before `{prefix}…`")
            } else {
                format!("expected `{prefix}…`")
            };
            return Err(parse_err(self.line_at(self.at), reason));
        };
        let what = match read(body) {
            Ok((value, len)) if body.as_bytes().get(len) == Some(&b'\n') => {
                self.at += prefix.len() + len + 1;
                return Ok(value);
            }
            Ok(_) => prefix.trim_end(),
            Err(what) => what,
        };
        Err(parse_err(self.line_at(self.at), format!("bad {what}")))
    }

    /// The count of the lines that follow, each at least `line_bytes`
    /// long: a count the rest of the payload cannot hold is rejected
    /// before it sizes an allocation.
    fn count(&mut self, prefix: &'static str, line_bytes: usize) -> Result<usize, RecheckError> {
        let at = self.at;
        let count = self.read(prefix, int)?;
        let left = self.payload.len() - self.at;
        if count > left / line_bytes {
            return Err(parse_err(
                self.line_at(at),
                format!("{count} lines cannot fit in the {left} bytes left"),
            ));
        }
        Ok(count)
    }
}

/// Each byte's value as a lowercase hex digit; 0xff marks a non-digit, so
/// OR-ing the values of a field and testing the high nibble once checks
/// every digit without a branch per byte.
const HEX_VALUE: [u8; 256] = {
    let mut table = [0xff; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        i += 1;
    }
    table
};

/// Exactly sixteen lowercase hex digits, eight at a time through [`hex8`].
fn hex64(text: &str) -> Option<u64> {
    let digits: &[u8; 16] = text.as_bytes().try_into().ok()?;
    let (high, low) = digits.split_at(8);
    // `hex8` yields the bytes in digit order, so the first digits land in
    // the low byte: swap them to read the digits as one number.
    let half =
        |digits: &[u8]| Some(hex8(u64::from_le_bytes(digits.try_into().ok()?))?.swap_bytes());
    Some((half(high)? as u64) << 32 | half(low)? as u64)
}

/// A canonical decimal: digits only, no leading zero, no overflow.
fn dec(text: &str) -> Option<u64> {
    let bytes = text.as_bytes();
    if bytes.is_empty() || (bytes[0] == b'0' && bytes.len() > 1) {
        return None;
    }
    bytes.iter().try_fold(0u64, |v, &c| {
        if !c.is_ascii_digit() {
            return None;
        }
        v.checked_mul(10)?.checked_add((c - b'0') as u64)
    })
}

/// A canonical decimal that fits `T`.
fn int<T: TryFrom<u64>>(text: &str) -> Option<T> {
    dec(text)?.try_into().ok()
}

/// The canonical decimal at the front of `text`, up to its first
/// non-digit, that fits `T`, and its length.
fn leading_int<T: TryFrom<u64>>(text: &str) -> Option<(T, usize)> {
    let len = text
        .bytes()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(text.len());
    Some((int(&text[..len])?, len))
}

/// `name value` as the next two space-separated fields of `fields`.
fn named<'a>(fields: &mut impl Iterator<Item = &'a str>, name: &str) -> Option<u64> {
    if fields.next()? != name {
        return None;
    }
    dec(fields.next()?)
}

/// A status line: completion, waves, depth, symmetry flag and buffer
/// bound.
fn status(text: &str) -> Option<(bool, u64, u64, bool, u64)> {
    let mut words = text.split(' ');
    let complete = match words.next()? {
        "complete" => true,
        "truncated" => false,
        _ => return None,
    };
    let waves = named(&mut words, "waves")?;
    let depth = named(&mut words, "depth")?;
    let symmetry = match named(&mut words, "symmetry")? {
        0 => false,
        1 => true,
        _ => return None,
    };
    let buffer = named(&mut words, "buffer")?;
    words
        .next()
        .is_none()
        .then_some((complete, waves, depth, symmetry, buffer))
}

/// A pair line's low-state digest and set index, read in place.
fn pair(body: &str) -> Result<((u64, usize), usize), &'static str> {
    let low_fp = body.get(..16).and_then(hex64).ok_or("low-state digest")?;
    let (set, len) = body[16..]
        .strip_prefix(' ')
        .and_then(leading_int)
        .ok_or("set index")?;
    Ok(((low_fp, set), 17 + len))
}

/// An obligation line's three fields, read in place, its renaming and
/// steps parsed onto the ends of their arenas.
fn obligation(
    body: &str,
    renamings: &mut Vec<Tid>,
    steps_arena: &mut Vec<u8>,
) -> Result<(Obligation, usize), &'static str> {
    let (parent, len) = leading_int(body).ok_or("parent index")?;
    let rest = body[len..].strip_prefix(' ').ok_or("parent index")?;
    let renamed = rest.bytes().position(|b| b == b' ').ok_or("renaming")?;
    let renaming = renaming(&rest[..renamed], renamings).ok_or("renaming")?;
    let (steps, digits) = steps(&rest[renamed + 1..], steps_arena).ok_or("step encoding")?;
    let obligation = Obligation {
        parent,
        steps,
        renaming,
    };
    Ok((obligation, len + renamed + digits + 2))
}

/// A renaming, `-` for the identity, else comma-separated tids, parsed
/// onto the end of `arena`.
fn renaming(text: &str, arena: &mut Vec<Tid>) -> Option<Extent> {
    let start = arena.len();
    if text != "-" {
        for tid in text.split(',') {
            arena.push(dec(tid)?);
        }
    }
    Extent::new(start, arena.len())
}

/// The step encoding that runs from the front of `text` to its line's
/// end, as lowercase hex pairs (never none: it leads with the step count),
/// decoded onto the end of `arena`, and the number of digits: sixteen
/// digits at a time through [`hex8`], the remaining pairs through
/// [`HEX_VALUE`].
fn steps(text: &str, arena: &mut Vec<u8>) -> Option<(Extent, usize)> {
    let start = arena.len();
    // A byte scan: the encoding is a few digits long, too short for a
    // `memchr` call to pay.
    let len = text.bytes().position(|b| b == b'\n')?;
    let digits = &text.as_bytes()[..len];
    if digits.is_empty() || !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut words = digits.chunks_exact(16);
    for word in &mut words {
        let (first, second) = word.split_at(8);
        let first = hex8(u64::from_le_bytes(first.try_into().ok()?))?;
        let second = hex8(u64::from_le_bytes(second.try_into().ok()?))?;
        arena.extend_from_slice(&(first as u64 | (second as u64) << 32).to_le_bytes());
    }
    let mut bad = 0u8;
    for pair in words.remainder().chunks_exact(2) {
        let (hi, lo) = (HEX_VALUE[pair[0] as usize], HEX_VALUE[pair[1] as usize]);
        bad |= hi | lo;
        arena.push(hi << 4 | (lo & 0xf));
    }
    if bad >= 16 {
        return None;
    }
    Some((Extent::new(start, arena.len())?, len))
}

/// Eight lowercase hex digits, read as a little-endian word (the first
/// digit in the low byte), decoded to four bytes in digit order; `None`
/// if any byte is not in `0-9a-f`. Each range test adds a per-byte bias
/// that carries into the byte's high bit exactly when the byte passes it;
/// bytes are checked to be ASCII first, so no sum carries into the next
/// byte.
fn hex8(word: u64) -> Option<u32> {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    if word & HIGH != 0 {
        return None;
    }
    let at_least = |low: u8| word + ONES * (0x80 - low as u64);
    let at_most = |high: u8| !(word + ONES * (0x7f - high as u64));
    let digit = at_least(b'0') & at_most(b'9') & HIGH;
    let alpha = at_least(b'a') & at_most(b'f') & HIGH;
    if digit | alpha != HIGH {
        return None;
    }
    // '0'-'9' carry their value in the low nibble; 'a'-'f' carry 1-6.
    let nibbles = (word & (ONES * 0x0f)) + (alpha >> 7) * 9;
    let bytes = (nibbles << 4 | nibbles >> 8) & 0x00ff_00ff_00ff_00ff;
    let bytes = (bytes | bytes >> 8) & 0x0000_ffff_0000_ffff;
    Some((bytes | bytes >> 16) as u32)
}

/// Encodes an edge's micro-steps onto the end of `e`, a varint encoder:
/// the step count, then each step's codec encoding.
fn encode_steps_into(e: &mut Enc, steps: &[Step]) {
    e.len_of(steps.len());
    for step in steps {
        codec::enc_step(e, step);
    }
}

/// Decodes an edge's micro-steps: a step count, then each step in
/// `armada_sm::codec`'s step encoding, every integer a varint
/// ([`Dec::varint`]) in its shortest form.
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
    let mut d = Dec::varint(bytes);
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
    checksum, subject binding, witness digest, and (with --source)\n\
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
    fn an_edited_edge_is_caught_by_the_digest_then_by_its_own_check() {
        // Tid 1 becomes tid 0 in the step arena (count, tid, tag, nondets).
        let mut w = tiny_witness();
        assert_eq!(w.steps, [1, 1, 1, 0]);
        w.steps[1] = 0;
        assert!(matches!(
            w.validate(2, 1, None),
            Err(RecheckError::DigestMismatch { .. })
        ));
        // Resealed, a zero-step edge and an undecodable one are each named.
        for (steps, reason) in [
            (vec![0], "zero micro-steps"),
            (
                vec![0x80],
                "undecodable step count: codec error: truncated at byte 1",
            ),
        ] {
            let mut w = tiny_witness();
            w.steps = steps;
            w.obligations[0].steps = Extent::new(0, w.steps.len()).unwrap();
            w.digest = w.compute_digest();
            assert_eq!(
                w.validate(2, 1, None),
                Err(RecheckError::Obligation {
                    index: 0,
                    reason: reason.to_string()
                })
            );
        }
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
        v.pairs[1].set_digest ^= 1;
        variants.push(v);
        let mut v = base.clone();
        v.root_renaming = vec![2, 1];
        variants.push(v);
        let mut v = base.clone();
        v.steps[1] = 2;
        variants.push(v);
        let mut v = base.clone();
        v.renamings = vec![1];
        v.obligations[0].renaming = Extent::new(0, 1).unwrap();
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
        let record = CertRecord {
            low: "A".into(),
            high: "B".into(),
            product_nodes: 2,
            low_transitions: 1,
            witness: tiny_witness(),
        };
        let text = write_record(&record);
        assert_eq!(RECORD_MAGIC, format!("armada-cert v{FORMAT_VERSION}"));
        assert!(text.starts_with(&format!(
            "{RECORD_MAGIC}\nlow A\nhigh B\nproduct_nodes 2\nlow_transitions 1\nwitness subject "
        )));
        let checksum_at = text.trim_end().rfind('\n').expect("checksum line") + 1;
        assert_eq!(
            &text[checksum_at..],
            format!("checksum {:016x}\n", record_checksum(&text[..checksum_at]))
        );
        assert_eq!(parse_record(&text), Ok(record));
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
    fn step_digits_decode_a_word_at_a_time_and_accept_only_lowercase_hex() {
        // Two whole words (decoded by `hex8`) and a tail pair (decoded by
        // the table): every byte value at every position, plus a
        // two-byte character.
        let base = b"0123456789abcdef0123456789abcdef0f";
        let decoded = |text: &str| {
            let mut arena = vec![0xee];
            steps(&format!("{text}\n"), &mut arena).map(|(extent, digits)| {
                assert_eq!((extent.start, extent.end as usize), (1, arena.len()));
                assert_eq!(digits, text.len());
                arena.split_off(1)
            })
        };
        let reference = |digits: &[u8]| -> Vec<u8> {
            digits
                .chunks(2)
                .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
                .collect()
        };
        assert_eq!(
            decoded(std::str::from_utf8(base).unwrap()),
            Some(reference(base))
        );
        for at in 0..base.len() {
            // A newline ends the line, and with it the encoding.
            for byte in (0..=0x7fu8).filter(|&byte| byte != b'\n') {
                let mut digits = *base;
                digits[at] = byte;
                let text = std::str::from_utf8(&digits).expect("ASCII");
                let lowercase_hex = byte.is_ascii_digit() || (b'a'..=b'f').contains(&byte);
                let want = lowercase_hex.then(|| reference(&digits));
                assert_eq!(decoded(text), want, "byte {byte:#04x} at {at}");
            }
        }
        assert_eq!(decoded("0123456789abcdé0123456789abcdef0f"), None);
        assert_eq!(decoded("-"), None);
        assert_eq!(decoded(""), None);
        assert_eq!(decoded("012"), None);
    }

    #[test]
    fn steps_round_trip_through_the_codec() {
        let steps = vec![Step::instr(1), Step::drain(300)];
        let mut enc = Enc::varint();
        encode_steps_into(&mut enc, &steps);
        let enc = enc.into_bytes();
        // Count, tid, tag and nondet count each take a byte; tid 300 two.
        assert_eq!(enc, [2, 1, 1, 0, 0xac, 0x02, 0]);
        assert_eq!(decode_steps(&enc).expect("decodes"), steps);
        assert!(decode_steps(&enc[..enc.len() - 1]).is_err());
        assert!(decode_steps(&[enc.as_slice(), &[0]].concat()).is_err());
    }

    #[test]
    fn the_set_table_lists_each_digest_once_in_order_of_first_use() {
        let mut b = WitnessBuilder::new(false, 8, Vec::new(), 0x10, 0xb);
        for (i, set) in [0xa, 0xb, 0xa].into_iter().enumerate() {
            b.push_node(i as u32, 0x11 + i as u64, set, &[Step::instr(1)], &[]);
        }
        let record = write_record(&CertRecord {
            low: "A".into(),
            high: "B".into(),
            product_nodes: 4,
            low_transitions: 3,
            witness: b.seal(true, 4, 3),
        });
        let table = "witness sets 2\nset 000000000000000b\nset 000000000000000a\n";
        assert!(record.contains(table), "{record}");
        let pairs = "pair 0000000000000012 0\npair 0000000000000013 1\nwitness obligations";
        assert!(record.contains(pairs), "{record}");
        assert_eq!(
            parse_record(&record).map(|r| write_record(&r)),
            Ok(record.clone())
        );
        // Set lines are record lines 10 and 11, pair lines 13 to 16.
        let payload = record.rsplit_once("checksum ").unwrap().0;
        for (from, to, line, reason) in [
            (
                "11 1\n",
                "11 2\n",
                14,
                "set index 2 is outside the 2-entry set table",
            ),
            (
                "10 0\n",
                "10 1\n",
                13,
                "set index 1 skips the first unused entry 0",
            ),
            (" 1\n", " 0\n", 11, "no pair uses this set digest"),
            (
                "set 000000000000000a",
                "set 000000000000000b",
                11,
                "set digest repeats an earlier entry",
            ),
        ] {
            let forged = payload.replace(from, to);
            let forged = format!("{forged}checksum {:016x}\n", record_checksum(&forged));
            assert_ne!(forged, record, "{from:?} must land");
            assert_eq!(
                parse_record(&forged),
                Err(parse_err(line, reason)),
                "{from:?}"
            );
        }
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
