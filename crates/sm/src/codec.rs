//! Binary codec for program states, steps, and the crash-safe file
//! discipline shared by the spill pager and the refinement check's
//! checkpoints (`armada-verify`).
//!
//! States that spill to disk or land in a checkpoint must round-trip
//! *exactly*: the decoded [`ProgState`] compares equal to the original and
//! hashes to the same arena fingerprint, so a faulted page or resumed run
//! can never diverge from an uninterrupted one. The format is a
//! hand-rolled length-prefixed tag encoding (the workspace takes no
//! external dependencies, so no serde); it is a cache/checkpoint format,
//! not an interchange format — both ends are always the same build.
//!
//! File-level durability reuses the discipline proven in
//! `armada-verify::store`: writes go to a same-directory temp file and
//! `rename` into place, and every file carries a trailing FNV-1a checksum
//! over its payload. [`read_verified`] returns exactly what a completed
//! [`write_atomic`] wrote, or an error — never a torn or corrupted prefix.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use armada_lang::ast::IntType;
use armada_runtime::fnv1a_64;

use crate::heap::{AllocStatus, Heap, HeapObject, Location, MemNode, ObjectId, PtrVal, RootKind};
use crate::program::Pc;
use crate::state::{
    BufferedWrite, Frame, LocalCell, ProgState, Termination, ThreadState, ThreadStatus,
};
use crate::step::{Step, StepKind};
use crate::value::{UbReason, Value};

/// Decode failure: what went wrong and (roughly) where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "codec error: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

type DecResult<T> = Result<T, CodecError>;

/// Append-only encoder over a byte buffer.
///
/// Integers are fixed-width little-endian by default: spill pages and
/// checkpoints are read back by the build that wrote them, on the page-fault
/// path, where a fixed-width integer is one load. [`Enc::varint`] writes
/// them as canonical LEB128 varints instead (signed ones zigzagged), the
/// compact form a refinement witness stores its steps in.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
    varint: bool,
}

impl Enc {
    pub fn new() -> Enc {
        Enc::default()
    }

    /// An encoder whose integers are LEB128 varints; read it back with
    /// [`Dec::varint`].
    pub fn varint() -> Enc {
        Enc {
            buf: Vec::new(),
            varint: true,
        }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u32(&mut self, v: u32) {
        if self.varint {
            self.leb128(v as u128);
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn u64(&mut self, v: u64) {
        if self.varint {
            self.leb128(v as u128);
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    pub fn i128(&mut self, v: i128) {
        if self.varint {
            self.leb128(((v << 1) ^ (v >> 127)) as u128);
        } else {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Length-prefixed usize (stored as u64).
    pub fn len_of(&mut self, v: usize) {
        self.u64(v as u64);
    }

    pub fn str(&mut self, v: &str) {
        self.len_of(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    pub fn bytes(&mut self, v: &[u8]) {
        self.len_of(v.len());
        self.buf.extend_from_slice(v);
    }

    /// `v` as LEB128: seven bits a byte, low group first, the high bit
    /// set on every byte but the last.
    fn leb128(&mut self, mut v: u128) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }
}

/// Cursor-based decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    varint: bool,
}

impl<'a> Dec<'a> {
    #[inline]
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            varint: false,
        }
    }

    /// A decoder for what an [`Enc::varint`] wrote. It accepts only the
    /// shortest encoding of each integer, so every value has one spelling.
    #[inline]
    pub fn varint(buf: &'a [u8]) -> Dec<'a> {
        Dec {
            buf,
            pos: 0,
            varint: true,
        }
    }

    /// True once every byte has been consumed.
    #[inline]
    pub fn at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> DecResult<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| CodecError(format!("truncated at byte {}", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    #[inline]
    pub fn u8(&mut self) -> DecResult<u8> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn bool(&mut self) -> DecResult<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError(format!("bad bool byte {other}"))),
        }
    }

    #[inline]
    pub fn u32(&mut self) -> DecResult<u32> {
        if self.varint {
            return Ok(self.leb128(32)? as u32);
        }
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    #[inline]
    pub fn u64(&mut self) -> DecResult<u64> {
        if self.varint {
            return Ok(self.leb128(64)? as u64);
        }
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    #[inline]
    pub fn i128(&mut self) -> DecResult<i128> {
        if self.varint {
            let zigzag = self.leb128(128)?;
            return Ok((zigzag >> 1) as i128 ^ -((zigzag & 1) as i128));
        }
        Ok(i128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    #[inline]
    pub fn len_of(&mut self) -> DecResult<usize> {
        let v = self.u64()?;
        // Cap implausible lengths so a corrupt prefix cannot trigger a huge
        // allocation before the checksum would have caught it.
        if v > (1u64 << 40) {
            return Err(CodecError(format!("implausible length {v}")));
        }
        Ok(v as usize)
    }

    pub fn str(&mut self) -> DecResult<String> {
        let n = self.len_of()?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| CodecError("bad utf-8".into()))
    }

    pub fn bytes(&mut self) -> DecResult<Vec<u8>> {
        let n = self.len_of()?;
        Ok(self.take(n)?.to_vec())
    }

    /// A LEB128 integer of at most `bits` bits, in its shortest encoding:
    /// a last byte of zero after the first (an overlong spelling) and
    /// bits past `bits` are rejected.
    #[inline]
    fn leb128(&mut self, bits: u32) -> DecResult<u128> {
        // Most integers in a witness fit one byte.
        if let Some(&byte) = self.buf.get(self.pos).filter(|&&byte| byte < 0x80) {
            self.pos += 1;
            return Ok(byte as u128);
        }
        self.leb128_long(bits)
    }

    fn leb128_long(&mut self, bits: u32) -> DecResult<u128> {
        let at = self.pos;
        let mut value = 0u128;
        let mut shift = 0;
        loop {
            let byte = self.u8()?;
            let group = (byte & 0x7f) as u128;
            if shift >= bits || (bits - shift < 7 && group >> (bits - shift) != 0) {
                return Err(CodecError(format!(
                    "varint at byte {at} overflows {bits} bits"
                )));
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err(CodecError(format!("overlong varint at byte {at}")));
                }
                return Ok(value);
            }
            shift += 7;
        }
    }
}

// ---------------------------------------------------------------------------
// Value / heap codecs
// ---------------------------------------------------------------------------

fn enc_int_type(e: &mut Enc, ty: &IntType) {
    e.bool(ty.signed);
    e.u8(ty.bits);
}

fn dec_int_type(d: &mut Dec) -> DecResult<IntType> {
    let signed = d.bool()?;
    let bits = d.u8()?;
    if !matches!(bits, 8 | 16 | 32 | 64) {
        return Err(CodecError(format!("bad int width {bits}")));
    }
    Ok(IntType { signed, bits })
}

fn enc_ptr_val(e: &mut Enc, p: &PtrVal) {
    e.u32(p.object.0);
    e.len_of(p.path.len());
    for &seg in &p.path {
        e.u32(seg);
    }
}

fn dec_ptr_val(d: &mut Dec) -> DecResult<PtrVal> {
    let object = ObjectId(d.u32()?);
    let n = d.len_of()?;
    let mut path = Vec::with_capacity(n);
    for _ in 0..n {
        path.push(d.u32()?);
    }
    Ok(PtrVal { object, path })
}

fn enc_location(e: &mut Enc, l: &Location) {
    e.u32(l.object.0);
    e.len_of(l.path.len());
    for &seg in &l.path {
        e.u32(seg);
    }
}

fn dec_location(d: &mut Dec) -> DecResult<Location> {
    let object = ObjectId(d.u32()?);
    let n = d.len_of()?;
    let mut path = Vec::with_capacity(n);
    for _ in 0..n {
        path.push(d.u32()?);
    }
    Ok(Location { object, path })
}

pub fn enc_value(e: &mut Enc, v: &Value) {
    match v {
        Value::Int { ty, val } => {
            e.u8(0);
            enc_int_type(e, ty);
            e.i128(*val);
        }
        Value::MathInt(val) => {
            e.u8(1);
            e.i128(*val);
        }
        Value::Bool(b) => {
            e.u8(2);
            e.bool(*b);
        }
        Value::Ptr(p) => {
            e.u8(3);
            match p {
                None => e.bool(false),
                Some(ptr) => {
                    e.bool(true);
                    enc_ptr_val(e, ptr);
                }
            }
        }
        Value::Seq(elems) => {
            e.u8(4);
            e.len_of(elems.len());
            for elem in elems {
                enc_value(e, elem);
            }
        }
        Value::Set(elems) => {
            e.u8(5);
            e.len_of(elems.len());
            for elem in elems {
                enc_value(e, elem);
            }
        }
        Value::Map(entries) => {
            e.u8(6);
            e.len_of(entries.len());
            for (k, val) in entries {
                enc_value(e, k);
                enc_value(e, val);
            }
        }
        Value::Opt(inner) => {
            e.u8(7);
            match inner {
                None => e.bool(false),
                Some(boxed) => {
                    e.bool(true);
                    enc_value(e, boxed);
                }
            }
        }
    }
}

pub fn dec_value(d: &mut Dec) -> DecResult<Value> {
    Ok(match d.u8()? {
        0 => {
            let ty = dec_int_type(d)?;
            let val = d.i128()?;
            Value::Int { ty, val }
        }
        1 => Value::MathInt(d.i128()?),
        2 => Value::Bool(d.bool()?),
        3 => Value::Ptr(if d.bool()? {
            Some(dec_ptr_val(d)?)
        } else {
            None
        }),
        4 => {
            let n = d.len_of()?;
            let mut elems = Vec::with_capacity(n);
            for _ in 0..n {
                elems.push(dec_value(d)?);
            }
            Value::Seq(elems)
        }
        5 => {
            let n = d.len_of()?;
            let mut elems = BTreeSet::new();
            for _ in 0..n {
                elems.insert(dec_value(d)?);
            }
            Value::Set(elems)
        }
        6 => {
            let n = d.len_of()?;
            let mut entries = BTreeMap::new();
            for _ in 0..n {
                let k = dec_value(d)?;
                let v = dec_value(d)?;
                entries.insert(k, v);
            }
            Value::Map(entries)
        }
        7 => Value::Opt(if d.bool()? {
            Some(Box::new(dec_value(d)?))
        } else {
            None
        }),
        tag => return Err(CodecError(format!("bad value tag {tag}"))),
    })
}

fn enc_mem_node(e: &mut Enc, n: &MemNode) {
    match n {
        MemNode::Leaf(v) => {
            e.u8(0);
            enc_value(e, v);
        }
        MemNode::Array(children) => {
            e.u8(1);
            e.len_of(children.len());
            for child in children {
                enc_mem_node(e, child);
            }
        }
        MemNode::Struct(fields) => {
            e.u8(2);
            e.len_of(fields.len());
            for (name, child) in fields {
                e.str(name);
                enc_mem_node(e, child);
            }
        }
    }
}

fn dec_mem_node(d: &mut Dec) -> DecResult<MemNode> {
    Ok(match d.u8()? {
        0 => MemNode::Leaf(dec_value(d)?),
        1 => {
            let n = d.len_of()?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(dec_mem_node(d)?);
            }
            MemNode::Array(children)
        }
        2 => {
            let n = d.len_of()?;
            let mut fields = Vec::with_capacity(n);
            for _ in 0..n {
                let name = d.str()?;
                fields.push((name, dec_mem_node(d)?));
            }
            MemNode::Struct(fields)
        }
        tag => return Err(CodecError(format!("bad memnode tag {tag}"))),
    })
}

const UB_REASONS: [UbReason; 11] = [
    UbReason::NullDereference,
    UbReason::FreedAccess,
    UbReason::OutOfBounds,
    UbReason::DivisionByZero,
    UbReason::InvalidShift,
    UbReason::CrossArrayPointerOp,
    UbReason::RequiresViolated,
    UbReason::GhostPartialOperation,
    UbReason::InvalidJoin,
    UbReason::InvalidDealloc,
    UbReason::MathOverflow,
];

fn enc_ub_reason(e: &mut Enc, r: &UbReason) {
    let tag = UB_REASONS
        .iter()
        .position(|candidate| candidate == r)
        .expect("every UbReason is in the table") as u8;
    e.u8(tag);
}

fn dec_ub_reason(d: &mut Dec) -> DecResult<UbReason> {
    let tag = d.u8()? as usize;
    UB_REASONS
        .get(tag)
        .cloned()
        .ok_or_else(|| CodecError(format!("bad ub tag {tag}")))
}

fn enc_pc(e: &mut Enc, pc: &Pc) {
    e.u32(pc.routine);
    e.u32(pc.instr);
}

fn dec_pc(d: &mut Dec) -> DecResult<Pc> {
    Ok(Pc {
        routine: d.u32()?,
        instr: d.u32()?,
    })
}

fn enc_termination(e: &mut Enc, t: &Termination) {
    match t {
        Termination::Running => e.u8(0),
        Termination::Exited => e.u8(1),
        Termination::AssertFailed(pc) => {
            e.u8(2);
            enc_pc(e, pc);
        }
        Termination::UndefinedBehavior(reason) => {
            e.u8(3);
            enc_ub_reason(e, reason);
        }
    }
}

fn dec_termination(d: &mut Dec) -> DecResult<Termination> {
    Ok(match d.u8()? {
        0 => Termination::Running,
        1 => Termination::Exited,
        2 => Termination::AssertFailed(dec_pc(d)?),
        3 => Termination::UndefinedBehavior(dec_ub_reason(d)?),
        tag => return Err(CodecError(format!("bad termination tag {tag}"))),
    })
}

fn enc_frame(e: &mut Enc, f: &Frame) {
    e.u32(f.routine);
    e.len_of(f.locals.len());
    for local in f.locals.iter() {
        match local {
            LocalCell::Val(node) => {
                e.u8(0);
                enc_mem_node(e, node);
            }
            LocalCell::Obj(id) => {
                e.u8(1);
                e.u32(id.0);
            }
        }
    }
    match &f.call_pc {
        None => e.bool(false),
        Some(pc) => {
            e.bool(true);
            enc_pc(e, pc);
        }
    }
}

fn dec_frame(d: &mut Dec) -> DecResult<Frame> {
    let routine = d.u32()?;
    let n = d.len_of()?;
    let locals = (0..n)
        .map(|_| {
            Ok(match d.u8()? {
                0 => LocalCell::Val(dec_mem_node(d)?),
                1 => LocalCell::Obj(ObjectId(d.u32()?)),
                tag => return Err(CodecError(format!("bad local tag {tag}"))),
            })
        })
        .collect::<DecResult<_>>()?;
    let call_pc = if d.bool()? { Some(dec_pc(d)?) } else { None };
    Ok(Frame {
        routine,
        locals,
        call_pc,
    })
}

fn enc_thread(e: &mut Enc, t: &ThreadState) {
    enc_pc(e, &t.pc);
    e.len_of(t.frames.len());
    for frame in t.frames.iter() {
        enc_frame(e, frame);
    }
    e.len_of(t.buffer.len());
    for write in t.buffer.iter() {
        enc_location(e, &write.loc);
        enc_value(e, &write.value);
    }
    e.u32(t.atomic_depth);
    e.u8(match t.status {
        ThreadStatus::Active => 0,
        ThreadStatus::Exited => 1,
    });
}

fn dec_thread(d: &mut Dec) -> DecResult<ThreadState> {
    let pc = dec_pc(d)?;
    let nframes = d.len_of()?;
    let frames = (0..nframes)
        .map(|_| dec_frame(d))
        .collect::<DecResult<_>>()?;
    let nbuf = d.len_of()?;
    let buffer = (0..nbuf)
        .map(|_| {
            let loc = dec_location(d)?;
            let value = dec_value(d)?;
            Ok(BufferedWrite { loc, value })
        })
        .collect::<DecResult<_>>()?;
    let atomic_depth = d.u32()?;
    let status = match d.u8()? {
        0 => ThreadStatus::Active,
        1 => ThreadStatus::Exited,
        tag => return Err(CodecError(format!("bad thread status {tag}"))),
    };
    Ok(ThreadState {
        pc,
        frames,
        buffer,
        atomic_depth,
        status,
    })
}

fn enc_heap(e: &mut Enc, heap: &Heap) {
    e.len_of(heap.len());
    for obj in heap.objects() {
        enc_mem_node(e, &obj.node);
        e.u8(match obj.status {
            AllocStatus::Valid => 0,
            AllocStatus::Freed => 1,
        });
        e.u8(match obj.kind {
            RootKind::Static => 0,
            RootKind::Malloc => 1,
            RootKind::Calloc => 2,
        });
    }
}

fn dec_heap(d: &mut Dec) -> DecResult<Heap> {
    let n = d.len_of()?;
    let mut objects = Vec::with_capacity(n);
    for _ in 0..n {
        let node = dec_mem_node(d)?;
        let status = match d.u8()? {
            0 => AllocStatus::Valid,
            1 => AllocStatus::Freed,
            tag => return Err(CodecError(format!("bad alloc status {tag}"))),
        };
        let kind = match d.u8()? {
            0 => RootKind::Static,
            1 => RootKind::Malloc,
            2 => RootKind::Calloc,
            tag => return Err(CodecError(format!("bad root kind {tag}"))),
        };
        objects.push(Arc::new(HeapObject { node, status, kind }));
    }
    Ok(Heap::from_objects(objects))
}

/// Encodes a full program state into `e`.
pub fn enc_state(e: &mut Enc, state: &ProgState) {
    e.len_of(state.threads.len());
    for (tid, thread) in &state.threads {
        e.u64(*tid);
        enc_thread(e, thread);
    }
    enc_heap(e, &state.heap);
    e.len_of(state.ghosts.len());
    for ghost in state.ghosts.iter() {
        enc_value(e, ghost);
    }
    e.len_of(state.log.len());
    for event in state.log.iter() {
        enc_value(e, event);
    }
    enc_termination(e, &state.termination);
    e.u64(state.next_tid);
}

/// Decodes a full program state.
pub fn dec_state(d: &mut Dec) -> DecResult<ProgState> {
    let nthreads = d.len_of()?;
    let mut threads = Vec::new();
    for _ in 0..nthreads {
        let tid = d.u64()?;
        // The thread table is sorted by tid and looked up by binary search:
        // a repeated or out-of-order tid is a malformed record.
        if let Some(&(prev, _)) = threads.last() {
            if tid <= prev {
                return Err(CodecError(format!(
                    "thread tids not strictly increasing: {tid} after {prev}"
                )));
            }
        }
        threads.push((tid, dec_thread(d)?));
    }
    let heap = dec_heap(d)?;
    let nghosts = d.len_of()?;
    let ghosts = (0..nghosts)
        .map(|_| dec_value(d))
        .collect::<DecResult<_>>()?;
    let nlog = d.len_of()?;
    let log = (0..nlog).map(|_| dec_value(d)).collect::<DecResult<_>>()?;
    let termination = dec_termination(d)?;
    let next_tid = d.u64()?;
    Ok(ProgState {
        threads: threads.into_iter().collect(),
        heap,
        ghosts,
        log,
        termination,
        next_tid,
    })
}

/// Convenience: one state to an owned byte vector.
pub fn state_to_bytes(state: &ProgState) -> Vec<u8> {
    let mut e = Enc::new();
    enc_state(&mut e, state);
    e.into_bytes()
}

/// Convenience: one state from a byte slice (must consume every byte).
pub fn state_from_bytes(bytes: &[u8]) -> DecResult<ProgState> {
    let mut d = Dec::new(bytes);
    let state = dec_state(&mut d)?;
    if !d.at_end() {
        return Err(CodecError("trailing bytes after state".into()));
    }
    Ok(state)
}

/// Encodes a step (for checkpointed traces).
pub fn enc_step(e: &mut Enc, step: &Step) {
    e.u64(step.tid);
    match &step.kind {
        StepKind::Drain => e.u8(0),
        StepKind::Instr { nondets } => {
            e.u8(1);
            e.len_of(nondets.len());
            for v in nondets {
                enc_value(e, v);
            }
        }
    }
}

/// Decodes a step.
pub fn dec_step(d: &mut Dec) -> DecResult<Step> {
    let mut nondets = Vec::new();
    let (tid, instr) = dec_step_with(d, |value| nondets.push(value))?;
    let kind = if instr {
        StepKind::Instr { nondets }
    } else {
        StepKind::Drain
    };
    Ok(Step { tid, kind })
}

/// Decodes a step without building it, dropping each nondet value once it
/// is decoded: accepts exactly the encodings [`dec_step`] accepts, and
/// allocates only for values that own heap data.
pub fn skip_step(d: &mut Dec) -> DecResult<()> {
    dec_step_with(d, drop).map(drop)
}

/// The step decoder behind [`dec_step`] and [`skip_step`]: the acting tid
/// and whether the step is an instruction, with each nondet value handed
/// to `nondet` in order.
fn dec_step_with(d: &mut Dec, mut nondet: impl FnMut(Value)) -> DecResult<(u64, bool)> {
    let tid = d.u64()?;
    match d.u8()? {
        0 => Ok((tid, false)),
        1 => {
            for _ in 0..d.len_of()? {
                nondet(dec_value(d)?);
            }
            Ok((tid, true))
        }
        tag => Err(CodecError(format!("bad step tag {tag}"))),
    }
}

// ---------------------------------------------------------------------------
// Atomic checksummed files
// ---------------------------------------------------------------------------

/// Magic prefix of every spill/checkpoint file, versioned so a format
/// change invalidates stale files instead of misreading them.
const FILE_MAGIC: &[u8; 8] = b"armspl1\n";

static TEMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// Writes `payload` to `path` crash-safely: magic + payload + FNV-1a
/// checksum go to a same-directory temp file, then `rename` into place.
/// Readers therefore observe the old file, the new file, or no file —
/// never a torn mix.
pub fn write_atomic(path: &Path, payload: &[u8]) -> std::io::Result<()> {
    let nonce = TEMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let tmp = dir.join(format!(
        ".tmp-{}-{nonce}-{}",
        std::process::id(),
        path.file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "spill".into())
    ));
    let checksum = fnv1a_64(payload);
    {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(FILE_MAGIC)?;
        file.write_all(&(payload.len() as u64).to_le_bytes())?;
        file.write_all(payload)?;
        file.write_all(&checksum.to_le_bytes())?;
        file.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => Ok(()),
        Err(err) => {
            let _ = fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// Verifies an in-memory image of a [`write_atomic`] file (magic, length,
/// checksum) and returns its payload. `path` only labels errors.
pub fn verify_bytes(raw: &[u8], path: &Path) -> Result<Vec<u8>, String> {
    if raw.len() < FILE_MAGIC.len() + 16 {
        return Err(format!("{}: truncated header", path.display()));
    }
    if &raw[..FILE_MAGIC.len()] != FILE_MAGIC {
        return Err(format!("{}: bad magic", path.display()));
    }
    let mut off = FILE_MAGIC.len();
    let len = u64::from_le_bytes(raw[off..off + 8].try_into().unwrap()) as usize;
    off += 8;
    if raw.len() != off + len + 8 {
        return Err(format!(
            "{}: length mismatch (header says {len}, file holds {})",
            path.display(),
            raw.len().saturating_sub(off + 8)
        ));
    }
    let payload = &raw[off..off + len];
    let stored = u64::from_le_bytes(raw[off + len..].try_into().unwrap());
    let actual = fnv1a_64(payload);
    if stored != actual {
        return Err(format!(
            "{}: checksum mismatch (stored {stored:016x}, computed {actual:016x})",
            path.display()
        ));
    }
    Ok(payload.to_vec())
}

/// Reads a file written by [`write_atomic`], verifying magic, length, and
/// checksum. Returns the payload, or an error naming what was wrong.
pub fn read_verified(path: &Path) -> Result<Vec<u8>, String> {
    let raw = fs::read(path).map_err(|err| format!("{}: {err}", path.display()))?;
    verify_bytes(&raw, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::StateArena;
    use crate::explore::{explore, Bounds};
    use crate::lower::lower;
    use crate::state::Tid;

    fn program(source: &str) -> crate::program::Program {
        let module = armada_lang::parse_module(source).expect("parse");
        let typed = armada_lang::check_module(&module).expect("check");
        lower(&typed, "L").expect("lower")
    }

    #[test]
    fn every_explored_state_round_trips_exactly() {
        // A subject that exercises threads, TSO buffers, heap allocation,
        // ghosts, and the log — every codec branch that exploration hits.
        let prog = program(
            r#"level L {
                var x: uint32;
                ghost var g: int := 3;
                void worker() {
                    var cell: ptr<uint32> := malloc(uint32);
                    *cell := 5;
                    x := x + 1;
                    dealloc cell;
                }
                void main() {
                    var t: uint64 := create_thread worker();
                    x := 1;
                    join t;
                    print(x);
                }
            }"#,
        );
        let result = explore(&prog, &Bounds::small());
        assert!(result.arena.len() > 10, "subject must produce real states");
        for state in result.arena.iter() {
            let bytes = state_to_bytes(state);
            let back = state_from_bytes(&bytes).expect("round trip");
            assert_eq!(*state, back);
            assert_eq!(
                StateArena::fingerprint(state),
                StateArena::fingerprint(&back),
                "fingerprints must survive the round trip"
            );
        }
    }

    #[test]
    fn ghost_collection_values_round_trip() {
        let mut set = BTreeSet::new();
        set.insert(Value::MathInt(-7));
        set.insert(Value::Bool(true));
        let mut map = BTreeMap::new();
        map.insert(Value::MathInt(1), Value::Seq(vec![Value::MathInt(2)]));
        let samples = vec![
            Value::int(IntType::I8, -5),
            Value::MathInt(i128::MAX),
            Value::Ptr(Some(PtrVal {
                object: ObjectId(3),
                path: vec![0, 2],
            })),
            Value::Set(set),
            Value::Map(map),
            Value::Opt(Some(Box::new(Value::Bool(false)))),
            Value::Opt(None),
        ];
        for v in &samples {
            let mut e = Enc::new();
            enc_value(&mut e, v);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(dec_value(&mut d).expect("decode"), *v);
            assert!(d.at_end());
        }
    }

    /// A state with an empty heap, no ghosts and no log whose thread
    /// table lists `tids` in the given order.
    fn hand_encoded_state(tids: &[Tid]) -> Vec<u8> {
        let frame = Frame {
            routine: 0,
            locals: Arc::default(),
            call_pc: None,
        };
        let thread = ThreadState::new(Pc::new(0, 0), frame);
        let mut e = Enc::new();
        e.len_of(tids.len());
        for &tid in tids {
            e.u64(tid);
            enc_thread(&mut e, &thread);
        }
        enc_heap(&mut e, &Heap::new());
        e.len_of(0);
        e.len_of(0);
        enc_termination(&mut e, &Termination::Running);
        e.u64(tids.len() as u64 + 1);
        e.into_bytes()
    }

    #[test]
    fn dec_state_rejects_unsorted_or_repeated_tids() {
        let sorted = state_from_bytes(&hand_encoded_state(&[1, 2])).expect("sorted tids");
        assert_eq!(sorted.threads.keys().copied().collect::<Vec<_>>(), [1, 2]);
        for tids in [[2, 1], [1, 1]] {
            let err = state_from_bytes(&hand_encoded_state(&tids)).unwrap_err();
            assert!(err.0.contains("strictly increasing"), "{tids:?}: {err:?}");
        }
    }

    #[test]
    fn steps_round_trip() {
        let samples = vec![
            Step::drain(3),
            Step::instr(1),
            Step::instr_with(2, vec![Value::MathInt(9), Value::Bool(true)]),
        ];
        for step in &samples {
            let mut e = Enc::new();
            enc_step(&mut e, step);
            let bytes = e.into_bytes();
            let mut d = Dec::new(&bytes);
            assert_eq!(dec_step(&mut d).expect("decode"), *step);
            assert!(d.at_end());
        }
    }

    #[test]
    fn varints_round_trip_in_their_shortest_form_only() {
        let mut e = Enc::varint();
        e.u32(u32::MAX);
        e.u64(0);
        e.u64(127);
        e.u64(128);
        e.u64(u64::MAX);
        for v in [0, -1, 1, 7, i128::MIN, i128::MAX] {
            e.i128(v);
        }
        enc_step(&mut e, &Step::instr_with(300, vec![Value::MathInt(-2)]));
        let bytes = e.into_bytes();
        let mut d = Dec::varint(&bytes);
        assert_eq!(d.u32(), Ok(u32::MAX));
        assert_eq!(
            [d.u64(), d.u64(), d.u64(), d.u64()],
            [Ok(0), Ok(127), Ok(128), Ok(u64::MAX)]
        );
        for v in [0, -1, 1, 7, i128::MIN, i128::MAX] {
            assert_eq!(d.i128(), Ok(v));
        }
        assert_eq!(
            dec_step(&mut d),
            Ok(Step::instr_with(300, vec![Value::MathInt(-2)]))
        );
        assert!(d.at_end());
        // 1 = [0x01]; [0x81, 0x00] spells it overlong. 2^32 overflows a u32,
        // and an eleventh byte overflows a u64.
        let reject = |bytes: &[u8], read: fn(&mut Dec) -> DecResult<u64>| {
            read(&mut Dec::varint(bytes)).unwrap_err().0
        };
        assert!(reject(&[0x81, 0x00], |d| d.u64()).contains("overlong"));
        assert!(
            reject(&[0x80, 0x80, 0x80, 0x80, 0x10], |d| d.u32().map(u64::from))
                .contains("overflows 32 bits")
        );
        let eleven = [
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x01,
        ];
        assert!(reject(&eleven, |d| d.u64()).contains("overflows 64 bits"));
        assert!(reject(&[0x80], |d| d.u64()).contains("truncated"));
    }

    #[test]
    fn atomic_files_verify_and_reject_corruption() {
        let dir = std::env::temp_dir().join(format!("armada-codec-test-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("page.bin");
        let payload = b"the quick brown fox".to_vec();
        write_atomic(&path, &payload).unwrap();
        assert_eq!(read_verified(&path).unwrap(), payload);

        // Flip one payload byte: checksum must catch it.
        let mut raw = fs::read(&path).unwrap();
        let mid = FILE_MAGIC.len() + 8 + 4;
        raw[mid] ^= 0x40;
        fs::write(&path, &raw).unwrap();
        assert!(read_verified(&path).unwrap_err().contains("checksum"));

        // Truncate: length check must catch it.
        raw.truncate(raw.len() - 3);
        fs::write(&path, &raw).unwrap();
        assert!(read_verified(&path)
            .unwrap_err()
            .contains("length mismatch"));
        let _ = fs::remove_dir_all(&dir);
    }
}
