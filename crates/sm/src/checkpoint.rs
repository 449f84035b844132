//! Wave-boundary checkpointing for the exploration engine.
//!
//! The engine commits in deterministic wave order, so a wave boundary is a
//! complete, replayable description of progress: the arena prefix (the
//! seen set, in interning order), the frontier of ids, the transition
//! counters, and the terminal-class id lists. A checkpoint is exactly
//! that, persisted **log-structured**:
//!
//! - `states.log` — an append-only [`codec::Log`]: one checksummed record
//!   (fingerprint, then state bytes) per interned state, written
//!   incrementally (only states new since the last save).
//! - `manifest.bin` — small, rewritten atomically each save
//!   ([`crate::codec::write_atomic`]): a semantic guard, the count of
//!   valid states, the valid byte length of the log, the frontier, and
//!   the counters.
//!
//! The log is appended and synced *before* the manifest renames into
//! place, so a crash at any instant leaves either the old manifest (whose
//! prefix of the log is intact — the torn tail past its recorded length
//! is ignored and truncated away on resume) or the new one (whose longer
//! prefix was durable first). Resume loads exactly what a completed save
//! wrote, or nothing — in which case the engine starts cold, which is
//! always sound, just slower.

use std::fs;
use std::path::PathBuf;

use crate::arena::{StateArena, StateId};
use crate::codec::{self, Dec, Enc, Log};
use crate::state::ProgState;

/// Where (and whether) an engine run checkpoints and resumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointSpec {
    /// Directory holding `states.log` and `manifest.bin`.
    pub dir: PathBuf,
    /// Attempt to resume from an existing checkpoint in `dir` before
    /// starting cold.
    pub resume: bool,
}

impl CheckpointSpec {
    /// A spec that checkpoints into `dir` without resuming.
    pub fn new(dir: PathBuf) -> CheckpointSpec {
        CheckpointSpec { dir, resume: false }
    }

    /// The same spec with resume on or off.
    pub fn with_resume(mut self, resume: bool) -> CheckpointSpec {
        self.resume = resume;
        self
    }
}

/// Shadow id lists for the terminal classes, maintained during commit so
/// a save never has to look states back up.
#[derive(Default)]
pub(crate) struct TerminalIds {
    pub exited: Vec<u32>,
    pub assert_failures: Vec<u32>,
    pub ub_states: Vec<u32>,
    pub stuck: Vec<u32>,
}

/// Everything a resumed run needs to continue at a wave boundary.
pub(crate) struct ResumeData {
    /// `(fingerprint, state)` in interning order.
    pub states: Vec<(u64, ProgState)>,
    pub wave: Vec<u32>,
    pub transitions: u64,
    pub micro_steps: u64,
    pub terminals: TerminalIds,
}

const MANIFEST: &str = "manifest.bin";
const STATES_LOG: &str = "states.log";

/// The exploration checkpoint writer/loader for one engine run.
pub(crate) struct ExploreCheckpoint {
    dir: PathBuf,
    guard: u64,
    states: Log,
}

impl ExploreCheckpoint {
    pub fn new(dir: PathBuf, guard: u64) -> std::io::Result<ExploreCheckpoint> {
        fs::create_dir_all(&dir)?;
        Ok(ExploreCheckpoint {
            states: Log::new(dir.join(STATES_LOG)),
            dir,
            guard,
        })
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Attempts to load a checkpoint left by a previous run. Any defect —
    /// missing files, torn manifest, guard mismatch, bad record checksum
    /// — yields `None` and clears the directory for a cold start.
    pub fn try_resume(&mut self) -> Option<ResumeData> {
        match self.load() {
            Some(data) => {
                self.states.truncate_to_valid();
                Some(data)
            }
            None => {
                self.clear();
                None
            }
        }
    }

    fn load(&mut self) -> Option<ResumeData> {
        let payload = codec::read_verified(&self.manifest_path()).ok()?;
        let mut d = Dec::new(&payload);
        let guard = d.u64().ok()?;
        if guard != self.guard {
            return None;
        }
        let count = d.len_of().ok()?;
        let log_bytes = d.u64().ok()?;
        let wave_len = d.len_of().ok()?;
        let mut wave = Vec::with_capacity(wave_len);
        for _ in 0..wave_len {
            wave.push(d.u32().ok()?);
        }
        let transitions = d.u64().ok()?;
        let micro_steps = d.u64().ok()?;
        let mut terminals = TerminalIds::default();
        for list in [
            &mut terminals.exited,
            &mut terminals.assert_failures,
            &mut terminals.ub_states,
            &mut terminals.stuck,
        ] {
            let n = d.len_of().ok()?;
            for _ in 0..n {
                list.push(d.u32().ok()?);
            }
        }
        if !d.at_end() {
            return None;
        }

        let mut states = Vec::with_capacity(count);
        for record in self.states.read(count, log_bytes)? {
            let mut d = Dec::new(&record);
            let fp = d.u64().ok()?;
            let state = codec::dec_state(&mut d).ok()?;
            if !d.at_end() {
                return None;
            }
            states.push((fp, state));
        }
        // Frontier and terminal ids must point into the loaded prefix.
        let in_range = |id: &u32| (*id as usize) < count;
        if !wave.iter().all(in_range)
            || !terminals.exited.iter().all(in_range)
            || !terminals.assert_failures.iter().all(in_range)
            || !terminals.ub_states.iter().all(in_range)
            || !terminals.stuck.iter().all(in_range)
        {
            return None;
        }
        Some(ResumeData {
            states,
            wave,
            transitions,
            micro_steps,
            terminals,
        })
    }

    /// Removes checkpoint files (cold start, or cleanup after a clean
    /// completion).
    pub fn clear(&mut self) {
        let _ = fs::remove_file(self.manifest_path());
        self.states.clear();
    }

    /// Persists the wave boundary: appends the states not yet in the log,
    /// syncs it, then atomically rewrites the manifest.
    ///
    /// # Panics
    ///
    /// Panics on I/O failure — a checkpoint directory that stops
    /// accepting writes is an operator problem; continuing silently would
    /// leave a stale checkpoint pretending to be current.
    pub fn save(
        &mut self,
        arena: &mut StateArena,
        wave: &[StateId],
        transitions: usize,
        micro_steps: usize,
        terminals: &TerminalIds,
    ) {
        let records: Vec<Vec<u8>> = (self.states.saved()..arena.len())
            .map(|id| {
                let id = StateId(id as u32);
                let mut enc = Enc::new();
                enc.u64(arena.fp_of(id));
                codec::enc_state(&mut enc, &arena.get_arc_mut(id));
                enc.into_bytes()
            })
            .collect();
        self.states.append(&records);

        let mut enc = Enc::new();
        enc.u64(self.guard);
        enc.len_of(self.states.saved());
        enc.u64(self.states.bytes());
        enc.len_of(wave.len());
        for id in wave {
            enc.u32(id.0);
        }
        enc.u64(transitions as u64);
        enc.u64(micro_steps as u64);
        for list in [
            &terminals.exited,
            &terminals.assert_failures,
            &terminals.ub_states,
            &terminals.stuck,
        ] {
            enc.len_of(list.len());
            for id in list {
                enc.u32(*id);
            }
        }
        codec::write_atomic(&self.manifest_path(), &enc.into_bytes())
            .unwrap_or_else(|err| panic!("checkpoint: writing manifest: {err}"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore, Bounds};
    use crate::lower::lower;
    use std::io::Write as _;

    fn program() -> crate::program::Program {
        let module = armada_lang::parse_module(
            "level L { var x: uint32; void main() { while (x < 30) { x := x + 1; } print(x); } }",
        )
        .unwrap();
        let typed = armada_lang::check_module(&module).unwrap();
        lower(&typed, "L").unwrap()
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("armada-ck-{tag}-{}", std::process::id()))
    }

    #[test]
    fn save_load_round_trips_a_boundary() {
        let prog = program();
        let result = explore(&prog, &Bounds::small());
        let mut arena = result.arena;
        let dir = tmp("rt");
        let _ = fs::remove_dir_all(&dir);
        let mut ck = ExploreCheckpoint::new(dir.clone(), 7).unwrap();
        let wave: Vec<StateId> = vec![StateId(0), StateId(2)];
        let mut terminals = TerminalIds::default();
        terminals.exited.push(3);
        // Two incremental saves: the second appends nothing new but must
        // still refresh the manifest.
        ck.save(&mut arena, &wave, 10, 15, &terminals);
        ck.save(&mut arena, &wave, 11, 16, &terminals);

        let mut reader = ExploreCheckpoint::new(dir.clone(), 7).unwrap();
        let data = reader.try_resume().expect("resume");
        assert_eq!(data.states.len(), arena.len());
        for (i, (fp, state)) in data.states.iter().enumerate() {
            assert_eq!(*fp, arena.fp_of(StateId(i as u32)));
            assert_eq!(state, arena.get(StateId(i as u32)));
        }
        assert_eq!(data.wave, vec![0, 2]);
        assert_eq!(data.transitions, 11);
        assert_eq!(data.micro_steps, 16);
        assert_eq!(data.terminals.exited, vec![3]);

        // Wrong guard: refuse and clear.
        let mut wrong = ExploreCheckpoint::new(dir.clone(), 8).unwrap();
        assert!(wrong.try_resume().is_none());
        assert!(!dir.join(MANIFEST).exists(), "mismatch clears the files");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_manifest_and_torn_log_fall_back_to_cold_start() {
        let prog = program();
        let mut arena = explore(&prog, &Bounds::small()).arena;
        let dir = tmp("torn");
        let _ = fs::remove_dir_all(&dir);
        let mut ck = ExploreCheckpoint::new(dir.clone(), 1).unwrap();
        ck.save(&mut arena, &[StateId(0)], 1, 1, &TerminalIds::default());

        // A torn tail past the manifest's recorded length is ignored.
        {
            let mut file = fs::OpenOptions::new()
                .append(true)
                .open(dir.join(STATES_LOG))
                .unwrap();
            file.write_all(b"torn-partial-record").unwrap();
        }
        let mut reader = ExploreCheckpoint::new(dir.clone(), 1).unwrap();
        let data = reader.try_resume().expect("torn tail is harmless");
        assert_eq!(data.states.len(), arena.len());

        // A torn (truncated) manifest is rejected entirely.
        let manifest = dir.join(MANIFEST);
        let raw = fs::read(&manifest).unwrap();
        fs::write(&manifest, &raw[..raw.len() / 2]).unwrap();
        let mut reader = ExploreCheckpoint::new(dir.clone(), 1).unwrap();
        assert!(reader.try_resume().is_none());
        assert!(
            !dir.join(STATES_LOG).exists(),
            "failed resume clears the directory for a cold start"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_log_in_the_old_record_format_cold_starts() {
        // The record framing before the shared `codec::Log`:
        // `fp ++ len ++ state ++ fnv(state)`, with the fingerprint outside
        // the checksum. It has the same length as the current framing, so
        // only the framing itself can reject it.
        let prog = program();
        let mut arena = explore(&prog, &Bounds::small()).arena;
        let dir = tmp("old-format");
        let _ = fs::remove_dir_all(&dir);
        let mut ck = ExploreCheckpoint::new(dir.clone(), 1).unwrap();
        ck.save(&mut arena, &[StateId(0)], 1, 1, &TerminalIds::default());
        let mut old = Enc::new();
        for id in 0..arena.len() {
            let id = StateId(id as u32);
            let bytes = codec::state_to_bytes(arena.get(id));
            old.u64(arena.fp_of(id));
            old.bytes(&bytes);
            old.u64(armada_runtime::fnv1a_64(&bytes));
        }
        let old = old.into_bytes();
        assert_eq!(old.len() as u64, ck.states.bytes());
        fs::write(dir.join(STATES_LOG), old).unwrap();

        let mut reader = ExploreCheckpoint::new(dir.clone(), 1).unwrap();
        assert!(reader.try_resume().is_none());
        assert!(
            !dir.join(STATES_LOG).exists(),
            "a cold start clears the log"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
