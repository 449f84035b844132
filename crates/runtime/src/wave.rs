//! The wave scheduler: every compute fan-out in the checker runs through
//! one entry point, [`map`], a one-shot fork-join whose workers claim
//! items dynamically and whose results come back in index order.
//!
//! Its callers differ only in what an item is:
//!
//! - the pipeline's recipes and the antichain's shards are a handful of
//!   heavy, uneven items, mapped one per claim;
//! - the state-space engines' waves are thousands of microsecond-sized
//!   slots, mapped in [`CHUNK`]-slot chunks so one claim amortizes over
//!   many slots. The calling thread builds the inputs before the call and
//!   commits the results in slot order after it. Waves for which
//!   [`runs_inline`] holds skip the workers: below three chunks, spawning
//!   costs more than the parallelism buys.
//!
//! The contract:
//!
//! - with `jobs = 1` (or one item) everything runs inline on the caller's
//!   thread; that path is the reference semantics every parallel run
//!   reproduces;
//! - a panic is caught per item and travels back as a [`Panic`] value at
//!   that index, so callers can re-raise the lowest failing slot's payload
//!   — the workers have been joined by then, and the surfaced failure is
//!   the same at any job count;
//! - workers touch no telemetry: a caller that times its work returns the
//!   sample with each result and records it on the calling thread.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A caught panic payload, carried back to the caller as a value.
pub type Panic = Box<dyn Any + Send>;

/// Consecutive wave slots per [`map`] item in the engines. One claim per
/// slot made the handoff cost visible on small subjects; chunking
/// amortizes it.
pub const CHUNK: usize = 16;

/// Waves narrower than this many slots (three chunks) run inline even
/// when `jobs > 1`.
const NARROW_WAVE: usize = 3 * CHUNK;

/// Telemetry counter: wave chunks handed to [`map`] workers.
pub const BATCHES: &str = "wave.batches";

/// True when a wave of `width` slots runs inline on the calling thread.
pub fn runs_inline(jobs: usize, width: usize) -> bool {
    jobs <= 1 || width < NARROW_WAVE
}

/// Applies `f` to every item on up to `jobs` threads and returns the
/// results in index order, each slot's panic caught as a value. Workers
/// claim items dynamically, so uneven items balance; with one worker (or
/// one item) everything runs inline on the caller's thread.
pub fn map<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(usize, &T) -> R + Sync,
) -> Vec<Result<R, Panic>> {
    let run = |index: usize| catch_unwind(AssertUnwindSafe(|| f(index, &items[index])));
    let workers = jobs.min(items.len());
    if workers <= 1 {
        return (0..items.len()).map(run).collect();
    }
    let cursor = AtomicUsize::new(0);
    let claimed: Vec<Vec<(usize, Result<R, Panic>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items.len() {
                            break mine;
                        }
                        mine.push((index, run(index)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("map workers catch every item panic"))
            .collect()
    });
    let mut slots: Vec<Option<Result<R, Panic>>> = (0..items.len()).map(|_| None).collect();
    for (index, out) in claimed.into_iter().flatten() {
        slots[index] = Some(out);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every item claimed once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn message(payload: &Panic) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string payload")
    }

    /// Maps one wave of `width` slots (input = slot index, result = input
    /// squared) the way the engines do — in `CHUNK`-slot chunks, inline
    /// when narrow — and flattens the results in slot order.
    fn squares(jobs: usize, width: usize) -> Vec<usize> {
        let inputs: Vec<usize> = (0..width).collect();
        let chunks: Vec<&[usize]> = inputs.chunks(CHUNK).collect();
        let workers = if runs_inline(jobs, width) { 1 } else { jobs };
        map(workers, &chunks, |_, chunk| {
            chunk.iter().map(|x| x * x).collect::<Vec<_>>()
        })
        .into_iter()
        .flat_map(|chunk| chunk.expect("no panic"))
        .collect()
    }

    #[test]
    fn chunked_waves_commit_every_slot_in_order() {
        let expected: Vec<usize> = (0..1000).map(|s| s * s).collect();
        assert_eq!(squares(4, 1000), expected);
    }

    #[test]
    fn inline_and_chunked_waves_are_identical() {
        for width in [0, 1, NARROW_WAVE - 1, NARROW_WAVE, NARROW_WAVE + 1, 333] {
            assert_eq!(squares(1, width), squares(4, width), "width={width}");
            assert_eq!(
                runs_inline(4, width),
                width < NARROW_WAVE,
                "width={width}: only waves of three chunks or more use workers"
            );
        }
        assert!(runs_inline(1, 1000), "jobs = 1 is always inline");
    }

    #[test]
    fn more_jobs_than_batches_still_commits_in_order() {
        let expected: Vec<usize> = (0..NARROW_WAVE).map(|s| s * s).collect();
        assert_eq!(
            squares(8, NARROW_WAVE),
            expected,
            "three chunks, eight jobs"
        );
        let mapped = map(8, &[3usize, 1, 2], |i, &x| i * 10 + x);
        let mapped: Vec<usize> = mapped.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(mapped, vec![3, 11, 22]);
    }

    #[test]
    fn a_panicking_slot_comes_back_at_its_own_slot_and_the_call_returns() {
        let items: Vec<usize> = (0..300).collect();
        let outcomes = map(4, &items, |_, &x| {
            if x == 77 {
                panic!("slot 77 exploded");
            }
            x
        });
        assert_eq!(outcomes.len(), 300, "later slots still arrive");
        for (slot, out) in outcomes.into_iter().enumerate() {
            match out.map_err(|p| message(&p)) {
                Err(text) => {
                    assert_eq!(slot, 77);
                    assert_eq!(text, "slot 77 exploded");
                }
                Ok(value) => assert_eq!(value, slot, "slot order"),
            }
        }

        let mapped = map(4, &[0usize, 1, 2, 3, 4, 5], |_, &x| {
            if x % 2 == 1 {
                panic!("odd item {x}");
            }
            x
        });
        let texts: Vec<String> = mapped
            .into_iter()
            .map(|r| match r {
                Ok(x) => x.to_string(),
                Err(p) => message(&p),
            })
            .collect();
        assert_eq!(
            texts,
            ["0", "odd item 1", "2", "odd item 3", "4", "odd item 5"]
        );
    }

    #[test]
    fn a_panic_on_the_calling_thread_is_caught_at_its_slot() {
        // With one worker every item runs on the caller's own thread; a
        // panic there must come back as a value exactly as it does from a
        // worker, with the later items still run.
        let caller = std::thread::current().id();
        let items: Vec<usize> = (0..10).collect();
        let outcomes = map(1, &items, |_, &x| {
            assert_eq!(std::thread::current().id(), caller, "inline");
            if x == 4 {
                panic!("caller slot gave up");
            }
            x
        });
        let texts: Vec<String> = outcomes
            .into_iter()
            .map(|r| r.map_or_else(|p| message(&p), |x| x.to_string()))
            .collect();
        let mut expected: Vec<String> = (0..10).map(|x| x.to_string()).collect();
        expected[4] = "caller slot gave up".into();
        assert_eq!(texts, expected);
    }

    #[test]
    fn map_returns_results_in_index_order() {
        let items: Vec<u64> = (0..40).collect();
        for jobs in [1, 2, 5] {
            let out: Vec<u64> = map(jobs, &items, |i, &x| i as u64 + x)
                .into_iter()
                .map(|r| r.expect("no panic"))
                .collect();
            assert_eq!(
                out,
                (0..40).map(|x| 2 * x).collect::<Vec<_>>(),
                "jobs={jobs}"
            );
        }
        assert!(map(4, &[] as &[u8], |_, &x| x).is_empty());
    }
}
