//! The wave scheduler: every compute fan-out in the checker runs here.
//!
//! Two traffic shapes get two entry points:
//!
//! - [`Pool`] serves the state-space engines, which stream thousands of
//!   microsecond-sized slots per run. It keeps `jobs` persistent workers
//!   for one engine run and hands them batches of `BATCH` consecutive
//!   slots over SPSC rings ([`crate::ring`]). Batch `b` always goes to
//!   worker `b % jobs` and rings are FIFO, so popping out-ring `b % jobs`
//!   for batch `b` yields results in slot order with no reorder buffer.
//!   Waves narrower than `NARROW_WAVE` run inline: below three batches,
//!   handoff latency costs more than the parallelism buys.
//! - [`map`] serves a handful of heavy, uneven items (pipeline recipes,
//!   antichain shards): a one-shot fork-join whose workers claim items
//!   dynamically and whose results come back in index order.
//!
//! Both share one contract:
//!
//! - with `jobs = 1` the work runs inline on the caller's thread; that
//!   path is the reference semantics every parallel run reproduces;
//! - a panic is caught per slot and travels back as a [`Panic`] value at
//!   that slot, so callers can re-raise the lowest failing slot's payload
//!   after the workers have been joined — the surfaced failure is the same
//!   at any job count, and no worker is ever stranded;
//! - each pool worker records into its own [`StageTelemetry`], merged at
//!   join; the work closure receives it, so each engine keeps its own
//!   recording policy.

use crate::ring::{ring, Backoff, Consumer, Producer};
use crate::telemetry::StageTelemetry;
use std::any::Any;
use std::ops::ControlFlow;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A caught panic payload, carried back to the caller as a value.
pub type Panic = Box<dyn Any + Send>;

/// Consecutive wave slots per ring handoff. One push/pop per slot made
/// the handoff cost visible on small subjects; batching amortizes it.
const BATCH: usize = 16;

/// Waves narrower than this many slots (three batches) run inline even
/// when the pool has workers.
const NARROW_WAVE: usize = 3 * BATCH;

/// Capacity of each ring, in batches. Bounds in-flight work — and thus
/// memory and early-stop overshoot — while keeping workers fed across
/// commit stalls.
const RING_CAPACITY: usize = 64;

/// Telemetry counter: batches handed to pool workers over rings.
const BATCHES: &str = "wave.batches";

/// The per-slot work a [`Pool`] runs: one input in, one result out, with
/// the running thread's telemetry at hand.
type Work<'w, I, R> = &'w (dyn Fn(I, &mut StageTelemetry) -> R + Sync);

enum Msg<I> {
    Batch(Vec<I>),
    Shutdown,
}

/// One worker's ring pair, as seen from the caller's thread.
struct Lane<I, R> {
    tx: Producer<Msg<I>>,
    rx: Consumer<Vec<Result<R, Panic>>>,
}

fn run_slot<I, R>(work: Work<'_, I, R>, input: I, tel: &mut StageTelemetry) -> Result<R, Panic> {
    catch_unwind(AssertUnwindSafe(|| work(input, tel)))
}

/// Persistent workers for one engine run, fed one wave at a time with
/// [`Pool::wave`]. Created only through [`Pool::scope`].
pub struct Pool<'w, I, R> {
    work: Work<'w, I, R>,
    /// Empty when `jobs = 1`: every wave then runs inline.
    lanes: Vec<Lane<I, R>>,
    /// Inline waves' telemetry and the pool's counters.
    tel: StageTelemetry,
}

impl<'w, I: Send, R: Send> Pool<'w, I, R> {
    /// Starts `jobs` workers running `work` (none when `jobs <= 1`), runs
    /// `body` with the pool on this thread, then shuts the workers down
    /// and joins them. Returns `body`'s value and the merged telemetry of
    /// every worker plus the pool's own counters. A panic in `body` is
    /// re-raised after the join.
    pub fn scope<W, T>(
        jobs: usize,
        work: &'w W,
        body: impl FnOnce(&mut Pool<'w, I, R>) -> T,
    ) -> (T, StageTelemetry)
    where
        W: Fn(I, &mut StageTelemetry) -> R + Sync,
    {
        let work: Work<'w, I, R> = work;
        let mut pool = Pool {
            work,
            lanes: Vec::new(),
            tel: StageTelemetry::new(),
        };
        if jobs <= 1 {
            let out = body(&mut pool);
            return (out, pool.tel);
        }
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(jobs);
            for _ in 0..jobs {
                let (tx, mut in_rx) = ring::<Msg<I>>(RING_CAPACITY);
                let (mut out_tx, rx) = ring(RING_CAPACITY);
                pool.lanes.push(Lane { tx, rx });
                handles.push(scope.spawn(move || {
                    let mut tel = StageTelemetry::new();
                    while let Msg::Batch(inputs) = in_rx.pop() {
                        let results = inputs
                            .into_iter()
                            .map(|input| run_slot(work, input, &mut tel))
                            .collect();
                        out_tx.push(results);
                    }
                    tel
                }));
            }
            // A panic on this thread — in `body`, an `item` closure, or a
            // commit callback — must still shut the workers down, or the
            // scope would wait on them forever.
            let out = catch_unwind(AssertUnwindSafe(|| body(&mut pool)));
            // Results still in flight belong to an abandoned wave: drain
            // them uncommitted so every worker can reach its shutdown.
            let mut backoff = Backoff::new();
            for lane in &mut pool.lanes {
                let mut msg = Msg::Shutdown;
                while let Err(refused) = lane.tx.try_push(msg) {
                    msg = refused;
                    while lane.rx.try_pop().is_some() {}
                    backoff.snooze();
                }
            }
            for (lane, handle) in pool.lanes.iter_mut().zip(&handles) {
                while !handle.is_finished() {
                    while lane.rx.try_pop().is_some() {}
                    backoff.snooze();
                }
            }
            for handle in handles {
                let tel = handle.join().expect("wave workers catch every slot panic");
                pool.tel.merge(&tel);
            }
            match out {
                Ok(out) => (out, pool.tel),
                Err(payload) => resume_unwind(payload),
            }
        })
    }

    /// True when a wave of `width` slots runs inline on this thread.
    pub fn runs_inline(&self, width: usize) -> bool {
        self.lanes.is_empty() || width < NARROW_WAVE
    }

    /// Runs one wave of `width` slots. `item` builds each slot's input on
    /// this thread, lazily and in slot order; `commit` receives each
    /// slot's result on this thread, strictly in slot order. Both get
    /// `state`, which they may mutate. Returning `Break` from `commit`
    /// stops the wave: no later slot is committed, and batches already in
    /// flight are drained uncommitted before this returns.
    pub fn wave<S>(
        &mut self,
        width: usize,
        state: &mut S,
        mut item: impl FnMut(&mut S, usize) -> I,
        mut commit: impl FnMut(&mut S, usize, Result<R, Panic>) -> ControlFlow<()>,
    ) {
        if self.runs_inline(width) {
            for slot in 0..width {
                let input = item(state, slot);
                let out = run_slot(self.work, input, &mut self.tel);
                if commit(state, slot, out).is_break() {
                    return;
                }
            }
            return;
        }
        let jobs = self.lanes.len();
        let batches = width.div_ceil(BATCH);
        let (mut sent, mut done) = (0, 0);
        let mut stopped = false;
        // A built batch its ring refused: building may have cost page
        // faults, so keep it until the ring accepts rather than rebuild.
        let mut refused: Option<Msg<I>> = None;
        let mut backoff = Backoff::new();
        while done < sent || (!stopped && done < batches) {
            // A refused batch is always batch `sent`, so `sent < batches`
            // also covers retrying it.
            while !stopped && sent < batches {
                let msg = refused.take().unwrap_or_else(|| {
                    let slots = sent * BATCH..((sent + 1) * BATCH).min(width);
                    Msg::Batch(slots.map(|slot| item(state, slot)).collect())
                });
                match self.lanes[sent % jobs].tx.try_push(msg) {
                    Ok(()) => {
                        sent += 1;
                        backoff.reset();
                    }
                    Err(msg) => {
                        refused = Some(msg);
                        break;
                    }
                }
            }
            if done < sent {
                if let Some(results) = self.lanes[done % jobs].rx.try_pop() {
                    for (offset, out) in results.into_iter().enumerate() {
                        if stopped {
                            break;
                        }
                        stopped = commit(state, done * BATCH + offset, out).is_break();
                    }
                    done += 1;
                    backoff.reset();
                    continue;
                }
            }
            backoff.snooze();
        }
        self.tel.counters_mut().add(BATCHES, sent as u64);
    }
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
    use crate::telemetry::Stage;
    use std::time::Duration;

    fn message(payload: &Panic) -> String {
        payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("string payload")
    }

    /// Runs one wave of `width` slots (input = slot index, result = input
    /// squared) and returns what was committed, in commit order.
    fn squares(jobs: usize, width: usize) -> (Vec<(usize, usize)>, StageTelemetry) {
        let work = |x: usize, tel: &mut StageTelemetry| {
            tel.record_batch(Stage::Explore, Duration::from_nanos(1), 1);
            x * x
        };
        Pool::scope(jobs, &work, |pool| {
            let mut committed = Vec::new();
            pool.wave(
                width,
                &mut committed,
                |_, slot| slot,
                |committed, slot, out| {
                    committed.push((slot, out.expect("no panic")));
                    ControlFlow::Continue(())
                },
            );
            committed
        })
    }

    #[test]
    fn ring_waves_commit_every_slot_in_order() {
        let (committed, tel) = squares(4, 1000);
        let expected: Vec<(usize, usize)> = (0..1000).map(|s| (s, s * s)).collect();
        assert_eq!(committed, expected);
        assert_eq!(tel.counters().get(BATCHES), 1000u64.div_ceil(BATCH as u64));
        assert_eq!(
            tel.latency(Stage::Explore).count(),
            1000,
            "worker telemetry merged"
        );
    }

    #[test]
    fn inline_and_ring_waves_are_identical() {
        for width in [0, 1, NARROW_WAVE - 1, NARROW_WAVE, NARROW_WAVE + 1, 333] {
            let (inline, inline_tel) = squares(1, width);
            let (ringed, ring_tel) = squares(4, width);
            assert_eq!(inline, ringed, "width={width}");
            assert_eq!(inline_tel.counters().get(BATCHES), 0, "width={width}");
            assert_eq!(
                ring_tel.counters().get(BATCHES) > 0,
                width >= NARROW_WAVE,
                "width={width}: only waves of three batches or more use rings"
            );
        }
    }

    #[test]
    fn more_jobs_than_batches_still_commits_in_order() {
        let (committed, tel) = squares(8, NARROW_WAVE);
        assert_eq!(committed.len(), NARROW_WAVE);
        assert!(committed.iter().enumerate().all(|(i, &(s, _))| i == s));
        assert_eq!(tel.counters().get(BATCHES), 3);
        let mapped = map(8, &[3usize, 1, 2], |i, &x| i * 10 + x);
        let mapped: Vec<usize> = mapped.into_iter().map(|r| r.expect("no panic")).collect();
        assert_eq!(mapped, vec![3, 11, 22]);
    }

    #[test]
    fn early_stop_drains_in_flight_batches_and_the_pool_stays_usable() {
        let work = |x: usize, _: &mut StageTelemetry| x + 1;
        let ((stopped_at, after), tel) = Pool::scope(4, &work, |pool| {
            let mut seen = Vec::new();
            pool.wave(
                2000,
                &mut seen,
                |_, slot| slot,
                |seen, slot, out| {
                    seen.push((slot, out.expect("no panic")));
                    if slot == 100 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            // A second wave on the same rings must see only its own
            // results: nothing of the stopped wave may linger.
            let mut again = Vec::new();
            pool.wave(
                500,
                &mut again,
                |_, slot| slot * 2,
                |again, _, out| {
                    again.push(out.expect("no panic"));
                    ControlFlow::Continue(())
                },
            );
            (seen, again)
        });
        let expected: Vec<(usize, usize)> = (0..=100).map(|s| (s, s + 1)).collect();
        assert_eq!(stopped_at, expected, "nothing past the stop is committed");
        assert_eq!(after, (0..500).map(|s| s * 2 + 1).collect::<Vec<_>>());
        assert!(tel.counters().get(BATCHES) > 0);
    }

    #[test]
    fn a_panicking_slot_comes_back_at_its_own_slot_and_the_call_returns() {
        let work = |x: usize, _: &mut StageTelemetry| {
            if x == 77 {
                panic!("slot 77 exploded");
            }
            x
        };
        let (outcomes, tel) = Pool::scope(4, &work, |pool| {
            let mut outcomes = Vec::new();
            pool.wave(
                300,
                &mut outcomes,
                |_, slot| slot,
                |outcomes, slot, out| {
                    outcomes.push((slot, out.map_err(|p| message(&p))));
                    ControlFlow::Continue(())
                },
            );
            outcomes
        });
        assert!(tel.counters().get(BATCHES) > 0);
        assert_eq!(outcomes.len(), 300, "later slots still arrive");
        for (i, (slot, out)) in outcomes.into_iter().enumerate() {
            assert_eq!(slot, i, "slot order");
            match out {
                Err(text) => {
                    assert_eq!(slot, 77);
                    assert_eq!(text, "slot 77 exploded");
                }
                Ok(value) => assert_eq!(value, slot),
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
    fn a_panic_on_the_calling_thread_shuts_the_workers_down() {
        let work = |x: usize, _: &mut StageTelemetry| x;
        let caught = catch_unwind(AssertUnwindSafe(|| {
            Pool::scope(4, &work, |pool| {
                pool.wave(
                    1000,
                    &mut (),
                    |_, slot| slot,
                    |_, slot, _| {
                        if slot == 500 {
                            panic!("commit gave up");
                        }
                        ControlFlow::Continue(())
                    },
                );
            })
        }))
        .expect_err("the commit panic propagates");
        assert_eq!(message(&caught), "commit gave up");
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
