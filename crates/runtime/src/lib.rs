//! # armada-runtime
//!
//! The native high-performance substrate for the Armada reproduction's
//! evaluation (§6 of the paper):
//!
//! * [`spsc`] — a Rust port of liblfds 7.1.1's bounded single-producer /
//!   single-consumer queue, in the bitmask and modulo index variants the
//!   paper benchmarks (Figure 12), plus a *conservative* memory policy
//!   modeling CompCertTSO's less-optimizing code generation;
//! * [`generated`] — the queue implementation emitted by `armada-backend`
//!   from the Queue case study's Armada source (checked in; a test in
//!   `armada-cases` asserts the emitter reproduces this file byte for
//!   byte);
//! * [`mcs`] — the Mellor-Crummey–Scott queue lock of the MCSLock case
//!   study (§6.3), built from compare-and-swap and per-thread spin
//!   locations;
//! * [`barrier`] — the Schirmer–Cohen flag barrier of the Barrier case
//!   study (§6.1), using Owens's publication idiom (racy flag writes, no
//!   flushes);
//! * [`measure`] — the throughput/trial statistics harness (mean and 95%
//!   confidence intervals over repeated trials, as in Figure 12);
//! * [`prng`] — the deterministic SplitMix64 generator behind the seeded
//!   randomized test suites (the hermetic, in-repo replacement for
//!   `rand`/`proptest`);
//! * [`hash`] — stable FNV-1a content hashing for persistent artifacts
//!   (certificate-store keys and checksums);
//! * [`json`] — the one JSON codec: the serve wire format, the fuzz
//!   report and the benchmark reports;
//! * [`telemetry`] — per-stage latency/occupancy histograms with
//!   power-of-two buckets, cheap enough to leave on in the hot path;
//! * [`wave`] — the one scheduler behind every compute fan-out: a
//!   fork-join map over recipes, antichain shards, and the engines' wave
//!   chunks.

pub mod barrier;
pub mod generated;
pub mod generated_conservative;
pub mod hash;
pub mod json;
pub mod mcs;
pub mod measure;
pub mod prng;
pub mod spsc;
pub mod telemetry;
pub mod wave;

pub use barrier::FlagBarrier;
pub use hash::{fnv1a_64, Fnv64};
pub use mcs::McsMutex;
pub use measure::{queue_throughput_ops_per_sec, Stats};
pub use prng::{run_seeded_cases, SplitMix64};
pub use spsc::{spsc_queue, Bitmask, Consumer, HwTso, Modulo, Producer, SeqCstConservative};
pub use telemetry::{CounterSet, Histogram, Stage, StageTelemetry};

/// The checked-in source of [`generated`], compared against the backend's
/// emitter output by an integration test.
pub const GENERATED_SOURCE: &str = include_str!("generated.rs");

/// The checked-in source of [`generated_conservative`].
pub const GENERATED_CONSERVATIVE_SOURCE: &str = include_str!("generated_conservative.rs");
