//! The `armada` command-line tool: verify an Armada source file, inspect its
//! effort metrics, or emit backend code — the CLI face of the pipeline, like
//! the paper's tool driver (§5).
//!
//! ```text
//! armada verify <file.arm> [--jobs N] [--deadline SECS] [--cert-cache[=DIR]]
//!                          [--no-reduction] [--no-symmetry] [--telemetry]
//!                          [--mem-cap SIZE] [--spill-dir DIR]
//!                          [--checkpoint[=DIR]] [--resume] [--recheck]
//!                               run the full pipeline (strategies + bounded
//!                               refinement model checking, on N threads)
//! armada recheck <cert|dir>... [--source FILE]
//!                               independently validate stored refinement
//!                               certificates (structural witness check;
//!                               with --source, full semantic replay)
//! armada check <file.arm>       front end + core-subset check only
//! armada effort <file.arm>      strategy-only run with effort accounting
//! armada emit-c <file.arm>      emit ClightTSO-flavored C for the
//!                               implementation level
//! armada emit-rust <file.arm> [--conservative]
//!                               emit Rust for the implementation level
//! armada fuzz <file.arm>... [--seeds N] [--jobs M] [--events LIST]
//!                           [--out FILE] [--mutate-bounds]
//!                               deterministic fault-fuzzing campaign over
//!                               the given subjects (see `armada::fuzz`)
//! armada fuzz --serve <file.arm>... [--seeds N] [--jobs M]
//!                           [--server-events LIST] [--out FILE]
//!                               daemon-level campaign: each cell boots an
//!                               `armada serve` instance and drives it
//!                               through killed workers, corrupted tier-2
//!                               entries, accept jitter, and same-key storms
//! armada serve [--addr HOST:PORT] [--addr-file FILE] [--workers N]
//!              [--queue-depth N] [--mem-cap N] [--cert-cache[=DIR]]
//!              [--deadline SECS] [--telemetry] [--spill-mem-cap SIZE]
//!              [--spill-dir DIR] [--checkpoint[=DIR]]
//!                               run the verification daemon until a client
//!                               sends `--shutdown`
//! armada client <addr> [<file.arm>] [--deadline SECS] [--jobs N]
//!               [--stats] [--shutdown]
//!                               send one request to a running daemon
//! ```
//!
//! `--jobs N` (default 1) parallelizes the refinement search and the
//! per-recipe pipeline work; results are byte-identical for any N.
//! `--deadline SECS` bounds wall-clock time per semantic check (graceful
//! budget-exhausted outcomes, not hangs). `--cert-cache` persists and
//! reuses refinement certificates (default root `target/armada-certs/`;
//! the `ARMADA_CERT_CACHE` environment variable enables the same cache
//! without a flag). `--no-reduction` disables local-step fusion in the
//! state-space engine and `--no-symmetry` disables canonical state
//! interning under thread/heap symmetry — verdicts and counterexamples
//! are identical either way; the flags exist for timing comparisons and
//! debugging. `--telemetry` prints per-stage pipeline histograms (ingress /
//! explore / subsume / commit latency and occupancy) to **stderr** after
//! the run; stdout — the byte-identity surface — is unchanged.
//! `--fault-seed N` injects deterministic faults for robustness testing.
//!
//! `--mem-cap SIZE` (K/M/G suffixes) bounds each semantic check's state
//! arenas: past the cap, cold pages spill to `--spill-dir` (default
//! `target/armada-spill`) behind checksums and fault back on demand —
//! verdicts are byte-identical to an all-resident run, and `--telemetry`
//! reports the hit/miss/evict counters. `--checkpoint[=DIR]` (default
//! `target/armada-checkpoints`) persists each recipe's refinement check
//! crash-safely at every wave boundary, one `ck-*` subdirectory per
//! recipe; `--resume` continues an interrupted check from its last
//! completed wave (a missing, torn, or mismatched checkpoint falls back to
//! a cold start). The strategy stage never checkpoints. A resumed run may
//! raise `--deadline` or budget caps; anything that changes what a check
//! *means* (the programs, bounds, reduction/symmetry) starts cold.
//!
//! Every subcommand rejects a flag it does not know with the usage text
//! and exit code 2.
//!
//! `verify`/`effort` exit codes classify the worst per-recipe outcome:
//! 0 verified, 1 refuted, 2 usage/IO error, 3 budget exhausted or skipped,
//! 4 crashed (isolated worker panic).
//!
//! `fuzz` sweeps each subject over seeds 0..N (default 8), derives a
//! deterministic fault plan per `(seed, recipe)`, runs cold and warm
//! against a scratch cert store at jobs ∈ {1, M}, and checks the campaign
//! invariants (taxonomy, no-hang, no-corrupt-cert-served,
//! verdict-invariance, determinism, recheck). `--serve` runs the same
//! sweep against a fresh daemon per cell with server-level fates instead.
//! `--events fate:recipe,...` (`--server-events fate:ordinal,...` with
//! `--serve`) replays an explicit plan — the reproducer format emitted for
//! shrunk violations; an explicitly empty list (`--events ''`) is the
//! no-fault plan. Exit 0 when no invariant tripped, 1 otherwise. The
//! report JSON goes to `--out FILE` when given, else stdout; it is
//! byte-identical across reruns of the same command line.
//! `--mutate-bounds` also mutates the verification bounds per seed.
//!
//! `serve` binds a TCP daemon speaking a length-prefixed JSON protocol
//! (see `armada::proto`): concurrent verify requests share an in-memory
//! certificate tier (`--mem-cap` entries, LRU) in front of the crash-safe
//! disk store, identical in-flight requests coalesce onto one underlying
//! verification, every request carries a cooperative deadline, and a full
//! admission queue sheds with a structured `overloaded` response rather
//! than queueing unboundedly. `client` exit codes extend the verify
//! taxonomy: a result carries its own 0–4 code, `deadline`/`overloaded`
//! are inconclusive (3), protocol errors are usage errors (2).

use armada::fuzz;
use armada::proto::{Request, Response, VerifyRequest};
use armada::serve::{client_request, ServeConfig, Server};
use armada::verify::store::CertStore;
use armada::verify::tier::{MemTier, TieredStore};
use armada::verify::SimConfig;
use armada::{FaultPlan, Pipeline};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: armada <verify|check|effort|emit-c|emit-rust> <file.arm> \
         [--jobs N] [--deadline SECS] [--cert-cache[=DIR]] [--no-reduction] \
         [--no-symmetry] [--telemetry] [--fault-seed N] [--conservative] \
         [--mem-cap SIZE] [--spill-dir DIR] [--checkpoint[=DIR]] [--resume] \
         [--recheck]\n       \
         armada recheck <cert|dir>... [--source FILE]\n       \
         armada fuzz [--serve] <file.arm>... [--seeds N] [--jobs M] \
         [--events LIST] [--server-events LIST] [--mutate-bounds] [--out FILE]\n       \
         armada serve [--addr HOST:PORT] [--addr-file FILE] [--workers N] \
         [--queue-depth N] [--mem-cap N] [--cert-cache[=DIR]] [--deadline SECS] \
         [--telemetry] [--spill-mem-cap SIZE] [--spill-dir DIR] \
         [--checkpoint[=DIR]]\n       \
         armada client <addr> [<file.arm>] [--deadline SECS] [--jobs N] \
         [--stats] [--shutdown]"
    );
    ExitCode::from(2)
}

/// Each subcommand's flags. A trailing `=` marks a flag that takes a value
/// (`--flag VALUE` or `--flag=VALUE`); the rest are switches, of which
/// `--cert-cache` and `--checkpoint` also take `=DIR`. The first list
/// serves `verify`, `check`, `effort`, `emit-c` and `emit-rust`.
const VERIFY_FLAGS: &str = "--jobs= --deadline= --fault-seed= --mem-cap= --spill-dir= \
    --cert-cache --no-reduction --no-symmetry --telemetry --conservative --checkpoint \
    --resume --recheck";
const FUZZ_FLAGS: &str = "--seeds= --jobs= --events= --server-events= --out= --serve \
    --mutate-bounds";
const SERVE_FLAGS: &str = "--addr= --addr-file= --workers= --queue-depth= --mem-cap= \
    --deadline= --spill-mem-cap= --spill-dir= --cert-cache --telemetry --checkpoint";
const CLIENT_FLAGS: &str = "--deadline= --jobs= --stats --shutdown";

/// Extracts `--flag VALUE` (or `--flag=VALUE`) from the argument list.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    let prefix = format!("{flag}=");
    for (i, arg) in args.iter().enumerate() {
        if let Some(value) = arg.strip_prefix(&prefix) {
            return Ok(Some(value));
        }
        if arg == flag {
            let value = args.get(i + 1).ok_or(format!("{flag} requires a value"))?;
            return Ok(Some(value));
        }
    }
    Ok(None)
}

/// The positional arguments: everything that is neither a `--flag` nor
/// the value of one. Every `--flag` must be one of `flags` (see
/// [`VERIFY_FLAGS`]), so a misspelled flag fails instead of being ignored.
fn positional<'a>(args: &'a [String], flags: &str) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut skip_next = false;
    for arg in args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if !arg.starts_with("--") {
            out.push(arg.as_str());
            continue;
        }
        let name = arg.split('=').next().unwrap_or(arg);
        let known = |flag: &str| flags.split_whitespace().any(|f| f == flag);
        if known(&format!("{name}=")) {
            skip_next = name == arg;
        } else if !known(name) {
            return Err(format!("unknown flag `{arg}`"));
        }
    }
    Ok(out)
}

/// Extracts `--jobs N` (or `--jobs=N`) from the argument list.
fn jobs_flag(args: &[String]) -> Result<usize, String> {
    match flag_value(args, "--jobs")? {
        Some(value) => value
            .parse()
            .map_err(|_| format!("invalid --jobs value `{value}`")),
        None => Ok(1),
    }
}

/// Extracts `--deadline SECS` (fractional seconds allowed).
fn deadline_flag(args: &[String]) -> Result<Option<Duration>, String> {
    match flag_value(args, "--deadline")? {
        Some(value) => match value.parse::<f64>() {
            Ok(secs) if secs > 0.0 && secs.is_finite() => Ok(Some(Duration::from_secs_f64(secs))),
            _ => Err(format!("invalid --deadline value `{value}`")),
        },
        None => Ok(None),
    }
}

/// Extracts `--cert-cache` (default root) or `--cert-cache=DIR`.
fn cert_cache_flag(args: &[String]) -> Option<CertStore> {
    for arg in args {
        if let Some(dir) = arg.strip_prefix("--cert-cache=") {
            return Some(CertStore::open(dir));
        }
        if arg == "--cert-cache" {
            return Some(CertStore::open(CertStore::default_root()));
        }
    }
    None
}

/// Parses a byte size with an optional K/M/G suffix (binary units).
fn parse_mem_size(value: &str) -> Result<u64, String> {
    let bad = || format!("invalid size `{value}` (want BYTES with an optional K/M/G suffix)");
    let v = value.trim();
    let (digits, shift) = match v.chars().next_back() {
        Some('K') | Some('k') => (&v[..v.len() - 1], 10),
        Some('M') | Some('m') => (&v[..v.len() - 1], 20),
        Some('G') | Some('g') => (&v[..v.len() - 1], 30),
        _ => (v, 0),
    };
    let n: u64 = digits.parse().map_err(|_| bad())?;
    if n == 0 {
        return Err(bad());
    }
    n.checked_mul(1u64 << shift).ok_or_else(bad)
}

/// Extracts `--mem-cap SIZE` + `--spill-dir DIR` into a spill spec.
fn spill_flag(args: &[String]) -> Result<Option<armada::sm::SpillSpec>, String> {
    let cap = match flag_value(args, "--mem-cap")? {
        Some(value) => parse_mem_size(value)?,
        None => {
            if flag_value(args, "--spill-dir")?.is_some() {
                return Err("--spill-dir requires --mem-cap".to_string());
            }
            return Ok(None);
        }
    };
    let dir = flag_value(args, "--spill-dir")?
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("target/armada-spill"));
    Ok(Some(armada::sm::SpillSpec::new(cap, dir)))
}

/// Extracts `--checkpoint` (default root) or `--checkpoint=DIR`, plus
/// `--resume`.
fn checkpoint_flag(args: &[String]) -> Result<Option<armada::verify::CheckpointSpec>, String> {
    let mut dir = None;
    for arg in args {
        if let Some(value) = arg.strip_prefix("--checkpoint=") {
            dir = Some(std::path::PathBuf::from(value));
        } else if arg == "--checkpoint" {
            dir = Some(std::path::PathBuf::from("target/armada-checkpoints"));
        }
    }
    let resume = args.iter().any(|a| a == "--resume");
    match dir {
        Some(dir) => Ok(Some(
            armada::verify::CheckpointSpec::new(dir).with_resume(resume),
        )),
        None if resume => Err("--resume requires --checkpoint".to_string()),
        None => Ok(None),
    }
}

/// Extracts `--fault-seed N` (robustness testing only).
fn fault_seed_flag(args: &[String]) -> Result<Option<u64>, String> {
    match flag_value(args, "--fault-seed")? {
        Some(value) => value
            .parse()
            .map(Some)
            .map_err(|_| format!("invalid --fault-seed value `{value}`")),
        None => Ok(None),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match args.first().map(|s| s.as_str()) {
        // Same checker as the standalone `armada-recheck` binary, which
        // checks its own flags; bundled here so one installed tool covers
        // the whole workflow.
        Some("recheck") => return ExitCode::from(armada::recheck::run_cli(&args[1..])),
        Some("serve") => SERVE_FLAGS,
        Some("client") => CLIENT_FLAGS,
        Some("fuzz") => FUZZ_FLAGS,
        _ => VERIFY_FLAGS,
    };
    let positional = match positional(args.get(1..).unwrap_or_default(), flags) {
        Ok(positional) => positional,
        Err(err) => {
            eprintln!("armada: {err}");
            return usage();
        }
    };
    match args.first().map(|s| s.as_str()) {
        Some("serve") => return serve_command(&args[1..]),
        Some("client") => return client_command(&args[1..], &positional),
        Some("fuzz") => return fuzz_command(&args[1..], &positional),
        _ => {}
    }
    let (command, path) = match (args.first(), positional.first()) {
        (Some(command), Some(path)) => (command.as_str(), *path),
        _ => return usage(),
    };
    let jobs = match jobs_flag(&args) {
        Ok(jobs) => jobs,
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::from(2);
        }
    };
    let deadline = match deadline_flag(&args) {
        Ok(deadline) => deadline,
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::from(2);
        }
    };
    let fault_seed = match fault_seed_flag(&args) {
        Ok(seed) => seed,
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::from(2);
        }
    };
    let source = match std::fs::read_to_string(path) {
        Ok(source) => source,
        Err(err) => {
            eprintln!("armada: cannot read `{path}`: {err}");
            return ExitCode::from(2);
        }
    };
    let mut sim = SimConfig::default().with_jobs(jobs);
    if let Some(budget) = deadline {
        sim.bounds = sim.bounds.with_deadline(budget);
    }
    if args.iter().any(|a| a == "--no-reduction") {
        sim.bounds.reduction = false;
    }
    if args.iter().any(|a| a == "--no-symmetry") {
        sim.bounds.symmetry = false;
    }
    match spill_flag(&args) {
        Ok(Some(spec)) => sim.bounds = sim.bounds.with_spill(spec),
        Ok(None) => {}
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::from(2);
        }
    }
    match checkpoint_flag(&args) {
        Ok(Some(spec)) => sim = sim.with_checkpoint(spec),
        Ok(None) => {}
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::from(2);
        }
    }
    let telemetry = args.iter().any(|a| a == "--telemetry");
    let pipeline = match Pipeline::from_source(&source) {
        Ok(pipeline) => pipeline.with_sim_config(sim).with_telemetry(telemetry),
        Err(err) => {
            eprintln!("armada: {err}");
            return ExitCode::FAILURE;
        }
    };
    let pipeline = match cert_cache_flag(&args) {
        Some(store) => pipeline.with_cert_store(store),
        None => pipeline,
    };
    let pipeline = pipeline.with_recheck(args.iter().any(|a| a == "--recheck"));
    let pipeline = match fault_seed {
        Some(seed) => {
            let plan = FaultPlan::seeded(
                seed,
                pipeline
                    .typed()
                    .module
                    .recipes
                    .iter()
                    .map(|r| r.name.as_str())
                    .collect::<Vec<_>>(),
            );
            if !plan.is_empty() {
                eprint!("armada: fault plan (seed {seed}):\n{}", plan.describe());
            }
            pipeline.with_fault_plan(plan)
        }
        None => pipeline,
    };

    match command {
        "check" => {
            if let Err(err) = core_check_all(&pipeline) {
                eprintln!("armada: {err}");
                return ExitCode::FAILURE;
            }
            println!("ok: front end and core-subset checks passed");
            ExitCode::SUCCESS
        }
        "verify" | "effort" => {
            let mut pipeline = pipeline;
            if command == "effort" {
                pipeline.semantic_check = false;
            }
            if pipeline.typed().module.recipes.is_empty() {
                eprintln!("armada: `{path}` declares no proof recipes");
                return ExitCode::FAILURE;
            }
            if let Err(err) = pipeline.check_core() {
                eprintln!("armada: implementation level is not core Armada: {err}");
                return ExitCode::FAILURE;
            }
            let report = match pipeline.run() {
                Ok(report) => report,
                Err(err) => {
                    eprintln!("armada: {err}");
                    return ExitCode::FAILURE;
                }
            };
            print!("{report}");
            println!("{}", pipeline.effort(&report));
            if telemetry {
                // Telemetry values are wall-clock: stderr only, so stdout
                // stays byte-identical with or without the flag.
                let mut merged = armada_runtime::StageTelemetry::new();
                for outcome in &report.outcomes {
                    if let Some(tel) = &outcome.telemetry {
                        merged.merge(tel);
                    }
                }
                if merged.is_empty() {
                    eprintln!(
                        "armada: telemetry: no semantic check ran (cache hits or strategy-only)"
                    );
                } else {
                    eprint!("armada: pipeline telemetry\n{}", merged.render());
                }
                if report.corrupt_loads > 0 {
                    eprintln!(
                        "armada: warning: cert cache rejected {} corrupt record(s); \
                         verdicts were recomputed from scratch",
                        report.corrupt_loads
                    );
                }
            }
            if report.verified() {
                ExitCode::SUCCESS
            } else {
                // Classify the worst outcome so scripts can distinguish a
                // real refutation (1) from an inconclusive run (3) or an
                // isolated crash (4).
                ExitCode::from(report.worst_status().exit_code())
            }
        }
        "emit-c" | "emit-rust" => {
            let level_name = implementation_level(&pipeline);
            let Some(level) = pipeline.typed().module.level(&level_name) else {
                eprintln!("armada: no level `{level_name}`");
                return ExitCode::FAILURE;
            };
            if command == "emit-c" {
                match armada::backend::emit_c(level) {
                    Ok(code) => {
                        print!("{code}");
                        ExitCode::SUCCESS
                    }
                    Err(err) => {
                        eprintln!("armada: {err}");
                        ExitCode::FAILURE
                    }
                }
            } else {
                let mode = if args.iter().any(|a| a == "--conservative") {
                    armada::backend::RustMode::Conservative
                } else {
                    armada::backend::RustMode::HwTso
                };
                let info = pipeline
                    .typed()
                    .level_info(&level_name)
                    .expect("checked module has level info");
                match armada::backend::emit_rust(level, info, mode) {
                    Ok(code) => {
                        print!("{code}");
                        ExitCode::SUCCESS
                    }
                    Err(err) => {
                        eprintln!("armada: {err}");
                        ExitCode::FAILURE
                    }
                }
            }
        }
        _ => usage(),
    }
}

/// The `armada fuzz` subcommand: a deterministic fault-fuzzing campaign
/// over one or more subject files (see [`armada::fuzz`] for the
/// invariants). Exit 0 when clean, 1 on any invariant violation, 2 on
/// usage errors.
fn fuzz_command(args: &[String], positional: &[&str]) -> ExitCode {
    let fail = |err: String| {
        eprintln!("armada: {err}");
        ExitCode::from(2)
    };
    let seeds: Vec<u64> = match flag_value(args, "--seeds") {
        Ok(Some(value)) => match value.parse::<u64>() {
            Ok(n) if n > 0 => (0..n).collect(),
            _ => return fail(format!("invalid --seeds value `{value}`")),
        },
        Ok(None) => (0..8).collect(),
        Err(err) => return fail(err),
    };
    let jobs = match jobs_flag(args) {
        // The grid always includes jobs=1, so the determinism invariant
        // compares every higher job count against the serial render.
        Ok(max) if max > 1 => vec![1, max],
        Ok(_) => vec![1],
        Err(err) => return fail(err),
    };
    let serve = args.iter().any(|a| a == "--serve");
    let mutate_bounds = args.iter().any(|a| a == "--mutate-bounds");
    let (plan_override, server_plan_override) = match (
        events_flag(args, "--events"),
        events_flag(args, "--server-events"),
    ) {
        (Ok(events), Ok(server_events)) => (events, server_events),
        (Err(err), _) | (_, Err(err)) => return fail(err),
    };
    if serve && plan_override.is_some() {
        return fail(
            "--events is a pipeline-campaign flag; use --server-events with --serve".to_string(),
        );
    }
    if serve && mutate_bounds {
        return fail("--mutate-bounds applies to pipeline campaigns only".to_string());
    }
    if !serve && server_plan_override.is_some() {
        return fail("--server-events requires --serve".to_string());
    }
    let out = match flag_value(args, "--out") {
        Ok(out) => out.map(|s| s.to_string()),
        Err(err) => return fail(err),
    };
    let subjects: Vec<fuzz::FuzzSubject> = match positional
        .iter()
        .copied()
        .map(fuzz::FuzzSubject::from_path)
        .collect()
    {
        Ok(subjects) => subjects,
        Err(err) => return fail(err),
    };
    if subjects.is_empty() {
        return usage();
    }
    let report = if serve {
        let config = fuzz::ServeFuzzConfig {
            seeds,
            jobs,
            plan_override: server_plan_override,
            ..fuzz::ServeFuzzConfig::default()
        };
        fuzz::run_serve_campaign(&subjects, &config)
    } else {
        let config = fuzz::FuzzConfig {
            seeds,
            jobs,
            plan_override,
            mutate_bounds,
            ..fuzz::FuzzConfig::default()
        };
        fuzz::run_campaign(&subjects, &config)
    };
    eprintln!(
        "armada fuzz ({}): {} subjects × {} seeds × jobs {:?}: {} runs, {} checks, \
         {} faults injected, {} violations",
        report.mode,
        report.subjects.len(),
        report.seeds.len(),
        report.jobs,
        report.runs,
        report.checks,
        report.total_injected(),
        report.violations.len()
    );
    for violation in &report.violations {
        eprintln!(
            "armada fuzz: VIOLATION [{}] {} seed {}: {}\n  replay: {}",
            violation.invariant.label(),
            violation.subject,
            violation.seed,
            violation.detail.lines().next().unwrap_or(""),
            violation.replay
        );
    }
    let json = report.to_json();
    match out {
        Some(path) => {
            if let Err(err) = std::fs::write(&path, &json) {
                return fail(format!("cannot write `{path}`: {err}"));
            }
        }
        None => print!("{json}"),
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Extracts an event-list flag (`--events`, `--server-events`). An
/// explicitly empty list (`--events ''`) is the no-fault plan.
fn events_flag<E>(args: &[String], flag: &str) -> Result<Option<Vec<E>>, String>
where
    E: std::str::FromStr<Err = String> + PartialEq,
{
    flag_value(args, flag)?
        .map(|spec| fuzz::parse_events(spec).map_err(|err| err.to_string()))
        .transpose()
}

/// Parses an optional positive-integer flag with a default.
fn usize_flag(args: &[String], flag: &str, default: usize) -> Result<usize, String> {
    match flag_value(args, flag)? {
        Some(value) => match value.parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(format!("invalid {flag} value `{value}`")),
        },
        None => Ok(default),
    }
}

/// The `armada serve` subcommand: run the verification daemon until a
/// client asks it to shut down. The bound address goes to stderr (and to
/// `--addr-file` when given, for scripts racing the ephemeral-port bind).
fn serve_command(args: &[String]) -> ExitCode {
    let fail = |err: String| {
        eprintln!("armada: {err}");
        ExitCode::from(2)
    };
    let addr = match flag_value(args, "--addr") {
        Ok(addr) => addr.unwrap_or("127.0.0.1:0").to_string(),
        Err(err) => return fail(err),
    };
    let addr_file = match flag_value(args, "--addr-file") {
        Ok(path) => path.map(|s| s.to_string()),
        Err(err) => return fail(err),
    };
    let workers = match usize_flag(args, "--workers", 2) {
        Ok(n) => n,
        Err(err) => return fail(err),
    };
    let queue_depth = match usize_flag(args, "--queue-depth", 8) {
        Ok(n) => n,
        Err(err) => return fail(err),
    };
    let mem_cap = match flag_value(args, "--mem-cap") {
        Ok(Some(value)) => match value.parse::<usize>() {
            Ok(n) => n,
            Err(_) => return fail(format!("invalid --mem-cap value `{value}`")),
        },
        Ok(None) => 64,
        Err(err) => return fail(err),
    };
    let deadline = match deadline_flag(args) {
        Ok(deadline) => deadline,
        Err(err) => return fail(err),
    };
    // `--mem-cap` above bounds the cert *cache* tier (entries);
    // `--spill-mem-cap` bounds each verification's state arenas (bytes),
    // paging cold shards to disk past it.
    let spill = match flag_value(args, "--spill-mem-cap") {
        Ok(Some(value)) => match parse_mem_size(value) {
            Ok(cap) => {
                let dir = match flag_value(args, "--spill-dir") {
                    Ok(dir) => dir
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| std::path::PathBuf::from("target/armada-spill")),
                    Err(err) => return fail(err),
                };
                Some(armada::sm::SpillSpec::new(cap, dir))
            }
            Err(err) => return fail(err),
        },
        Ok(None) => None,
        Err(err) => return fail(err),
    };
    // Serve checkpoints always resume: a request retried after a deadline
    // or daemon restart continues from its own wave boundary (the daemon
    // scopes the dir per request key).
    let checkpoint = match checkpoint_flag(args) {
        Ok(spec) => spec.map(|s| s.with_resume(true)),
        Err(err) => return fail(err),
    };
    let disk = cert_cache_flag(args).unwrap_or_else(|| CertStore::open(CertStore::default_root()));
    let mut store = TieredStore::disk(disk);
    if mem_cap > 0 {
        store = store.with_mem(MemTier::with_capacity(mem_cap));
    }
    let mut config = ServeConfig::new(store);
    config.addr = addr;
    config.workers = workers;
    config.queue_depth = queue_depth;
    config.telemetry = args.iter().any(|a| a == "--telemetry");
    if let Some(spec) = spill {
        config.sim.bounds = config.sim.bounds.with_spill(spec);
    }
    config.sim.checkpoint = checkpoint;
    if let Some(deadline) = deadline {
        config.default_deadline = deadline;
    }
    let handle = match Server::start(config) {
        Ok(handle) => handle,
        Err(err) => return fail(format!("cannot start daemon: {err}")),
    };
    let bound = handle.addr();
    eprintln!("armada serve: listening on {bound}");
    if let Some(path) = addr_file {
        if let Err(err) = std::fs::write(&path, format!("{bound}\n")) {
            return fail(format!("cannot write `{path}`: {err}"));
        }
    }
    handle.join();
    eprintln!("armada serve: shut down");
    ExitCode::SUCCESS
}

/// The `armada client` subcommand: one request against a running daemon.
/// Verify responses adopt the pipeline's 0–4 exit taxonomy; `deadline` and
/// `overloaded` map to 3 (inconclusive), protocol errors to 2.
fn client_command(args: &[String], positional: &[&str]) -> ExitCode {
    let fail = |err: String| {
        eprintln!("armada: {err}");
        ExitCode::from(2)
    };
    let Some(addr) = positional.first() else {
        return usage();
    };
    let deadline = match deadline_flag(args) {
        Ok(deadline) => deadline,
        Err(err) => return fail(err),
    };
    // The daemon guarantees a structured answer within deadline + grace;
    // pad generously so a client timeout means the daemon truly hung.
    let timeout = deadline.unwrap_or(Duration::from_secs(30)) + Duration::from_secs(30);
    let request = if args.iter().any(|a| a == "--shutdown") {
        Request::Shutdown
    } else if args.iter().any(|a| a == "--stats") {
        Request::Stats
    } else {
        let Some(path) = positional.get(1) else {
            return fail("client needs a <file.arm> (or --stats / --shutdown)".to_string());
        };
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(err) => return fail(format!("cannot read `{path}`: {err}")),
        };
        let jobs = match jobs_flag(args) {
            Ok(jobs) => jobs,
            Err(err) => return fail(err),
        };
        Request::Verify(VerifyRequest {
            source: Some(source),
            path: None,
            name: Some((*path).to_string()),
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            jobs: Some(jobs),
        })
    };
    let response = match client_request(addr, &request, timeout) {
        Ok(response) => response,
        Err(err) => return fail(err),
    };
    let code = response.exit_code();
    match response {
        Response::Result {
            render, coalesced, ..
        } => {
            print!("{render}");
            if coalesced {
                eprintln!("armada client: response coalesced with an in-flight request");
            }
        }
        Response::Deadline { deadline_ms } => {
            eprintln!("armada client: daemon gave up after the {deadline_ms}ms deadline");
        }
        Response::Overloaded { retry_after_ms } => {
            eprintln!("armada client: daemon overloaded; retry after {retry_after_ms}ms");
        }
        Response::Error { message } => {
            eprintln!("armada client: daemon error: {message}");
        }
        Response::Ok => eprintln!("armada client: ok"),
        Response::Stats { counters } => {
            for (name, value) in counters {
                println!("{name} {value}");
            }
        }
    }
    ExitCode::from(code)
}

/// The implementation level: first in the recipe chain, or the first level
/// for library-style files.
fn implementation_level(pipeline: &Pipeline) -> String {
    pipeline
        .level_chain()
        .ok()
        .and_then(|chain| chain.first().cloned())
        .or_else(|| {
            pipeline
                .typed()
                .module
                .levels
                .first()
                .map(|l| l.name.clone())
        })
        .unwrap_or_default()
}

fn core_check_all(pipeline: &Pipeline) -> Result<(), String> {
    if pipeline.typed().module.recipes.is_empty() {
        for level in &pipeline.typed().module.levels {
            let info = pipeline
                .typed()
                .level_info(&level.name)
                .ok_or_else(|| format!("level `{}` not checked", level.name))?;
            armada::lang::core_check::check_core(level, info).map_err(|e| e.to_string())?;
        }
        Ok(())
    } else {
        pipeline.check_core()
    }
}
