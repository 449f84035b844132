//! Smoke tests for the `armada` CLI binary: argument parsing, exit codes,
//! and file IO of the tool driver.

use std::process::Command;

fn armada(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_armada"))
        .args(args)
        // Workspace root, so relative spec paths resolve.
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
        .output()
        .expect("spawn the armada binary")
}

#[test]
fn verify_subcommand_verifies_the_shipped_spec() {
    let output = armada(&["verify", "specs/counter.arm"]);
    assert!(
        output.status.success(),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("VERIFIED: Implementation ⊑ SeqCount"));
    assert!(stdout.contains("tso_elim"));
}

#[test]
fn check_and_emit_subcommands_work() {
    let output = armada(&["check", "specs/counter.arm"]);
    assert!(output.status.success());

    let output = armada(&["emit-c", "specs/counter.arm"]);
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("#include \"armada_runtime.h\""));
    assert!(stdout.contains("uint32_t count;"));
}

/// Every shipped spec must verify: `specs/` is the CLI's public face, and
/// a spec that rots into NOT VERIFIED is a regression even if no unit test
/// mentions it.
#[test]
fn specs_smoke() {
    let specs_dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");
    let mut checked = 0;
    for entry in std::fs::read_dir(specs_dir).expect("read specs/") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|ext| ext != "arm") {
            continue;
        }
        let rel = format!("specs/{}", path.file_name().unwrap().to_str().unwrap());
        let output = armada(&["verify", &rel, "--jobs", "2"]);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success() && stdout.contains("VERIFIED:"),
            "{rel} did not verify\nstdout: {stdout}\nstderr: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        checked += 1;
    }
    assert!(checked >= 4, "expected at least 4 specs, found {checked}");
}

/// `--fault-seed` exercises the outcome-class exit codes: an injected
/// worker panic exits 4, an injected budget exhaustion exits 3, and both
/// report the outcome without losing the run.
#[test]
fn fault_injection_exit_codes_classify_outcomes() {
    // Seeds chosen empirically for specs/counter.arm's recipe name; the
    // fate is a pure function of (seed, name) so this is stable.
    let output = armada(&["verify", "specs/counter.arm", "--fault-seed", "3"]);
    assert_eq!(output.status.code(), Some(4));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("crashed"), "stdout: {stdout}");
    assert!(stdout.contains("injected fault"), "stdout: {stdout}");

    let output = armada(&["verify", "specs/counter.arm", "--fault-seed", "7"]);
    assert_eq!(output.status.code(), Some(3));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("budget exhausted"), "stdout: {stdout}");
}

/// `--cert-cache`: the second run reuses the first run's certificate and
/// says so.
/// An explicitly empty event list is the no-fault plan — the form a
/// violation whose plan shrinks to nothing is replayed with.
#[test]
fn fuzz_accepts_an_explicitly_empty_event_list() {
    for args in [
        &["fuzz", "specs/counter.arm", "--seeds", "1", "--events", ""][..],
        &[
            "fuzz",
            "--serve",
            "specs/counter.arm",
            "--seeds",
            "1",
            "--server-events",
            "",
        ],
    ] {
        let output = armada(args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{args:?}: {stderr}");
        assert!(
            stderr.contains(", 0 faults injected, 0 violations"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn cert_cache_flag_round_trips() {
    let dir = std::env::temp_dir().join("armada_cli_cert_cache_test");
    let _ = std::fs::remove_dir_all(&dir);
    let cache = format!("--cert-cache={}", dir.display());

    let output = armada(&["verify", "specs/tracepoint.arm", &cache]);
    assert!(output.status.success());
    let first = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(first.contains("cert cache miss"), "stdout: {first}");

    let output = armada(&["verify", "specs/tracepoint.arm", &cache]);
    assert!(output.status.success());
    let second = String::from_utf8_lossy(&output.stdout).into_owned();
    assert!(second.contains("cert cache hit"), "stdout: {second}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_usage_and_missing_files_fail_cleanly() {
    let output = armada(&["frobnicate", "specs/counter.arm"]);
    assert!(!output.status.success());

    let output = armada(&["verify", "specs/does_not_exist.arm"]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("cannot read"));

    // A misspelled flag is a usage error, not silently ignored.
    let output = armada(&["verify", "specs/counter.arm", "--job", "4"]);
    assert_eq!(output.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("unknown flag `--job`"), "{stderr}");
    assert!(stderr.contains("usage: armada"), "{stderr}");
}

#[test]
fn flags_may_precede_the_file() {
    let output = armada(&["check", "--jobs", "2", "--no-symmetry", "specs/counter.arm"]);
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn broken_proof_exits_nonzero() {
    let dir = std::env::temp_dir().join("armada_cli_test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("broken.arm");
    std::fs::write(
        &path,
        r#"
        level A { void main() { print(1); } }
        level B { void main() { print(2); } }
        proof P { refinement A B weakening }
        "#,
    )
    .expect("write");
    let output = armada(&["verify", path.to_str().expect("utf8 path")]);
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("NOT VERIFIED"));
}

/// `--mem-cap` spills each check's state arenas to disk; the verdicts and
/// the whole report must not notice. The queue and barrier models run the
/// `assume_intro` strategy and mcs_lock runs `tso_elim` and `reduction`,
/// all of which walk the low level's state graph state by state.
#[test]
fn mem_capped_model_runs_match_resident_runs() {
    let dir = std::env::temp_dir().join(format!("armada_cli_mem_cap_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    for (name, model) in [
        ("queue", armada_cases::queue::MODEL),
        ("barrier", armada_cases::barrier::MODEL),
        ("mcs_lock", armada_cases::mcs_lock::MODEL),
    ] {
        let path = dir.join(format!("{name}.arm"));
        std::fs::write(&path, model).expect("write model");
        let path = path.to_str().expect("utf8 path");
        let resident = armada(&["verify", path]);
        assert!(
            resident.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&resident.stdout)
        );
        let spilled = armada(&["verify", path, "--mem-cap", "64K"]);
        assert_eq!(spilled.status.code(), Some(0), "{name} with --mem-cap 64K");
        assert_eq!(
            String::from_utf8_lossy(&spilled.stdout),
            String::from_utf8_lossy(&resident.stdout),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
