//! Where the cert key's boundary lies. A recipe's certificate is keyed on
//! what the refinement check reads — the span-free content of its two
//! lowered levels, the module's relation declaration and the check's
//! bounds — and its witness subject binds the same content. So an edit
//! outside that content (a comment, blank lines, a moved level, another
//! level) is served from the store, and every input the check reads
//! changes the key.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use armada::lang::{check_module, parse_module};
use armada::recheck::{parse_record, record_checksum, subject_digest, write_record};
use armada::sm::{lower, pair_content};
use armada::verify::store::{CertKey, CertStore};
use armada::verify::SimConfig;
use armada::{CacheDisposition, Pipeline};

fn spec_source(rel: &str) -> String {
    std::fs::read_to_string(format!("{}/{rel}", env!("CARGO_MANIFEST_DIR")))
        .expect("shipped spec readable")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("armada-cert-keys-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each recipe's `(key, subject)`, in recipe order, derived the way the
/// pipeline derives them.
fn keys(source: &str, sim: &SimConfig) -> Vec<(CertKey, u64)> {
    let typed = check_module(&parse_module(source).expect("parses")).expect("type-checks");
    let relation = typed.module.relation();
    typed
        .module
        .recipes
        .iter()
        .map(|recipe| {
            let low = lower(&typed, &recipe.low).expect("low lowers");
            let high = lower(&typed, &recipe.high).expect("high lowers");
            let content = pair_content(&low, &high, &relation);
            (
                CertKey::compute(&content, &recipe.low, &recipe.high, sim),
                subject_digest(&content, &recipe.low, &recipe.high),
            )
        })
        .collect()
}

/// The key file names in a store directory.
fn stored(dir: &Path) -> BTreeSet<String> {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .map(|e| {
                    e.expect("dir entry")
                        .file_name()
                        .to_string_lossy()
                        .into_owned()
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Runs `source` against the store in `dir` (with `--recheck`, so a hit
/// must also carry this recipe's subject and replay) and returns each
/// recipe's cache disposition.
fn run_cached(source: &str, dir: &Path) -> Vec<(String, CacheDisposition)> {
    let report = Pipeline::from_source(source)
        .expect("front end")
        .with_cert_store(CertStore::open(dir))
        .with_recheck(true)
        .run()
        .expect("pipeline runs");
    assert!(report.verified(), "{}", report.failure_summary());
    report
        .outcomes
        .iter()
        .map(|o| (o.recipe.clone(), o.cache))
        .collect()
}

/// `source` with the `level <name> { … }` block (through its closing
/// brace) moved to the end of the file.
fn move_level_to_end(source: &str, name: &str) -> String {
    let start = source
        .find(&format!("level {name} {{"))
        .expect("level present");
    let mut depth = 0;
    let mut end = start;
    for (offset, c) in source[start..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    end = start + offset + 1;
                    break;
                }
            }
            _ => {}
        }
    }
    format!(
        "{}{}\n{}\n",
        &source[..start],
        &source[end..],
        &source[start..end]
    )
}

#[test]
fn comments_blank_lines_and_moved_levels_keep_every_key_and_subject() {
    let source = spec_source("specs/handoff.arm");
    let sim = SimConfig::default();
    let base = keys(&source, &sim);
    assert_eq!(base.len(), 2);
    let edits = [
        format!("{source}\n// a comment after the last recipe\n"),
        source.replace(
            "    void producer() {\n",
            "    // what the producer does\n    void producer() {\n\n\n",
        ),
        move_level_to_end(&source, "Implementation"),
        move_level_to_end(&source, "Loose"),
    ];
    let dir = scratch("layout");
    assert!(run_cached(&source, &dir)
        .iter()
        .all(|(_, cache)| *cache == CacheDisposition::Miss));
    let written = stored(&dir);
    let named: BTreeSet<String> = base
        .iter()
        .map(|(key, _)| format!("{}.cert", key.as_hex()))
        .collect();
    assert_eq!(written, named, "the pipeline keys recipes as `keys` does");
    for edited in &edits {
        assert_ne!(edited, &source);
        assert_eq!(keys(edited, &sim), base, "{edited}");
        let served = run_cached(edited, &dir);
        assert!(
            served
                .iter()
                .all(|(_, cache)| *cache == CacheDisposition::Hit),
            "{served:?}\n{edited}"
        );
        assert_eq!(stored(&dir), written, "a layout edit wrote a new record");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A module that exercises every kind of input the check reads.
const INPUTS: &str = "
level Low {
    struct Cell { var v: uint32; var w: uint32; }
    var x: uint32 := 1;
    ghost var g: int := 0;
    function twice(n: int): int { n + n }

    void main() {
        x := 1 + 2;
        g := twice(g);
        print(x);
    }
}

level High {
    var x: uint32 := 1;
    void main() { x := *; print(x); }
}

level Unrelated {
    var y: uint32;
    void main() { y := 5; }
}

proof P { refinement Low High nondet_weakening }

refinement relation log_prefix
";

#[test]
fn every_input_the_check_reads_changes_the_key() {
    let sim = SimConfig::default();
    let base = keys(INPUTS, &sim)[0];
    let edits = [
        (
            "a global's type",
            "var x: uint32 := 1;\n    ghost",
            "var x: uint16 := 1;\n    ghost",
        ),
        (
            "a global's initializer",
            "var x: uint32 := 1;\n    ghost",
            "var x: uint32 := 3;\n    ghost",
        ),
        (
            "a ghost's initializer",
            "ghost var g: int := 0;",
            "ghost var g: int := 4;",
        ),
        (
            "a new ghost",
            "ghost var g: int := 0;",
            "ghost var g: int := 0;\n    ghost var h: int;",
        ),
        ("a struct field", "var w: uint32; }", "var w: uint64; }"),
        ("a ghost function body", "{ n + n }", "{ n * 2 }"),
        ("an operator", "x := 1 + 2;", "x := 1 - 2;"),
        ("a literal", "x := 1 + 2;", "x := 1 + 3;"),
        (
            "a routine statement",
            "g := twice(g);",
            "g := twice(g);\n        g := 1;",
        ),
        (
            "the high level",
            "x := *; print(x); }",
            "x := *; print(x); print(x); }",
        ),
        (
            "the relation",
            "relation log_prefix",
            "relation log_equal_at_exit",
        ),
        (
            "a custom relation",
            "relation log_prefix",
            "relation \"low_log == high_log\"",
        ),
    ];
    let mut seen = vec![base.0];
    for (what, from, to) in edits {
        assert!(INPUTS.contains(from), "{what}: `{from}` not in the module");
        let edited = INPUTS.replacen(from, to, 1);
        let (key, subject) = keys(&edited, &sim)[0];
        assert_ne!(key, base.0, "{what} left the key unchanged");
        assert_ne!(subject, base.1, "{what} left the subject unchanged");
        assert!(!seen.contains(&key), "{what} collides with an earlier edit");
        seen.push(key);
    }
    // The relation's custom predicate enters as its parsed expression.
    let custom = INPUTS.replacen("relation log_prefix", "relation \"low_log == high_log\"", 1);
    let spaced = INPUTS.replacen(
        "relation log_prefix",
        "relation \"low_log  ==  high_log\"",
        1,
    );
    assert_eq!(keys(&custom, &sim), keys(&spaced, &sim));
    // A level the recipe does not read is outside its key.
    let unrelated = INPUTS.replacen("y := 5;", "y := 6; y := 7;", 1);
    assert_eq!(keys(&unrelated, &sim)[0], base);
}

#[test]
fn every_bound_the_check_reads_changes_the_key() {
    let base_sim = SimConfig::default();
    let base = keys(INPUTS, &base_sim)[0].0;
    let mut bounds: Vec<(&str, SimConfig)> = Vec::new();
    let mut push = |what, edit: &dyn Fn(&mut SimConfig)| {
        let mut sim = SimConfig::default();
        edit(&mut sim);
        bounds.push((what, sim));
    };
    push("max_match", &|s| s.max_match += 1);
    push("max_nodes", &|s| s.max_nodes += 1);
    push("max_steps", &|s| s.bounds.max_steps += 1);
    push("max_states", &|s| s.bounds.max_states += 1);
    push("max_buffer", &|s| s.bounds.max_buffer += 1);
    push("nondet_ints", &|s| s.bounds.nondet_ints.push(99));
    push("reduction", &|s| s.bounds.reduction = !s.bounds.reduction);
    push("symmetry", &|s| s.bounds.symmetry = !s.bounds.symmetry);
    for (what, sim) in &bounds {
        assert_ne!(
            keys(INPUTS, sim)[0].0,
            base,
            "{what} left the key unchanged"
        );
    }
    // jobs and the deadline change how a check runs, never its result.
    let mut free = SimConfig::default().with_jobs(3);
    free.bounds = free
        .bounds
        .with_deadline(std::time::Duration::from_secs(60));
    assert_eq!(keys(INPUTS, &free)[0].0, base);
}

#[test]
fn editing_queues_middle_level_misses_exactly_its_two_recipes() {
    let source = armada_cases::queue::MODEL;
    let (head, rest) = source.split_at(source.find("level Cemented {").expect("Cemented"));
    let (cemented, tail) = rest.split_at(rest.find("level Weak {").expect("Weak"));
    assert!(cemented.contains("assume e == 7;"));
    let edited = format!(
        "{head}{}{tail}",
        cemented.replace("assume e == 7;", "assume 7 == e;")
    );
    let dir = scratch("queue");
    run_cached(source, &dir);
    let warm = run_cached(&edited, &dir);
    let missed: Vec<&str> = warm
        .iter()
        .filter(|(_, cache)| *cache == CacheDisposition::Miss)
        .map(|(recipe, _)| recipe.as_str())
        .collect();
    assert_eq!(
        missed,
        ["AbstractQueueRefinesCemented", "CementedRefinesWeak"],
        "{warm:?}"
    );
    assert_eq!(
        warm.iter()
            .filter(|(_, cache)| *cache == CacheDisposition::Hit)
            .count(),
        2
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_previous_format_record_is_never_served_and_recheck_names_its_version() {
    let source = spec_source("specs/counter.arm");
    let dir = scratch("v4");
    run_cached(&source, &dir);
    let file = stored(&dir).into_iter().next().expect("one record");
    let path = dir.join(&file);
    let record = std::fs::read_to_string(&path).expect("record");
    let cert = parse_record(&record).expect("valid record");
    assert_eq!(write_record(&cert), record);
    // The same certificate labelled v4, checksum recomputed: only the
    // magic line differs from a record the store accepts.
    let payload = record
        .replacen("armada-cert v5\n", "armada-cert v4\n", 1)
        .rsplit_once("checksum ")
        .expect("checksum line")
        .0
        .to_string();
    assert!(payload.starts_with("armada-cert v4\n"), "relabel must land");
    let checksum = record_checksum(&payload);
    let v4 = format!("{payload}checksum {checksum:016x}\n");
    std::fs::write(&path, &v4).expect("plant the v4 record");
    let served = run_cached(&source, &dir);
    assert!(
        served
            .iter()
            .all(|(_, cache)| *cache == CacheDisposition::Miss),
        "a v4 record was served: {served:?}"
    );
    // Recheck reads the version before the checksum: relabelled with or
    // without a new checksum, the record is named as v4.
    let stale = record.replacen("armada-cert v5\n", "armada-cert v4\n", 1);
    for text in [&v4, &stale] {
        let err = armada::recheck::recheck_record(text, Some(&source)).expect_err("v4 accepted");
        assert!(
            err.to_string()
                .contains("record format v4 is not supported (this checker reads v5)"),
            "{err}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
