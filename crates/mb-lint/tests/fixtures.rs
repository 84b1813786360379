//! Each rule is proven live against a seeded fixture: the fixture contains
//! exactly one violation plus a raw-string false-positive trap (the same
//! violating text inside an `r#"…"#` literal, which must never fire). The
//! expected diagnostics are pinned down to `file:line: rule-id`, so a rule
//! that drifts off its line, stops firing, or starts firing on the trap
//! fails here.
//!
//! Fixtures are linted under *virtual* workspace paths (the path drives the
//! rule policy — e.g. the unwrap rule only applies to the five hot-path
//! files), and the tree under `tests/fixtures/` is excluded from the
//! workspace walk so the seeded violations never pollute the self-scan.

use mb_lint::lint_source;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

/// Lint `fixture_name` as though it lived at `virtual_path`, returning the
/// rendered diagnostics truncated to their `file:line: rule-id` prefix.
fn lint_fixture(fixture_name: &str, virtual_path: &str) -> Vec<String> {
    lint_source(virtual_path, &fixture(fixture_name))
        .iter()
        .map(|d| {
            format!("{}:{}: {}", d.file, d.line, d.rule.as_str())
        })
        .collect()
}

#[test]
fn float_total_order_fires_once_on_the_seeded_line() {
    assert_eq!(
        lint_fixture("float_total_order.rs", "crates/core/src/demo.rs"),
        vec!["crates/core/src/demo.rs:7: float-total-order"]
    );
}

#[test]
fn no_adhoc_threads_fires_once_on_the_seeded_line() {
    assert_eq!(
        lint_fixture("no_adhoc_threads.rs", "crates/core/src/demo.rs"),
        vec!["crates/core/src/demo.rs:6: no-adhoc-threads"]
    );
}

#[test]
fn no_adhoc_clock_fires_once_on_the_seeded_line() {
    assert_eq!(
        lint_fixture("no_adhoc_clock.rs", "crates/core/src/demo.rs"),
        vec!["crates/core/src/demo.rs:6: no-adhoc-clock"]
    );
}

#[test]
fn unsafe_without_safety_comment_fires_once_on_the_seeded_line() {
    // The fixture's second unsafe block HAS a SAFETY comment and must pass.
    assert_eq!(
        lint_fixture("unsafe_needs_safety_comment.rs", "crates/core/src/demo.rs"),
        vec!["crates/core/src/demo.rs:6: unsafe-needs-safety-comment"]
    );
}

#[test]
fn hashmap_order_hazard_fires_once_on_the_seeded_line() {
    assert_eq!(
        lint_fixture("hashmap_order_hazard.rs", "crates/mb-explain/src/demo.rs"),
        vec!["crates/mb-explain/src/demo.rs:7: hashmap-order-hazard"]
    );
}

#[test]
fn hashmap_rule_is_scoped_to_output_bearing_crates() {
    // The same fixture under a non-output-bearing crate path is clean.
    assert_eq!(
        lint_fixture("hashmap_order_hazard.rs", "crates/mb-stats/src/demo.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn no_unwrap_in_executors_fires_once_on_the_seeded_line() {
    assert_eq!(
        lint_fixture("no_unwrap_in_executors.rs", "crates/core/src/executor.rs"),
        vec!["crates/core/src/executor.rs:6: no-unwrap-in-executors"]
    );
}

#[test]
fn unwrap_rule_is_scoped_to_the_hot_path_files() {
    // The same fixture anywhere else is clean.
    assert_eq!(
        lint_fixture("no_unwrap_in_executors.rs", "crates/core/src/query.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn trace_names_from_taxonomy_fires_on_both_seeded_lines() {
    assert_eq!(
        lint_fixture("trace_names_from_taxonomy.rs", "crates/core/src/demo.rs"),
        vec![
            "crates/core/src/demo.rs:6: trace-names-from-taxonomy",
            "crates/core/src/demo.rs:7: trace-names-from-taxonomy",
        ]
    );
}

#[test]
fn trace_name_rule_is_scoped_to_core_and_serve() {
    assert_eq!(
        lint_fixture("trace_names_from_taxonomy.rs", "crates/mb-obs/src/demo.rs"),
        Vec::<String>::new()
    );
}

#[test]
fn reasonless_pragma_surfaces_both_violation_and_invalid_pragma() {
    assert_eq!(
        lint_fixture("invalid_pragma.rs", "crates/core/src/demo.rs"),
        vec![
            "crates/core/src/demo.rs:8: float-total-order",
            "crates/core/src/demo.rs:8: invalid-pragma",
        ]
    );
}

#[test]
fn justified_suppression_lints_clean() {
    assert_eq!(
        lint_fixture("suppressed_clean.rs", "crates/core/src/demo.rs"),
        Vec::<String>::new()
    );
}
