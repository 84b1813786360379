//! mb-lint: the workspace-invariant static analyzer.
//!
//! MacroBase-RS promises bit-identical reports at any partition/thread
//! count. That guarantee rests on source-level contracts no compiler checks:
//! float orderings must be total (`total_cmp`, never `partial_cmp`),
//! parallelism must flow through `mb-pool`'s deterministic merges, clock
//! reads stay inside the observability/benchmark layers, `unsafe` must state
//! its invariant, hash-iteration order must never reach report bytes, and
//! the executor/server hot paths must fail typed, not panic. This crate is a
//! from-scratch, dependency-free lexer + rule engine that enforces those
//! contracts in CI; see [`rules::RuleId`] for the rule set and `pragma`
//! for the inline suppression syntax.
//!
//! ```
//! use mb_lint::{lint_source, rules::RuleId};
//!
//! let diags = lint_source(
//!     "crates/core/src/demo.rs",
//!     "fn f(xs: &mut [f64]) { xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); }",
//! );
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, RuleId::FloatTotalOrder);
//! assert_eq!(diags[0].line, 1);
//! ```

mod lexer;
mod pragma;
pub mod rules;
mod walk;

use rules::{Diagnostic, RuleId};

/// Whether `path` sits in test or bench scaffolding (integration `tests/`
/// and `benches/` trees). In-file `#[cfg(test)]` modules are handled
/// separately, by token spans.
fn in_tests_or_benches(path: &str) -> bool {
    path.starts_with("tests/")
        || path.starts_with("benches/")
        || path.contains("/tests/")
        || path.contains("/benches/")
}

/// The rule set that applies to a workspace-relative path.
///
/// Policy (see ARCHITECTURE.md's rule table):
/// - `float-total-order`, `no-adhoc-threads`, `no-adhoc-clock`,
///   `no-unwrap-in-executors`, `hashmap-order-hazard` skip `tests/` and
///   `benches/` trees — those never feed report bytes.
/// - `no-adhoc-threads` exempts `mb-pool` (the sanctioned thread owner).
/// - `no-adhoc-clock` exempts `mb-obs` (owns the clock), `mb-bench`
///   (measures wall time by design), and `mb-serve`'s shell, `server.rs`
///   (it reads the clock for the state machine, which takes time as input).
/// - `hashmap-order-hazard` covers only the output-bearing crates: core,
///   mb-explain, mb-fpgrowth, mb-sketch.
/// - `no-unwrap-in-executors` pins the twenty-three hot-path files: the four
///   executor/server ones (engines, the server's shell and its state
///   machine), the four every ingested or served byte goes through (CSV,
///   operators, both wire decoders), the two every attribute value is
///   encoded through (the dictionary encoder, `ItemBatch`), the two
///   classifiers every batch query or streamed point runs through (batch,
///   streaming), the three estimators they fit (MAD, FastMCD, Z-score), the
///   three every batch query is explained through (the batch explainer, the
///   risk ratio, the FP-tree), and the five every streamed point is written
///   into (the ADR, the AMC, the M-CPS tree, the prefix tree beneath it, the
///   streaming explainer).
/// - `trace-names-from-taxonomy` covers core and mb-serve, the crates that
///   build query traces.
/// - `unsafe-needs-safety-comment` applies everywhere, tests included.
pub(crate) fn rules_for_path(path: &str) -> Vec<RuleId> {
    let mut rules = vec![RuleId::UnsafeNeedsSafetyComment];
    if in_tests_or_benches(path) {
        return rules;
    }
    rules.push(RuleId::FloatTotalOrder);
    if !path.starts_with("crates/mb-pool/") {
        rules.push(RuleId::NoAdhocThreads);
    }
    if !path.starts_with("crates/mb-obs/")
        && !path.starts_with("crates/mb-bench/")
        && path != "crates/mb-serve/src/server.rs"
    {
        rules.push(RuleId::NoAdhocClock);
    }
    if path.starts_with("crates/core/")
        || path.starts_with("crates/mb-explain/")
        || path.starts_with("crates/mb-fpgrowth/")
        || path.starts_with("crates/mb-sketch/")
    {
        rules.push(RuleId::HashmapOrderHazard);
    }
    if matches!(
        path,
        "crates/core/src/executor.rs"
            | "crates/core/src/operator.rs"
            | "crates/core/src/streaming.rs"
            | "crates/core/src/wire.rs"
            | "crates/mb-explain/src/encoder.rs"
            | "crates/mb-explain/src/items.rs"
            | "crates/mb-explain/src/batch.rs"
            | "crates/mb-explain/src/risk_ratio.rs"
            | "crates/mb-fpgrowth/src/fptree.rs"
            | "crates/mb-ingest/src/csv.rs"
            | "crates/mb-serve/src/server.rs"
            | "crates/mb-serve/src/state.rs"
            | "crates/mb-serve/src/wire.rs"
            | "crates/mb-classify/src/batch.rs"
            | "crates/mb-classify/src/streaming.rs"
            | "crates/mb-stats/src/mad.rs"
            | "crates/mb-stats/src/mcd.rs"
            | "crates/mb-stats/src/zscore.rs"
            | "crates/mb-sketch/src/adr.rs"
            | "crates/mb-sketch/src/amc.rs"
            | "crates/mb-fpgrowth/src/mcps.rs"
            | "crates/mb-fpgrowth/src/cps.rs"
            | "crates/mb-explain/src/streaming.rs"
    ) {
        rules.push(RuleId::NoUnwrapInExecutors);
    }
    if path.starts_with("crates/core/") || path.starts_with("crates/mb-serve/") {
        rules.push(RuleId::TraceNamesFromTaxonomy);
    }
    rules
}

/// Lint one file's source under its workspace-relative `path` (the path
/// drives the rule policy and labels diagnostics). Pragma handling included:
/// valid suppressions are applied, malformed ones surface as
/// `invalid-pragma`. Diagnostics come back sorted by line then rule.
pub fn lint_source(path: &str, src: &str) -> Vec<Diagnostic> {
    let toks = lexer::lex(src);
    let (pragmas, mut diags) = pragma::collect_pragmas(path, &toks);
    let rules = rules_for_path(path);
    diags.extend(
        rules::lint_tokens(path, &toks, &rules)
            .into_iter()
            .filter(|d| !pragma::suppressed(d, &pragmas)),
    );
    diags.sort_by(|a, b| a.line.cmp(&b.line).then_with(|| a.rule.cmp(&b.rule)));
    diags
}

/// Lint every workspace source file under `root`. Diagnostics are sorted by
/// (file, line, rule) so output is stable for CI diffing.
pub fn lint_workspace(root: &std::path::Path) -> std::io::Result<(usize, Vec<Diagnostic>)> {
    let files = walk::workspace_sources(root)?;
    let checked = files.len();
    let mut diags = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        diags.extend(lint_source(&rel, &src));
    }
    diags.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then_with(|| a.line.cmp(&b.line))
            .then_with(|| a.rule.cmp(&b.rule))
    });
    Ok((checked, diags))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_exempts_the_owning_layers() {
        assert!(!rules_for_path("crates/mb-pool/src/lib.rs").contains(&RuleId::NoAdhocThreads));
        assert!(rules_for_path("crates/core/src/lib.rs").contains(&RuleId::NoAdhocThreads));
        assert!(!rules_for_path("crates/mb-obs/src/trace.rs").contains(&RuleId::NoAdhocClock));
        assert!(!rules_for_path("crates/mb-bench/src/bin/fig11.rs").contains(&RuleId::NoAdhocClock));
        assert!(rules_for_path("examples/quickstart.rs").contains(&RuleId::NoAdhocClock));
        // mb-serve's shell reads the clock; the state machine takes time as
        // input, and the rest of the crate has no use for a clock.
        assert!(!rules_for_path("crates/mb-serve/src/server.rs").contains(&RuleId::NoAdhocClock));
        for path in [
            "crates/mb-serve/src/state.rs",
            "crates/mb-serve/src/wire.rs",
            "crates/mb-serve/src/bin/mb_serve.rs",
        ] {
            assert!(rules_for_path(path).contains(&RuleId::NoAdhocClock), "{path}");
        }
        assert!(rules_for_path("crates/mb-sketch/src/amc.rs").contains(&RuleId::HashmapOrderHazard));
        assert!(!rules_for_path("crates/mb-stats/src/matrix.rs")
            .contains(&RuleId::HashmapOrderHazard));
    }

    #[test]
    fn tests_and_benches_keep_only_the_unsafe_rule() {
        for path in [
            "tests/query_executor.rs",
            "crates/core/tests/wire.rs",
            "crates/mb-bench/benches/bench_sketch.rs",
        ] {
            assert_eq!(
                rules_for_path(path),
                vec![RuleId::UnsafeNeedsSafetyComment],
                "{path}"
            );
        }
    }

    #[test]
    fn hot_path_files_get_the_unwrap_rule() {
        assert!(rules_for_path("crates/core/src/executor.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/mb-serve/src/server.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/core/src/operator.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/mb-ingest/src/csv.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/mb-serve/src/state.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        for estimator in ["mad", "mcd", "zscore"] {
            let path = format!("crates/mb-stats/src/{estimator}.rs");
            assert!(rules_for_path(&path).contains(&RuleId::NoUnwrapInExecutors), "{path}");
        }
        for classifier in ["batch", "streaming"] {
            let path = format!("crates/mb-classify/src/{classifier}.rs");
            assert!(rules_for_path(&path).contains(&RuleId::NoUnwrapInExecutors), "{path}");
        }
        assert!(rules_for_path("crates/core/src/wire.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/mb-serve/src/wire.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(rules_for_path("crates/mb-explain/src/encoder.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(
            rules_for_path("crates/mb-explain/src/items.rs").contains(&RuleId::NoUnwrapInExecutors)
        );
        for explained in [
            "crates/mb-explain/src/batch.rs",
            "crates/mb-explain/src/risk_ratio.rs",
            "crates/mb-fpgrowth/src/fptree.rs",
        ] {
            assert!(
                rules_for_path(explained).contains(&RuleId::NoUnwrapInExecutors),
                "{explained}"
            );
        }
        for streamed in [
            "crates/mb-sketch/src/adr.rs",
            "crates/mb-sketch/src/amc.rs",
            "crates/mb-fpgrowth/src/mcps.rs",
            "crates/mb-fpgrowth/src/cps.rs",
            "crates/mb-explain/src/streaming.rs",
        ] {
            assert!(
                rules_for_path(streamed).contains(&RuleId::NoUnwrapInExecutors),
                "{streamed}"
            );
        }
        assert!(!rules_for_path("crates/mb-sketch/src/reservoir.rs")
            .contains(&RuleId::NoUnwrapInExecutors));
        assert!(
            !rules_for_path("crates/mb-ingest/src/datasets.rs").contains(&RuleId::NoUnwrapInExecutors)
        );
        assert!(
            !rules_for_path("crates/core/src/query.rs").contains(&RuleId::NoUnwrapInExecutors)
        );
        assert!(
            !rules_for_path("crates/mb-stats/src/matrix.rs").contains(&RuleId::NoUnwrapInExecutors)
        );
    }

    #[test]
    fn trace_name_rule_covers_the_crates_that_build_traces() {
        let covered = |path: &str| rules_for_path(path).contains(&RuleId::TraceNamesFromTaxonomy);
        assert!(covered("crates/core/src/executor.rs"));
        assert!(covered("crates/core/src/operator.rs"));
        assert!(covered("crates/mb-serve/src/server.rs"));
        assert!(!covered("crates/mb-obs/src/trace.rs"));
        assert!(!covered("crates/mb-bench/src/bin/table3_simple_queries.rs"));
        assert!(!covered("crates/mb-serve/tests/wire_protocol.rs"));
    }

    #[test]
    fn suppression_and_empty_reason_interplay() {
        let src = "fn f() {\n    let t = std::thread::spawn(g); // mb-lint: allow(no-adhoc-threads) -- spawn-overhead baseline\n    let u = std::thread::spawn(g); // mb-lint: allow(no-adhoc-threads) --\n}\n";
        let diags = lint_source("crates/core/src/demo.rs", src);
        // Line 2 is suppressed with a reason; line 3's pragma is invalid so
        // BOTH the violation and the bad pragma surface.
        let rendered: Vec<String> = diags.iter().map(|d| d.render()).collect();
        assert_eq!(diags.len(), 2, "{rendered:?}");
        assert_eq!(diags[0].rule, RuleId::NoAdhocThreads);
        assert_eq!(diags[0].line, 3);
        assert_eq!(diags[1].rule, RuleId::InvalidPragma);
        assert_eq!(diags[1].line, 3);
    }
}
