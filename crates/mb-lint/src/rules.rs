//! The seven workspace-contract rules, each a token-sequence matcher.
//!
//! Most rules here guard a piece of the determinism story: reports must be
//! bit-identical at any partition/thread count, so float orderings must be
//! total, parallelism must flow through `mb-pool`'s deterministic merges,
//! clocks stay behind `mb-obs` (volatile fields are diff-exempt there), hash
//! iteration must never reach output order unsorted, and the executor/server
//! hot paths must degrade into typed errors rather than panics. One guards
//! the telemetry: trace stage and executor names come from one taxonomy.

use crate::lexer::{Token, TokenKind};
use std::collections::HashSet;
use std::fmt;

/// Stable identifiers for every diagnostic this crate can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// `partial_cmp`-based float ordering (NaN-unsound); require `total_cmp`.
    FloatTotalOrder,
    /// `std::thread::{spawn, scope, Builder}` outside `mb-pool`.
    NoAdhocThreads,
    /// `Instant::now`/`SystemTime::now` outside mb-obs, mb-bench and
    /// mb-serve's shell.
    NoAdhocClock,
    /// `unsafe` without an immediately preceding `// SAFETY:` comment.
    UnsafeNeedsSafetyComment,
    /// `HashMap`/`HashSet` iteration in output-bearing crates.
    HashmapOrderHazard,
    /// `unwrap()`/`expect()` in executor/server hot-path files.
    NoUnwrapInExecutors,
    /// A string literal as a trace's stage or executor name in core or
    /// mb-serve.
    TraceNamesFromTaxonomy,
    /// A malformed, unknown, or justification-free suppression pragma.
    InvalidPragma,
}

impl RuleId {
    /// Every rule a pragma may suppress (`invalid-pragma` itself cannot be).
    pub(crate) const SUPPRESSIBLE: [RuleId; 7] = [
        RuleId::FloatTotalOrder,
        RuleId::NoAdhocThreads,
        RuleId::NoAdhocClock,
        RuleId::UnsafeNeedsSafetyComment,
        RuleId::HashmapOrderHazard,
        RuleId::NoUnwrapInExecutors,
        RuleId::TraceNamesFromTaxonomy,
    ];

    /// The kebab-case name used in diagnostics and pragmas.
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::FloatTotalOrder => "float-total-order",
            RuleId::NoAdhocThreads => "no-adhoc-threads",
            RuleId::NoAdhocClock => "no-adhoc-clock",
            RuleId::UnsafeNeedsSafetyComment => "unsafe-needs-safety-comment",
            RuleId::HashmapOrderHazard => "hashmap-order-hazard",
            RuleId::NoUnwrapInExecutors => "no-unwrap-in-executors",
            RuleId::TraceNamesFromTaxonomy => "trace-names-from-taxonomy",
            RuleId::InvalidPragma => "invalid-pragma",
        }
    }

    /// Parse a pragma rule name.
    pub(crate) fn parse(name: &str) -> Option<RuleId> {
        RuleId::SUPPRESSIBLE
            .into_iter()
            .find(|r| r.as_str() == name)
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding, renderable as `file:line: rule-id: message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path with forward slashes.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
}

impl Diagnostic {
    /// The canonical human-readable form.
    pub fn render(&self) -> String {
        format!("{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }

    /// One machine-readable JSON object (no external deps: fields are
    /// escaped by hand).
    pub fn render_json(&self) -> String {
        format!(
            "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
            escape_json(&self.file),
            self.line,
            self.rule,
            escape_json(&self.message)
        )
    }
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

const ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
];

/// A non-comment token with its source line.
struct CodeTok<'a> {
    line: u32,
    kind: &'a TokenKind,
}

/// Run `rules` over a lexed file. `path` is only used to label diagnostics;
/// the per-path rule policy lives in [`crate::rules_for_path`].
pub(crate) fn lint_tokens(path: &str, toks: &[Token], rules: &[RuleId]) -> Vec<Diagnostic> {
    let code: Vec<CodeTok<'_>> = toks
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::LineComment(_) | TokenKind::BlockComment { .. }
            )
        })
        .map(|t| CodeTok {
            line: t.line,
            kind: &t.kind,
        })
        .collect();
    let test_spans = find_test_spans(&code);
    let in_test = |i: usize| test_spans.iter().any(|&(s, e)| i >= s && i <= e);

    let mut diags = Vec::new();
    let mut push = |line: u32, rule: RuleId, message: &str| {
        diags.push(Diagnostic {
            file: path.to_string(),
            line,
            rule,
            message: message.to_string(),
        });
    };

    let ident = |i: usize| -> Option<&str> { code.get(i).and_then(|t| t.kind.ident()) };
    let punct = |i: usize, c: char| -> bool {
        matches!(code.get(i), Some(t) if *t.kind == TokenKind::Punct(c))
    };

    let hash_names = if rules.contains(&RuleId::HashmapOrderHazard) {
        collect_hash_typed_names(&code)
    } else {
        HashSet::new()
    };

    for i in 0..code.len() {
        let line = code[i].line;

        if rules.contains(&RuleId::FloatTotalOrder)
            && ident(i) == Some("partial_cmp")
            && i >= 1
            && punct(i - 1, '.')
            && !in_test(i)
        {
            push(
                line,
                RuleId::FloatTotalOrder,
                "partial_cmp is not a total order (NaN breaks sort determinism); \
                 use f64::total_cmp",
            );
        }

        if rules.contains(&RuleId::NoAdhocThreads)
            && ident(i) == Some("thread")
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && matches!(ident(i + 3), Some("spawn" | "scope" | "Builder"))
            && !in_test(i)
        {
            push(
                line,
                RuleId::NoAdhocThreads,
                "ad-hoc std::thread parallelism; route work through mb-pool so \
                 results stay deterministic at any thread count",
            );
        }

        if rules.contains(&RuleId::NoAdhocClock)
            && matches!(ident(i), Some("Instant" | "SystemTime"))
            && punct(i + 1, ':')
            && punct(i + 2, ':')
            && ident(i + 3) == Some("now")
            && !in_test(i)
        {
            push(
                line,
                RuleId::NoAdhocClock,
                "direct clock read; time through mb_obs (StageTimer) so disabled \
                 telemetry stays branch-only and clocks stay mockable",
            );
        }

        if rules.contains(&RuleId::NoUnwrapInExecutors)
            && matches!(ident(i), Some("unwrap" | "expect"))
            && i >= 1
            && punct(i - 1, '.')
            && punct(i + 1, '(')
            && !in_test(i)
        {
            push(
                line,
                RuleId::NoUnwrapInExecutors,
                "unwrap/expect on an executor/server hot path; return a typed \
                 error or recover instead of panicking",
            );
        }

        if rules.contains(&RuleId::TraceNamesFromTaxonomy) && !in_test(i) {
            // `.finish_stage(timer, "…", …)` and `TraceBuilder::new(obs, "…")`.
            let open = if ident(i) == Some("finish_stage") && i >= 1 && punct(i - 1, '.') {
                Some(i + 1)
            } else if ident(i) == Some("TraceBuilder")
                && punct(i + 1, ':')
                && punct(i + 2, ':')
                && ident(i + 3) == Some("new")
            {
                Some(i + 4)
            } else {
                None
            };
            let name = open
                .filter(|&open| punct(open, '('))
                .and_then(|open| second_argument(&code, open));
            if let Some(name) = name.filter(|&name| *code[name].kind == TokenKind::Str) {
                push(
                    code[name].line,
                    RuleId::TraceNamesFromTaxonomy,
                    "string literal as a trace stage or executor name; use an \
                     mb_obs::stage constant or Executor::name()",
                );
            }
        }

        if rules.contains(&RuleId::HashmapOrderHazard) && !in_test(i) {
            // `name.iter()` / `name.keys()` / … where `name` is hash-typed.
            if let Some(m) = ident(i) {
                if ITER_METHODS.contains(&m)
                    && i >= 2
                    && punct(i - 1, '.')
                    && punct(i + 1, '(')
                    && matches!(ident(i - 2), Some(n) if hash_names.contains(n))
                {
                    push(
                        line,
                        RuleId::HashmapOrderHazard,
                        "HashMap/HashSet iteration order is nondeterministic; sort \
                         before anything output-bearing or justify with an allow \
                         pragma",
                    );
                }
            }
            // `for pat in [&][mut] path.to.name {` where `name` is hash-typed.
            if ident(i) == Some("in") {
                if let Some((last, next)) = for_loop_iterated_name(&code, i) {
                    if punct(next, '{') && hash_names.contains(last) {
                        push(
                            code[i].line,
                            RuleId::HashmapOrderHazard,
                            "HashMap/HashSet iteration order is nondeterministic; \
                             sort before anything output-bearing or justify with an \
                             allow pragma",
                        );
                    }
                }
            }
        }
    }

    if rules.contains(&RuleId::UnsafeNeedsSafetyComment) {
        check_unsafe_safety_comments(path, toks, &code, &mut diags);
    }

    diags
}

/// The index of the first token of the second argument of the call whose
/// `(` is `code[open]`, if the call has a second argument.
fn second_argument(code: &[CodeTok<'_>], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in code.iter().enumerate().skip(open) {
        match t.kind {
            TokenKind::Punct('(' | '[' | '{') => depth += 1,
            TokenKind::Punct(')' | ']' | '}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return None;
                }
            }
            TokenKind::Punct(',') if depth == 1 => return (k + 1 < code.len()).then_some(k + 1),
            _ => {}
        }
    }
    None
}

/// After `in` at `code[i]`, skip `&`/`mut`, then walk a dotted identifier
/// path. Returns the final identifier and the index just past it.
fn for_loop_iterated_name<'a>(code: &'a [CodeTok<'a>], i: usize) -> Option<(&'a str, usize)> {
    let mut j = i + 1;
    while matches!(code.get(j), Some(t) if *t.kind == TokenKind::Punct('&'))
        || matches!(code.get(j), Some(t) if t.kind.ident() == Some("mut"))
    {
        j += 1;
    }
    let mut last = code.get(j)?.kind.ident()?;
    loop {
        let dot = matches!(code.get(j + 1), Some(t) if *t.kind == TokenKind::Punct('.'));
        let next_ident = code.get(j + 2).and_then(|t| t.kind.ident());
        match (dot, next_ident) {
            (true, Some(name)) => {
                last = name;
                j += 2;
            }
            _ => break,
        }
    }
    Some((last, j + 1))
}

/// Names bound to a `HashMap`/`HashSet` in this file: type-ascribed bindings,
/// struct fields, fn params (`name: HashMap<…>`, through `&`/`&mut`), and
/// direct constructions (`name = HashMap::new()`).
fn collect_hash_typed_names<'a>(code: &'a [CodeTok<'a>]) -> HashSet<&'a str> {
    let mut names = HashSet::new();
    for i in 0..code.len() {
        if !matches!(code[i].kind.ident(), Some("HashMap" | "HashSet")) {
            continue;
        }
        // Skip path tails (`std::collections::HashMap`) back to the start of
        // the type expression.
        let mut j = i;
        while j >= 2
            && matches!(code[j - 1].kind, TokenKind::Punct(':'))
            && matches!(code[j - 2].kind, TokenKind::Punct(':'))
        {
            if j >= 3 && code[j - 3].kind.ident().is_some() {
                j -= 3;
            } else {
                break;
            }
        }
        if j == 0 {
            continue;
        }
        // `name : [&] [mut] ['a] <type>` — ascription, field, or param.
        let mut k = j - 1;
        while k >= 1
            && (matches!(code[k].kind, TokenKind::Punct('&') | TokenKind::Lifetime)
                || code[k].kind.ident() == Some("mut"))
        {
            k -= 1;
        }
        if matches!(code[k].kind, TokenKind::Punct(':'))
            && k >= 1
            && !matches!(code[k - 1].kind, TokenKind::Punct(':'))
        {
            if let Some(name) = code[k - 1].kind.ident() {
                names.insert(name);
                continue;
            }
        }
        // `name = HashMap::new()` without an ascription.
        if matches!(code[j - 1].kind, TokenKind::Punct('='))
            && j >= 2
            && punct_at(code, i + 1, ':')
            && punct_at(code, i + 2, ':')
        {
            if let Some(name) = code[j - 2].kind.ident() {
                names.insert(name);
            }
        }
    }
    names
}

fn punct_at(code: &[CodeTok<'_>], i: usize, c: char) -> bool {
    matches!(code.get(i), Some(t) if *t.kind == TokenKind::Punct(c))
}

/// Every `unsafe` token must be covered by a `// SAFETY:` (or `/* SAFETY:`)
/// comment on its own line or in the contiguous comment block directly above.
fn check_unsafe_safety_comments(
    path: &str,
    toks: &[Token],
    code: &[CodeTok<'_>],
    diags: &mut Vec<Diagnostic>,
) {
    let mut commented: HashSet<u32> = HashSet::new();
    let mut safety: HashSet<u32> = HashSet::new();
    for t in toks {
        match &t.kind {
            TokenKind::LineComment(text) => {
                commented.insert(t.line);
                if text.contains("SAFETY:") {
                    safety.insert(t.line);
                }
            }
            TokenKind::BlockComment { text, end_line } => {
                for l in t.line..=*end_line {
                    commented.insert(l);
                    if text.contains("SAFETY:") {
                        safety.insert(l);
                    }
                }
            }
            _ => {}
        }
    }
    for t in code {
        if t.kind.ident() != Some("unsafe") {
            continue;
        }
        let mut ok = safety.contains(&t.line);
        let mut l = t.line.saturating_sub(1);
        while !ok && l > 0 && commented.contains(&l) {
            ok = safety.contains(&l);
            l -= 1;
        }
        if !ok {
            diags.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: RuleId::UnsafeNeedsSafetyComment,
                message: "unsafe without an immediately preceding `// SAFETY:` \
                          comment stating the invariant it relies on"
                    .to_string(),
            });
        }
    }
}

/// Spans (inclusive, over non-comment token indices) of items annotated
/// `#[test]` or `#[cfg(test)]` — the file's test code, exempt from the
/// determinism rules.
fn find_test_spans(code: &[CodeTok<'_>]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0;
    while i < code.len() {
        let Some((attr_end, is_test)) = parse_attribute(code, i) else {
            i += 1;
            continue;
        };
        if !is_test {
            i = attr_end + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut j = attr_end + 1;
        while let Some((next_end, _)) = parse_attribute(code, j) {
            j = next_end + 1;
        }
        // The item runs to its matching close brace, or to `;` for
        // brace-less items (`mod tests;`).
        let mut depth = 0usize;
        let mut end = code.len().saturating_sub(1);
        for (k, t) in code.iter().enumerate().skip(j) {
            match t.kind {
                TokenKind::Punct('{') => depth += 1,
                TokenKind::Punct('}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                TokenKind::Punct(';') if depth == 0 => {
                    end = k;
                    break;
                }
                _ => {}
            }
        }
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// If `code[i]` opens an attribute (`#` `[` … `]`), return the index of its
/// closing `]` and whether it marks test code (`#[test]`, `#[cfg(test)]`,
/// or any `cfg` attribute mentioning `test`).
fn parse_attribute(code: &[CodeTok<'_>], i: usize) -> Option<(usize, bool)> {
    if !punct_at(code, i, '#') {
        return None;
    }
    let mut j = i + 1;
    if punct_at(code, j, '!') {
        j += 1;
    }
    if !punct_at(code, j, '[') {
        return None;
    }
    let mut depth = 0usize;
    let mut idents: Vec<&str> = Vec::new();
    for (k, t) in code.iter().enumerate().skip(j) {
        match &t.kind {
            TokenKind::Punct('[') => depth += 1,
            TokenKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    // `#[cfg(not(test))]` gates *production* code; only a
                    // positive `test` mention marks a test item.
                    let is_test = idents.first() == Some(&"test")
                        || (idents.first() == Some(&"cfg")
                            && idents.contains(&"test")
                            && !idents.contains(&"not"));
                    return Some((k, is_test));
                }
            }
            TokenKind::Ident(s) => idents.push(s.as_str()),
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(path: &str, src: &str, rules: &[RuleId]) -> Vec<String> {
        lint_tokens(path, &lex(src), rules)
            .into_iter()
            .map(|d| d.render())
            .collect()
    }

    #[test]
    fn float_rule_fires_outside_tests_only() {
        let src = "fn f(xs: &mut [f64]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n#[cfg(test)]\nmod tests {\n    fn g(a: f64, b: f64) { let _ = a.partial_cmp(&b); }\n}\n";
        let got = run("x.rs", src, &[RuleId::FloatTotalOrder]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].starts_with("x.rs:2: float-total-order:"), "{got:?}");
    }

    #[test]
    fn thread_rule_catches_spawn_scope_builder() {
        for call in ["std::thread::spawn(f)", "thread::scope(|s| {})", "std::thread::Builder::new()"] {
            let src = format!("fn f() {{ let _ = {call}; }}");
            let got = run("x.rs", &src, &[RuleId::NoAdhocThreads]);
            assert_eq!(got.len(), 1, "{call}: {got:?}");
        }
        let ok = run(
            "x.rs",
            "fn f() { std::thread::sleep(d); std::thread::yield_now(); }",
            &[RuleId::NoAdhocThreads],
        );
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn unsafe_rule_accepts_contiguous_safety_blocks() {
        let ok = "// SAFETY: the scope outlives every borrow;\n// see Pool::scope.\nlet run = unsafe { transmute(x) };\n";
        assert!(run("x.rs", ok, &[RuleId::UnsafeNeedsSafetyComment]).is_empty());
        let trailing = "unsafe { /* SAFETY: checked above */ go(); }\n";
        assert!(run("x.rs", trailing, &[RuleId::UnsafeNeedsSafetyComment]).is_empty());
        let bad = "// waits for pending to hit zero\nlet run = unsafe { transmute(x) };\n";
        let got = run("x.rs", bad, &[RuleId::UnsafeNeedsSafetyComment]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains(":2: unsafe-needs-safety-comment:"), "{got:?}");
    }

    #[test]
    fn hashmap_rule_needs_a_hash_typed_receiver() {
        let src = "fn f() {\n    let m: HashMap<u32, u32> = HashMap::new();\n    for (k, v) in &m {}\n    let total: f64 = m.values().sum();\n    let v = vec![1];\n    for x in &v {}\n    let _ = v.iter().count();\n}\n";
        let got = run("x.rs", src, &[RuleId::HashmapOrderHazard]);
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got[0].contains(":3: hashmap-order-hazard:"));
        assert!(got[1].contains(":4: hashmap-order-hazard:"));
    }

    #[test]
    fn hashmap_rule_sees_fields_and_params() {
        let src = "struct S { counts: HashMap<u32, f64> }\nimpl S {\n    fn decay(&mut self) { for c in self.counts.values_mut() { *c *= 0.5; } }\n}\nfn g(keep: &HashSet<u32>) { let _ = keep.iter().count(); }\n";
        let got = run("x.rs", src, &[RuleId::HashmapOrderHazard]);
        assert_eq!(got.len(), 2, "{got:?}");
    }

    #[test]
    fn vec_of_hashsets_is_not_flagged() {
        let src = "fn f(sets: Vec<HashSet<u32>>) { for s in &sets {} let _ = sets.iter().count(); }\n";
        let got = run("x.rs", src, &[RuleId::HashmapOrderHazard]);
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn unwrap_rule_ignores_unwrap_or_family() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap_or(0);\n    let b = x.unwrap_or_else(|| 1);\n    let c = x.unwrap_or_default();\n    x.unwrap() + a + b + c\n}\n";
        let got = run("x.rs", src, &[RuleId::NoUnwrapInExecutors]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].contains(":5: no-unwrap-in-executors:"));
    }

    #[test]
    fn violations_inside_literals_never_fire() {
        let src = "fn f() {\n    let s = \"xs.partial_cmp(b) std::thread::spawn Instant::now\";\n    let r = r#\"m.iter() unsafe .unwrap()\"#;\n}\n";
        let got = run(
            "crates/core/src/executor.rs",
            src,
            &RuleId::SUPPRESSIBLE,
        );
        assert!(got.is_empty(), "{got:?}");
    }
}
