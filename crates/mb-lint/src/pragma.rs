//! Inline suppression pragmas.
//!
//! Syntax, in a `//` comment on the flagged line or the line directly above:
//!
//! ```text
//! // mb-lint: allow(no-adhoc-threads) -- baseline measures spawn cost
//! ```
//!
//! Several rules may be listed comma-separated. The `-- <reason>` clause is
//! mandatory and must be non-empty: a suppression that cannot say *why* is
//! itself a violation (`invalid-pragma`), and an unparseable or unknown-rule
//! pragma is rejected the same way rather than silently ignored.

use crate::lexer::{Token, TokenKind};
use crate::rules::{Diagnostic, RuleId};

/// A parsed, valid suppression. A pragma trailing code silences `line`
/// itself; a pragma alone on its line silences `line + 1`. The two forms
/// never bleed further, so one justification covers exactly one site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Pragma {
    pub line: u32,
    pub rules: Vec<RuleId>,
    /// No code shares the pragma's line (the comment stands alone).
    pub standalone: bool,
}

const MARKER: &str = "mb-lint:";

/// Extract pragmas from a token stream. Malformed pragmas come back as
/// `invalid-pragma` diagnostics (never as silent no-ops) and suppress
/// nothing.
pub(crate) fn collect_pragmas(path: &str, toks: &[Token]) -> (Vec<Pragma>, Vec<Diagnostic>) {
    let code_lines: std::collections::HashSet<u32> = toks
        .iter()
        .filter(|t| {
            !matches!(
                t.kind,
                TokenKind::LineComment(_) | TokenKind::BlockComment { .. }
            )
        })
        .map(|t| t.line)
        .collect();
    let mut pragmas = Vec::new();
    let mut diags = Vec::new();
    for t in toks {
        let TokenKind::LineComment(text) = &t.kind else {
            continue;
        };
        let Some(at) = text.find(MARKER) else {
            continue;
        };
        // Only the marker followed by `allow(..)` is a pragma attempt;
        // prose that merely mentions the tool's name (docs, this crate's
        // own headers) is not.
        if !text[at + MARKER.len()..].trim_start().starts_with("allow") {
            continue;
        }
        match parse_pragma(&text[at + MARKER.len()..]) {
            Ok(rules) => pragmas.push(Pragma {
                line: t.line,
                rules,
                standalone: !code_lines.contains(&t.line),
            }),
            Err(why) => diags.push(Diagnostic {
                file: path.to_string(),
                line: t.line,
                rule: RuleId::InvalidPragma,
                message: why,
            }),
        }
    }
    (pragmas, diags)
}

/// Parse `allow(rule[, rule…]) -- reason` (the text after the marker).
fn parse_pragma(rest: &str) -> Result<Vec<RuleId>, String> {
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Err("expected `allow(<rule>) -- <reason>` after `mb-lint:`".to_string());
    };
    let Some(close) = rest.find(')') else {
        return Err("unclosed `allow(`".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match RuleId::parse(name) {
            Some(rule) => rules.push(rule),
            None => return Err(format!("unknown rule '{name}' in allow(..)")),
        }
    }
    if rules.is_empty() {
        return Err("allow(..) lists no rules".to_string());
    }
    let tail = rest[close + 1..].trim();
    let reason_ok = tail
        .strip_prefix("--")
        .map(str::trim)
        .is_some_and(|reason| !reason.is_empty());
    if !reason_ok {
        return Err(
            "suppression needs a non-empty justification: `-- <reason>`".to_string(),
        );
    }
    Ok(rules)
}

/// Whether `diag` is silenced by any pragma: a trailing pragma covers its
/// own line, a standalone pragma covers the next line. `invalid-pragma`
/// diagnostics are never suppressible.
pub(crate) fn suppressed(diag: &Diagnostic, pragmas: &[Pragma]) -> bool {
    if diag.rule == RuleId::InvalidPragma {
        return false;
    }
    pragmas.iter().any(|p| {
        let covered = if p.standalone {
            diag.line == p.line + 1
        } else {
            diag.line == p.line
        };
        covered && p.rules.contains(&diag.rule)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn pragma_src(comment: &str) -> String {
        format!("fn f() {{}} {comment}\n")
    }

    #[test]
    fn well_formed_pragma_parses() {
        let src = pragma_src("// mb-lint: allow(no-adhoc-threads) -- baseline measures spawn cost");
        let (pragmas, diags) = collect_pragmas("x.rs", &lex(&src));
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(pragmas.len(), 1);
        assert_eq!(pragmas[0].rules, vec![RuleId::NoAdhocThreads]);
    }

    #[test]
    fn multi_rule_pragma_parses() {
        let src = pragma_src(
            "// mb-lint: allow(float-total-order, hashmap-order-hazard) -- test fixture",
        );
        let (pragmas, diags) = collect_pragmas("x.rs", &lex(&src));
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(
            pragmas[0].rules,
            vec![RuleId::FloatTotalOrder, RuleId::HashmapOrderHazard]
        );
    }

    #[test]
    fn empty_reason_is_rejected() {
        for bad in [
            "// mb-lint: allow(no-adhoc-threads)",
            "// mb-lint: allow(no-adhoc-threads) --",
            "// mb-lint: allow(no-adhoc-threads) --   ",
        ] {
            let (pragmas, diags) = collect_pragmas("x.rs", &lex(&pragma_src(bad)));
            assert!(pragmas.is_empty(), "{bad}");
            assert_eq!(diags.len(), 1, "{bad}");
            assert_eq!(diags[0].rule, RuleId::InvalidPragma, "{bad}");
            assert!(diags[0].message.contains("non-empty justification"), "{bad}");
        }
    }

    #[test]
    fn unknown_rule_is_rejected() {
        let src = pragma_src("// mb-lint: allow(made-up-rule) -- because");
        let (pragmas, diags) = collect_pragmas("x.rs", &lex(&src));
        assert!(pragmas.is_empty());
        assert!(diags[0].message.contains("unknown rule 'made-up-rule'"));
    }

    #[test]
    fn pragma_inside_string_is_ignored() {
        let src = "fn f() { let s = \"// mb-lint: allow(float-total-order)\"; }\n";
        let (pragmas, diags) = collect_pragmas("x.rs", &lex(src));
        assert!(pragmas.is_empty());
        assert!(diags.is_empty());
    }

    #[test]
    fn trailing_pragma_covers_only_its_line() {
        let diag = |line| Diagnostic {
            file: "x.rs".to_string(),
            line,
            rule: RuleId::FloatTotalOrder,
            message: String::new(),
        };
        let trailing = vec![Pragma {
            line: 10,
            rules: vec![RuleId::FloatTotalOrder],
            standalone: false,
        }];
        assert!(suppressed(&diag(10), &trailing));
        assert!(!suppressed(&diag(11), &trailing));
        let standalone = vec![Pragma {
            line: 10,
            rules: vec![RuleId::FloatTotalOrder],
            standalone: true,
        }];
        assert!(!suppressed(&diag(10), &standalone));
        assert!(suppressed(&diag(11), &standalone));
        assert!(!suppressed(&diag(12), &standalone));
    }
}
