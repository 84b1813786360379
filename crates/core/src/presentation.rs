//! Presentation of MDP reports (Section 3.2, stage 5).
//!
//! MacroBase delivers ranked explanations to downstream consumers via a REST
//! API or GUI; here the equivalent is a plain-text report renderer for CLI
//! examples and bench output.

use crate::types::MdpReport;

/// Render the top `top_k` explanations of a report as an aligned text table.
pub fn render_report(report: &MdpReport, top_k: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "MacroBase report: {} points, {} outliers ({:.3}%), cutoff {}\n",
        report.num_points,
        report.num_outliers,
        100.0 * report.outlier_fraction(),
        report
            .score_cutoff
            .map(|c| format!("{c:.3}"))
            .unwrap_or_else(|| "n/a".to_string())
    ));
    if report.explanations.is_empty() {
        out.push_str("  (no explanations above thresholds)\n");
        return out;
    }
    out.push_str(&format!(
        "{:<55} {:>12} {:>10} {:>10}\n",
        "attributes", "risk ratio", "support", "outliers"
    ));
    for e in report.explanations.iter().take(top_k) {
        // Width in chars, not bytes: attribute values come from CSV and wire
        // input and may be any UTF-8.
        let attrs = e.attributes.join(", ");
        let attrs = if attrs.chars().count() > 53 {
            format!("{}…", attrs.chars().take(52).collect::<String>())
        } else {
            attrs
        };
        let ratio = if e.stats.risk_ratio.is_infinite() {
            "inf".to_string()
        } else {
            format!("{:.2}", e.stats.risk_ratio)
        };
        out.push_str(&format!(
            "{:<55} {:>12} {:>9.2}% {:>10.0}\n",
            attrs,
            ratio,
            100.0 * e.stats.outlier_support,
            e.stats.outlier_count
        ));
    }
    if report.explanations.len() > top_k {
        out.push_str(&format!(
            "  … and {} more explanations\n",
            report.explanations.len() - top_k
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::RenderedExplanation;
    use mb_explain::risk_ratio::ExplanationStats;

    fn sample_report() -> MdpReport {
        MdpReport {
            explanations: vec![
                RenderedExplanation {
                    attributes: vec!["device=B264".to_string(), "version=2.26.3".to_string()],
                    items: vec![0, 1],
                    stats: ExplanationStats::from_counts(60.0, 10.0, 100.0, 10_000.0),
                },
                RenderedExplanation {
                    attributes: vec!["device=X".to_string()],
                    items: vec![2],
                    stats: ExplanationStats::from_counts(5.0, 0.0, 100.0, 10_000.0),
                },
            ],
            num_points: 10_100,
            num_outliers: 100,
            score_cutoff: Some(3.2),
            scores: vec![],
            outlier_rows: vec![],
            partition_reports: None,
            trace: None,
        }
    }

    #[test]
    fn render_contains_key_fields() {
        let text = render_report(&sample_report(), 10);
        assert!(text.contains("10100 points"));
        assert!(text.contains("100 outliers"));
        assert!(text.contains("device=B264"));
        assert!(text.contains("risk ratio"));
    }

    #[test]
    fn render_truncates_to_top_k() {
        let text = render_report(&sample_report(), 1);
        assert!(text.contains("device=B264"));
        assert!(!text.contains("device=X"));
        assert!(text.contains("1 more explanation"));
    }

    #[test]
    fn render_handles_empty_report() {
        let report = MdpReport {
            explanations: vec![],
            num_points: 10,
            num_outliers: 0,
            score_cutoff: None,
            scores: vec![],
            outlier_rows: vec![],
            partition_reports: None,
            trace: None,
        };
        let text = render_report(&report, 5);
        assert!(text.contains("no explanations"));
        assert!(text.contains("n/a"));
    }

    #[test]
    fn render_truncates_long_attributes_on_char_boundaries() {
        // "d" then 30 two-byte chars: byte 52 falls inside a char.
        let attribute = format!("d{}", "é".repeat(30));
        let mut report = sample_report();
        report.explanations[0].attributes = vec![attribute.clone()];
        let text = render_report(&report, 10);
        let line = text.lines().find(|l| l.starts_with('d')).unwrap();
        assert!(line.starts_with(&attribute), "short values are not cut");

        report.explanations[0].attributes = vec![format!("d{}", "é".repeat(60))];
        let text = render_report(&report, 10);
        let line = text.lines().find(|l| l.starts_with('d')).unwrap();
        let attrs = line.split(" ").next().unwrap();
        assert_eq!(attrs, format!("d{}…", "é".repeat(51)));
    }
}
