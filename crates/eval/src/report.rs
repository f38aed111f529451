//! Plain-text / Markdown rendering of experiment results.
//!
//! Every experiment produces an [`ExperimentReport`]: a title referencing the paper artifact
//! (e.g. "Table 7 / Figure 10"), a set of named rows and free-form notes.  The same structure
//! renders as an aligned console table (for the `repro` binary) and as Markdown (`repro
//! --markdown`; the tiny preset's report is checked in as
//! `crates/eval/tests/tiny_reproduction.md`).

use crate::metrics::QErrorSummary;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One rendered experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ExperimentReport {
    /// Identifier, e.g. `table7`.
    pub id: String,
    /// Human-readable title, e.g. "Table 7 & Figure 10 — estimation errors on crd_test2".
    pub title: String,
    /// Column headers of the table body (not including the leading row-label column).
    pub headers: Vec<String>,
    /// Rows: a label plus one cell per header.
    pub rows: Vec<(String, Vec<String>)>,
    /// Free-form notes (what to compare against the paper, caveats, parameters used).
    pub notes: Vec<String>,
    /// Pre-rendered ASCII plots (the paper's box-plot figures), printed verbatim after the
    /// table body.
    pub plots: Vec<String>,
}

impl ExperimentReport {
    /// Creates an empty report.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Self {
        ExperimentReport {
            id: id.into(),
            title: title.into(),
            ..ExperimentReport::default()
        }
    }

    /// Uses the paper's standard q-error table header.
    pub fn with_qerror_headers(mut self) -> Self {
        self.headers = ["50th", "75th", "90th", "95th", "99th", "max", "mean"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        self
    }

    /// Sets custom headers.
    pub fn with_headers(mut self, headers: &[&str]) -> Self {
        self.headers = headers.iter().map(|s| s.to_string()).collect();
        self
    }

    /// Adds a q-error summary row.
    pub fn push_summary(&mut self, label: impl Into<String>, summary: &QErrorSummary) {
        self.rows.push((
            label.into(),
            vec![
                format_number(summary.p50),
                format_number(summary.p75),
                format_number(summary.p90),
                format_number(summary.p95),
                format_number(summary.p99),
                format_number(summary.max),
                format_number(summary.mean),
            ],
        ));
    }

    /// Adds a row of arbitrary cells.
    pub fn push_row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Adds a note line.
    pub fn push_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Attaches a pre-rendered ASCII plot (e.g. the box plots of Figures 5/6/9/10/12/13).
    pub fn push_plot(&mut self, plot: impl Into<String>) {
        self.plots.push(plot.into());
    }

    /// Renders the report as an aligned plain-text table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} [{}]", self.title, self.id);
        let label_width = self
            .rows
            .iter()
            .map(|(label, _)| label.len())
            .chain([5])
            .max()
            .unwrap_or(5)
            + 2;
        let cell_width = 12usize;
        // Header line.
        let _ = write!(out, "{:label_width$}", "");
        for header in &self.headers {
            let _ = write!(out, "{header:>cell_width$}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:<label_width$}");
            for cell in cells {
                let _ = write!(out, "{cell:>cell_width$}");
            }
            let _ = writeln!(out);
        }
        for note in &self.notes {
            let _ = writeln!(out, "  note: {note}");
        }
        for plot in &self.plots {
            let _ = writeln!(out);
            let _ = writeln!(out, "{plot}");
        }
        out
    }

    /// Renders the report as a Markdown section.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "### {} (`{}`)\n", self.title, self.id);
        let _ = writeln!(out, "| model | {} |", self.headers.join(" | "));
        let _ = writeln!(
            out,
            "|---|{}|",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        );
        for (label, cells) in &self.rows {
            let _ = writeln!(out, "| {} | {} |", label, cells.join(" | "));
        }
        if !self.notes.is_empty() {
            let _ = writeln!(out);
            for note in &self.notes {
                let _ = writeln!(out, "> {note}");
            }
        }
        for plot in &self.plots {
            let _ = writeln!(out, "\n```text\n{plot}```");
        }
        out
    }
}

/// Formats a number the way the paper's tables do: two decimals for small values, no decimals
/// for large ones.
pub fn format_number(value: f64) -> String {
    if !value.is_finite() {
        return "inf".to_string();
    }
    if value.abs() >= 1000.0 {
        format!("{value:.0}")
    } else if value.abs() >= 100.0 {
        format!("{value:.1}")
    } else {
        format!("{value:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn number_formatting_matches_paper_style() {
        assert_eq!(format_number(2.518), "2.52");
        assert_eq!(format_number(151.3), "151.3");
        assert_eq!(format_number(49327.4), "49327");
        assert_eq!(format_number(f64::INFINITY), "inf");
    }

    #[test]
    fn text_rendering_contains_all_rows_and_notes() {
        let mut report =
            ExperimentReport::new("table3", "Table 3 — containment errors").with_qerror_headers();
        let summary = QErrorSummary::from_errors(&[1.0, 2.0, 3.0, 10.0]);
        report.push_summary("CRN", &summary);
        report.push_summary("Crd2Cnt(PostgreSQL)", &summary);
        report.push_note("compare row ordering with the paper");
        let text = report.render_text();
        assert!(text.contains("Table 3"));
        assert!(text.contains("CRN"));
        assert!(text.contains("Crd2Cnt(PostgreSQL)"));
        assert!(text.contains("note: compare"));
        assert!(text.contains("mean"));
    }

    #[test]
    fn markdown_rendering_is_a_valid_table() {
        let mut report = ExperimentReport::new("t", "Title").with_headers(&["a", "b"]);
        report.push_row("row1", vec!["1".into(), "2".into()]);
        let md = report.render_markdown();
        assert!(md.contains("| model | a | b |"));
        assert!(md.contains("| row1 | 1 | 2 |"));
        assert!(md.starts_with("### Title"));
    }

    #[test]
    fn custom_rows_and_headers() {
        let mut report =
            ExperimentReport::new("table14", "Pool sweep").with_headers(&["50", "100"]);
        report.push_row("median", vec!["3.68".into(), "2.55".into()]);
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.headers.len(), 2);
    }
}
