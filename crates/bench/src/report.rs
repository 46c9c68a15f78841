//! Row-oriented result reporting (text tables + JSON).

use std::fmt::Write as _;

use fleetio_obs::json::write_str;

/// One figure's regenerated rows.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Identifier, e.g. `"fig10"`.
    pub id: String,
    /// What the figure shows.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Row label + one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Free-form notes (paper-vs-measured commentary).
    pub notes: Vec<String>,
}

impl FigureReport {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        FigureReport {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends one row.
    pub fn row(&mut self, label: &str, values: Vec<f64>) {
        assert_eq!(values.len(), self.columns.len(), "row width mismatch");
        self.rows.push((label.to_string(), values));
    }

    /// Appends a note.
    pub fn note(&mut self, text: String) {
        self.notes.push(text);
    }

    /// Renders the report as an aligned text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain(std::iter::once(8))
            .max()
            .unwrap_or(8);
        out.push_str(&format!("{:label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" | {c:>12}"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("{label:label_w$}"));
            for v in values {
                if v.abs() >= 1000.0 {
                    out.push_str(&format!(" | {v:>12.0}"));
                } else {
                    out.push_str(&format!(" | {v:>12.3}"));
                }
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Renders the report as JSON (hand-rolled; the workspace builds with
    /// no external crates).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"id\": ");
        write_str(&mut out, &self.id);
        out.push_str(",\n  \"title\": ");
        write_str(&mut out, &self.title);
        out.push_str(",\n  \"columns\": [");
        push_joined(&mut out, &self.columns, |out, c| write_str(out, c));
        out.push_str("],\n  \"rows\": [");
        for (i, (label, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"label\": ");
            write_str(&mut out, label);
            out.push_str(", \"values\": [");
            push_joined(&mut out, values, |out, v| write_num(out, *v));
            out.push_str("]}");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"notes\": [");
        push_joined(&mut out, &self.notes, |out, n| write_str(out, n));
        out.push_str("]\n}\n");
        out
    }
}

/// Appends an f64 as a JSON number (JSON has no NaN/Inf — map to null).
fn write_num(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_joined<T>(out: &mut String, items: &[T], mut write: impl FnMut(&mut String, &T)) {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write(out, item);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_rendering_includes_everything() {
        let mut r = FigureReport::new("figX", "Test", &["a", "b"]);
        r.row("row1", vec![1.0, 2500.0]);
        r.note("hello".into());
        let t = r.to_text();
        assert!(t.contains("figX"));
        assert!(t.contains("row1"));
        assert!(t.contains("2500"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn json_contains_fields_and_escapes() {
        let mut r = FigureReport::new("figY", "T \"quoted\"", &["c"]);
        r.row("r", vec![0.5]);
        r.row("nan", vec![f64::NAN]);
        let j = r.to_json();
        assert!(j.contains("\"id\": \"figY\""), "{j}");
        assert!(j.contains("\"title\": \"T \\\"quoted\\\"\""), "{j}");
        assert!(j.contains("\"label\": \"r\", \"values\": [0.5]"), "{j}");
        assert!(j.contains("\"values\": [null]"), "{j}");
        // Balanced braces/brackets as a cheap well-formedness check.
        for (open, close) in [('{', '}'), ('[', ']')] {
            let o = j.matches(open).count();
            let c = j.matches(close).count();
            assert_eq!(o, c, "unbalanced {open}{close} in {j}");
        }
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = FigureReport::new("z", "t", &["one"]);
        r.row("bad", vec![1.0, 2.0]);
    }
}
