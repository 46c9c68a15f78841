//! Row-oriented result reporting (text tables + JSON).

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
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"id\": {},\n", json_str(&self.id)));
        out.push_str(&format!("  \"title\": {},\n", json_str(&self.title)));
        out.push_str("  \"columns\": [");
        push_joined(&mut out, self.columns.iter().map(|c| json_str(c)));
        out.push_str("],\n  \"rows\": [");
        for (i, (label, values)) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"label\": {}, \"values\": [",
                json_str(label)
            ));
            push_joined(&mut out, values.iter().map(|v| json_num(*v)));
            out.push_str("]}");
        }
        if !self.rows.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("],\n  \"notes\": [");
        push_joined(&mut out, self.notes.iter().map(|n| json_str(n)));
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string into a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
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
    out.push('"');
    out
}

/// Renders an f64 as a JSON number (JSON has no NaN/Inf — map to null).
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn push_joined(out: &mut String, items: impl Iterator<Item = String>) {
    for (i, item) in items.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&item);
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
