//! Row-oriented result reporting (text tables + JSON).

use fleetio_obs::json;

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

    /// Renders the report as one compact JSON object (no trailing
    /// newline), so a run's reports print as JSONL.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        json::object(&mut out, |o| {
            o.key("id").str(&self.id);
            o.key("title").str(&self.title);
            o.key("columns")
                .arr(|a| self.columns.iter().for_each(|c| a.item().str(c)));
            o.key("rows").arr(|a| {
                for (label, values) in &self.rows {
                    a.item().obj(|row| {
                        row.key("label").str(label);
                        row.key("values")
                            .arr(|a| values.iter().for_each(|v| a.item().f64(*v)));
                    });
                }
            });
            o.key("notes")
                .arr(|a| self.notes.iter().for_each(|n| a.item().str(n)));
        });
        out
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
    fn json_is_one_parseable_line() {
        let mut r = FigureReport::new("figY", "T \"quoted\"", &["c"]);
        r.row("r", vec![0.5]);
        r.row("nan", vec![f64::NAN]);
        r.note("n".into());
        let j = r.to_json();
        assert_eq!(
            j,
            "{\"id\":\"figY\",\"title\":\"T \\\"quoted\\\"\",\"columns\":[\"c\"],\
             \"rows\":[{\"label\":\"r\",\"values\":[0.5]},{\"label\":\"nan\",\"values\":[0]}],\
             \"notes\":[\"n\"]}"
        );
        let v = json::parse(&j).expect("report parses");
        let title = v.as_object().and_then(|o| o.get("title"));
        assert_eq!(title.and_then(|t| t.as_str()), Some("T \"quoted\""));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = FigureReport::new("z", "t", &["one"]);
        r.row("bad", vec![1.0, 2.0]);
    }
}
