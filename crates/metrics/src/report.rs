//! Lightweight table rendering for experiment harnesses.
//!
//! Every `table*` binary in `crowdprompt-bench` prints a paper-vs-measured
//! table; this module does the column alignment so the harnesses stay
//! declarative.

/// A simple column-aligned table with a header row.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are right-padded with
    /// empty cells; longer rows are truncated.
    pub fn add_row<S: ToString>(&mut self, cells: &[S]) -> &mut Self {
        let mut row: Vec<String> = cells.iter().map(ToString::to_string).collect();
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn widths(&self) -> Vec<usize> {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        widths
    }

    /// Render as aligned plain text.
    pub fn render(&self) -> String {
        let widths = self.widths();
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&self.title);
            out.push('\n');
        }
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{cell:<width$}", width = widths[i]));
            }
            line.trim_end().to_owned()
        };
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            out.push_str(&format!("### {}\n\n", self.title));
        }
        out.push_str(&format!("| {} |\n", self.header.join(" | ")));
        out.push_str(&format!("|{}\n", "---|".repeat(self.header.len())));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("Demo", &["Method", "Score"]);
        t.add_row(&["baseline", "0.52"]);
        t.add_row(&["pairwise comparisons", "0.74"]);
        let text = t.render();
        assert!(text.contains("Demo"));
        let lines: Vec<&str> = text.lines().collect();
        // Header, rule, two rows.
        assert_eq!(lines.len(), 5);
        // Columns align: "Score"/"0.52" start at the same offset.
        let header_pos = lines[1].find("Score").unwrap();
        let row_pos = lines[3].find("0.52").unwrap();
        assert_eq!(header_pos, row_pos);
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = Table::new("", &["a", "b", "c"]);
        t.add_row(&["1"]);
        t.add_row(&["1", "2", "3", "4"]);
        assert_eq!(t.len(), 2);
        let text = t.render();
        assert!(!text.contains('4'));
    }

    #[test]
    fn markdown_rendering() {
        let mut t = Table::new("T1", &["Method", "Tau"]);
        t.add_row(&["baseline", "0.526"]);
        let md = t.render_markdown();
        assert!(md.starts_with("### T1"));
        assert!(md.contains("| Method | Tau |"));
        assert!(md.contains("| baseline | 0.526 |"));
    }

    #[test]
    fn empty_table() {
        let t = Table::new("x", &["col"]);
        assert!(t.is_empty());
        assert!(t.render().contains("col"));
    }
}
