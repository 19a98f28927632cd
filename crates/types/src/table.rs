//! Plain-text table rendering for report output.
//!
//! Every exhibit in `txstat-reports` renders through this module so the
//! regenerated tables share one visual style (right-aligned numerics,
//! left-aligned labels, column rules like the paper's figures).

/// Column alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Align {
    Left,
    Right,
}

/// A simple monospace table builder.
#[derive(Debug, Clone)]
pub struct TextTable {
    title: Option<String>,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    pub fn new(headers: &[&str]) -> Self {
        TextTable {
            title: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            aligns: headers.iter().map(|_| Align::Left).collect(),
            rows: Vec::new(),
        }
    }

    /// Set a caption printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Set per-column alignment; panics if the count mismatches the headers.
    pub fn with_aligns(mut self, aligns: &[Align]) -> Self {
        assert_eq!(
            aligns.len(),
            self.headers.len(),
            "alignment/header count mismatch"
        );
        self.aligns = aligns.to_vec();
        self
    }

    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "cell/header count mismatch"
        );
        self.rows.push(cells);
    }

    /// Render to a `String` (with trailing newline).
    pub fn render(&self) -> String {
        let ncol = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            out.push_str(t);
            out.push('\n');
        }
        let fmt_row = |cells: &[String], widths: &[usize], aligns: &[Align]| -> String {
            let mut line = String::new();
            for i in 0..ncol {
                if i > 0 {
                    line.push_str("  ");
                }
                let w = widths[i];
                let c = &cells[i];
                let pad = w.saturating_sub(c.chars().count());
                match aligns[i] {
                    Align::Left => {
                        line.push_str(c);
                        if i + 1 < ncol {
                            line.extend(std::iter::repeat_n(' ', pad));
                        }
                    }
                    Align::Right => {
                        line.extend(std::iter::repeat_n(' ', pad));
                        line.push_str(c);
                    }
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths, &vec![Align::Left; ncol]));
        out.push('\n');
        let rule_len = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.extend(std::iter::repeat_n('-', rule_len));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths, &self.aligns));
            out.push('\n');
        }
        out
    }
}

/// Render a series as its title line and one unicode sparkline glyph per
/// value, scaled to the largest value. Only the values are read, so a
/// caller passes no per-point label it would have to format.
pub fn render_series(title: &str, values: &[f64]) -> String {
    let mut out = format!("{title}\n");
    let max = values.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    out.extend(values.iter().map(|v| {
        let idx = ((v / max) * 7.0).round().clamp(0.0, 7.0) as usize;
        BARS[idx]
    }));
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_with_alignment() {
        let mut t = TextTable::new(&["name", "count"])
            .with_title("Demo")
            .with_aligns(&[Align::Left, Align::Right]);
        t.add_row(vec!["transfer".into(), "2,257,001,096".into()]);
        t.add_row(vec!["bidname".into(), "243,942".into()]);
        let s = t.render();
        assert!(s.contains("Demo"));
        let lines: Vec<&str> = s.lines().collect();
        // title + header + rule + 2 rows
        assert_eq!(lines.len(), 5);
        // Right-aligned column: both numeric cells end at same column.
        assert_eq!(lines[3].len(), lines[4].len());
        assert!(lines[4].ends_with("243,942"));
    }

    #[test]
    #[should_panic(expected = "cell/header count mismatch")]
    fn rejects_ragged_rows() {
        let mut t = TextTable::new(&["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn sparkline_scales() {
        let values: Vec<f64> = (0..8).map(f64::from).collect();
        let s = render_series("spark", &values);
        assert!(s.contains('█'));
        assert!(s.contains('▁'));
    }
}
