use std::fmt;

/// A fixed-width text table: the output format of every experiment binary.
///
/// Columns are sized to their widest cell; numeric-looking cells are
/// right-aligned, text left-aligned. Rendered with a header rule.
///
/// ```
/// use adn_analysis::Table;
///
/// let mut t = Table::new(["n", "rounds"]);
/// t.row(["5", "10"]);
/// t.row(["15", "12"]);
/// let s = t.to_string();
/// assert!(s.contains("n"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I, S>(header: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let header: Vec<String> = header.into_iter().map(Into::into).collect();
        assert!(!header.is_empty(), "a table needs at least one column");
        Table {
            header,
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row width {} does not match header width {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
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
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.chars().count());
            }
        }
        widths
    }
}

fn looks_numeric(s: &str) -> bool {
    let t = s.trim();
    !t.is_empty()
        && t.chars()
            .all(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E' | '%' | 'x'))
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let widths = self.widths();
        // Header.
        for (i, (h, w)) in self.header.iter().zip(&widths).enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{h:<w$}")?;
        }
        writeln!(f)?;
        // Rule.
        for (i, w) in widths.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{}", "-".repeat(*w))?;
        }
        writeln!(f)?;
        // Rows.
        for row in &self.rows {
            for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                if looks_numeric(cell) {
                    write!(f, "{cell:>w$}")?;
                } else {
                    write!(f, "{cell:<w$}")?;
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Formats a float compactly for table cells: scientific for tiny/huge
/// magnitudes, fixed otherwise.
pub fn fmt_num(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() < 1e-3 || x.abs() >= 1e6 {
        format!("{x:.2e}")
    } else if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["alpha", "1"]);
        t.row(["b", "20000"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines have equal width.
        let w = lines[0].len();
        assert!(lines.iter().all(|l| l.len() == w), "{s}");
    }

    #[test]
    fn numeric_cells_right_aligned() {
        let mut t = Table::new(["x"]);
        t.row(["7"]);
        t.row(["12345"]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("    7"), "{s:?}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    #[should_panic(expected = "at least one column")]
    fn empty_header_panics() {
        Table::new(Vec::<String>::new());
    }

    #[test]
    fn len_tracks_rows() {
        let mut t = Table::new(["a"]);
        assert!(t.is_empty());
        t.row(["1"]).row(["2"]);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn fmt_num_choices() {
        assert_eq!(fmt_num(0.0), "0");
        assert_eq!(fmt_num(3.0), "3");
        assert_eq!(fmt_num(0.5), "0.5000");
        assert_eq!(fmt_num(1e-6), "1.00e-6");
        assert_eq!(fmt_num(2.5e7), "2.50e7");
    }

    #[test]
    fn looks_numeric_cases() {
        assert!(looks_numeric("123"));
        assert!(looks_numeric("-0.5"));
        assert!(looks_numeric("1.2e-3"));
        assert!(!looks_numeric("abc"));
        assert!(!looks_numeric(""));
    }
}
