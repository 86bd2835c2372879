//! Plain-text table and series rendering (no external dependencies).

/// Renders an aligned text table. The first row is the header.
///
/// # Examples
/// ```
/// use recluster_sim::report::render_table;
/// let s = render_table(
///     &["a", "b"],
///     &[vec!["1".into(), "2".into()], vec!["30".into(), "4".into()]],
/// );
/// assert!(s.contains("a"));
/// assert!(s.lines().count() >= 4);
/// ```
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), n_cols, "row width mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let render_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    out.push_str(&render_row(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
    ));
    out.push('\n');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&render_row(row));
        out.push('\n');
    }
    out
}

/// Renders rows as CSV (no quoting — experiment output contains no
/// commas).
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers.join(",");
    out.push('\n');
    for row in rows {
        out.push_str(&row.join(","));
        out.push('\n');
    }
    out
}

/// Formats a float with three decimals (the paper's table precision is
/// two; three keeps small differences visible).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Tiny FNV-1a accumulator behind every report digest — same offset
/// basis and prime as the golden suite's `BitDigest`, fed counters as
/// integers and floats by their raw bits, so a digest line pins
/// sub-rounding drift.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    pub(crate) fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub(crate) fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

/// Formats an optional round count, `-` when absent (as Table 1 does for
/// the non-converging scenario).
pub fn rounds_cell(rounds: Option<usize>) -> String {
    rounds.map_or_else(|| "-".into(), |r| r.to_string())
}

/// Renders an ASCII sparkline-style series: `label: v0 v1 v2 …`.
pub fn render_series(label: &str, values: &[f64]) -> String {
    let vals: Vec<String> = values.iter().map(|v| f3(*v)).collect();
    format!("{label}: {}", vals.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let s = render_table(&["x", "long-header"], &[vec!["123456".into(), "1".into()]]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        // All lines equally wide.
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn csv_has_header_and_rows() {
        let s = to_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(s, "a,b\n1,2\n");
    }

    #[test]
    fn f3_rounds() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f3(1.0), "1.000");
    }

    #[test]
    fn rounds_cell_uses_dash_for_none() {
        assert_eq!(rounds_cell(None), "-");
        assert_eq!(rounds_cell(Some(17)), "17");
    }

    #[test]
    fn series_renders_all_points() {
        let s = render_series("scost", &[0.5, 0.25]);
        assert_eq!(s, "scost: 0.500 0.250");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_rows_panic() {
        let _ = render_table(&["a"], &[vec!["1".into(), "2".into()]]);
    }
}
