//! Fixed-width text tables for experiment output.

/// Render a titled table: the first column left-aligned, the rest right.
pub fn render_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<&str>| {
        let mut s = format!("{:<w$}", cells[0], w = widths[0]);
        for (cell, w) in cells[1..].iter().zip(&widths[1..]) {
            s += &format!("  {cell:>w$}");
        }
        s + "\n"
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1));
    let mut out = format!("\n=== {title} ===\n{}{rule}\n", line(headers.to_vec()));
    for row in rows {
        out += &line(row.iter().map(String::as_str).collect());
    }
    out
}

/// Format a float with `digits` decimals.
pub fn f(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

/// Format bytes as MB with one decimal.
pub fn mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f(1.234567, 2), "1.23");
        assert_eq!(mb(1024 * 1024), "1.0");
    }

    #[test]
    fn render_table_pads_the_first_column_left_and_the_rest_right() {
        let text = render_table(
            "demo",
            &["mode", "tps"],
            &[vec!["a".into(), "1".into()], vec!["bb".into(), "22".into()]],
        );
        assert_eq!(text, "\n=== demo ===\nmode  tps\n---------\na       1\nbb     22\n");
    }
}
