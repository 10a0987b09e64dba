//! Plain-text table rendering shared by the benches and examples.

/// Render a two-column paper-vs-measured comparison block.
pub fn paper_vs_measured(title: &str, rows: &[(&str, String, String)]) -> String {
    let mut out = format!("== {title} ==\n");
    out.push_str(&format!(
        "{:<44} {:>16} {:>16}\n",
        "metric", "paper", "measured"
    ));
    for (metric, paper, measured) in rows {
        out.push_str(&format!("{metric:<44} {paper:>16} {measured:>16}\n"));
    }
    out
}

/// Format a fraction as a percent string.
pub fn pct(fraction: f64) -> String {
    format!("{:.1}%", fraction * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_rows() {
        let block = paper_vs_measured("Figure 2", &[("mDNS devices", "44%".into(), pct(0.44))]);
        assert!(block.contains("Figure 2"));
        assert!(block.contains("44.0%"));
        assert!(block.contains("paper"));
    }
}
