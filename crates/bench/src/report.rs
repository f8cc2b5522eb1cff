//! Table/series printing helpers shared by the bench mains.

/// Prints a title banner.
pub fn banner(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Prints a row of right-aligned cells under a 16-char first column.
pub fn row(label: &str, cells: &[String]) {
    print!("{label:<22}");
    for c in cells {
        print!("{c:>16}");
    }
    println!();
}

/// Formats a bandwidth in MB/s with sub-decimal resolution at the low end.
pub fn fmt_mb_s(v: f64) -> String {
    if v >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Formats seconds.
pub fn fmt_secs(v: f64) -> String {
    format!("{v:.2}s")
}

/// Formats a message size in the paper's kbyte axis.
pub fn fmt_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{}MB", bytes >> 20)
    } else if bytes >= 1 << 10 {
        format!("{}kB", bytes >> 10)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_formatting_uses_paper_axis_units() {
        assert_eq!(fmt_size(4), "4B");
        assert_eq!(fmt_size(2048), "2kB");
        assert_eq!(fmt_size(1 << 20), "1MB");
    }

    #[test]
    fn bandwidth_formatting_keeps_low_end_resolution() {
        assert_eq!(fmt_mb_s(12.5), "12.50");
        assert_eq!(fmt_mb_s(0.0123), "0.012");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_secs(139.9), "139.90s");
    }
}
