//! Minimal, dependency-free SVG charts for the experiment binaries.
//!
//! The paper's artifact renders its results as graphs; this module gives
//! the reproduction the same capability without pulling a plotting stack:
//! grouped bar charts (Fig 12-style) and line/CDF charts (Fig 1/14-style)
//! are emitted as standalone SVG files next to the text output.

use std::fmt::Write as _;

const WIDTH: f64 = 760.0;
const HEIGHT: f64 = 420.0;
const MARGIN_L: f64 = 70.0;
const MARGIN_R: f64 = 20.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 80.0;
const PALETTE: [&str; 6] = [
    "#4878d0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c",
];

fn plot_w() -> f64 {
    WIDTH - MARGIN_L - MARGIN_R
}

fn plot_h() -> f64 {
    HEIGHT - MARGIN_T - MARGIN_B
}

fn header(title: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">"##
    );
    let _ = write!(
        s,
        r##"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/><text x="{}" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">{}</text>"##,
        WIDTH / 2.0,
        escape(title)
    );
    s
}

fn escape(text: &str) -> String {
    text.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

fn y_axis(s: &mut String, y_max: f64, y_label: &str) {
    for i in 0..=4 {
        let frac = f64::from(i) / 4.0;
        let y = MARGIN_T + plot_h() * (1.0 - frac);
        let value = y_max * frac;
        let _ = write!(
            s,
            r##"<line x1="{MARGIN_L}" y1="{y}" x2="{}" y2="{y}" stroke="#dddddd"/><text x="{}" y="{}" font-family="sans-serif" font-size="11" text-anchor="end">{value:.0}</text>"##,
            WIDTH - MARGIN_R,
            MARGIN_L - 6.0,
            y + 4.0
        );
    }
    let _ = write!(
        s,
        r##"<text x="16" y="{}" font-family="sans-serif" font-size="12" transform="rotate(-90 16 {})" text-anchor="middle">{}</text>"##,
        MARGIN_T + plot_h() / 2.0,
        MARGIN_T + plot_h() / 2.0,
        escape(y_label)
    );
}

fn legend(s: &mut String, series: &[&str]) {
    for (i, name) in series.iter().enumerate() {
        let x = MARGIN_L + 120.0 * i as f64;
        let y = HEIGHT - 14.0;
        let _ = write!(
            s,
            r##"<rect x="{x}" y="{}" width="12" height="12" fill="{}"/><text x="{}" y="{}" font-family="sans-serif" font-size="12">{}</text>"##,
            y - 10.0,
            PALETTE[i % PALETTE.len()],
            x + 16.0,
            y,
            escape(name)
        );
    }
}

/// Renders a grouped bar chart: one group per `categories` entry, one bar
/// per series.
///
/// # Panics
///
/// Panics if `values` is ragged (a series with a different length than
/// `categories`) or everything is empty.
///
/// # Examples
///
/// ```
/// use faasmem_bench::svg::grouped_bars;
///
/// let svg = grouped_bars(
///     "memory",
///     "MiB",
///     &["json", "web"],
///     &[("Baseline", vec![61.0, 580.0]), ("FaaSMem", vec![9.0, 38.0])],
/// );
/// assert!(svg.starts_with("<svg"));
/// assert!(svg.contains("FaaSMem"));
/// ```
pub fn grouped_bars(
    title: &str,
    y_label: &str,
    categories: &[&str],
    values: &[(&str, Vec<f64>)],
) -> String {
    assert!(!categories.is_empty() && !values.is_empty(), "empty chart");
    for (name, vs) in values {
        assert_eq!(vs.len(), categories.len(), "ragged series {name}");
    }
    let y_max = values
        .iter()
        .flat_map(|(_, vs)| vs.iter().copied())
        .fold(0.0f64, f64::max)
        .max(1e-9)
        * 1.05;
    let mut s = header(title);
    y_axis(&mut s, y_max, y_label);
    let group_w = plot_w() / categories.len() as f64;
    let bar_w = (group_w * 0.8) / values.len() as f64;
    for (ci, cat) in categories.iter().enumerate() {
        let gx = MARGIN_L + group_w * ci as f64 + group_w * 0.1;
        for (si, (_, vs)) in values.iter().enumerate() {
            let h = (vs[ci] / y_max) * plot_h();
            let x = gx + bar_w * si as f64;
            let y = MARGIN_T + plot_h() - h;
            let _ = write!(
                s,
                r##"<rect x="{x:.1}" y="{y:.1}" width="{bar_w:.1}" height="{h:.1}" fill="{}"/>"##,
                PALETTE[si % PALETTE.len()]
            );
        }
        let _ = write!(
            s,
            r##"<text x="{:.1}" y="{}" font-family="sans-serif" font-size="11" text-anchor="middle" transform="rotate(-30 {:.1} {})">{}</text>"##,
            gx + group_w * 0.4,
            MARGIN_T + plot_h() + 16.0,
            gx + group_w * 0.4,
            MARGIN_T + plot_h() + 16.0,
            escape(cat)
        );
    }
    legend(&mut s, &values.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    s.push_str("</svg>");
    s
}

/// Renders one or more line series over a shared numeric x-axis (CDFs,
/// sweeps).
///
/// # Panics
///
/// Panics if `series` is empty or any series has fewer than two points.
///
/// # Examples
///
/// ```
/// use faasmem_bench::svg::lines;
///
/// let svg = lines(
///     "cdf",
///     "seconds",
///     "fraction",
///     &[("all", vec![(0.0, 0.0), (10.0, 0.5), (60.0, 1.0)])],
/// );
/// assert!(svg.contains("polyline"));
/// ```
pub fn lines(
    title: &str,
    x_label: &str,
    y_label: &str,
    series: &[(&str, Vec<(f64, f64)>)],
) -> String {
    assert!(!series.is_empty(), "empty chart");
    let mut x_min = f64::INFINITY;
    let mut x_max = f64::NEG_INFINITY;
    let mut y_max = 0.0f64;
    for (name, pts) in series {
        assert!(pts.len() >= 2, "series {name} needs two points");
        for &(x, y) in pts {
            x_min = x_min.min(x);
            x_max = x_max.max(x);
            y_max = y_max.max(y);
        }
    }
    let x_span = (x_max - x_min).max(1e-9);
    let y_max = y_max.max(1e-9) * 1.05;
    let mut s = header(title);
    y_axis(&mut s, y_max, y_label);
    for i in 0..=4 {
        let frac = f64::from(i) / 4.0;
        let x = MARGIN_L + plot_w() * frac;
        let value = x_min + x_span * frac;
        let _ = write!(
            s,
            r##"<text x="{x:.1}" y="{}" font-family="sans-serif" font-size="11" text-anchor="middle">{value:.0}</text>"##,
            MARGIN_T + plot_h() + 16.0
        );
    }
    let _ = write!(
        s,
        r##"<text x="{}" y="{}" font-family="sans-serif" font-size="12" text-anchor="middle">{}</text>"##,
        MARGIN_L + plot_w() / 2.0,
        MARGIN_T + plot_h() + 36.0,
        escape(x_label)
    );
    for (si, (_, pts)) in series.iter().enumerate() {
        let path: Vec<String> = pts
            .iter()
            .map(|&(x, y)| {
                let px = MARGIN_L + (x - x_min) / x_span * plot_w();
                let py = MARGIN_T + plot_h() * (1.0 - y / y_max);
                format!("{px:.1},{py:.1}")
            })
            .collect();
        let _ = write!(
            s,
            r##"<polyline points="{}" fill="none" stroke="{}" stroke-width="2"/>"##,
            path.join(" "),
            PALETTE[si % PALETTE.len()]
        );
    }
    legend(&mut s, &series.iter().map(|(n, _)| *n).collect::<Vec<_>>());
    s.push_str("</svg>");
    s
}

/// Stacks full-size panels (as produced by [`grouped_bars`] or
/// [`lines`]) vertically into one SVG document, in order, via nested
/// `<svg>` elements offset by the shared panel height.
///
/// # Panics
///
/// Panics if `panels` is empty.
///
/// # Examples
///
/// ```
/// use faasmem_bench::svg::{lines, stack_vertical};
///
/// let panel = lines("p", "x", "y", &[("s", vec![(0.0, 0.0), (1.0, 1.0)])]);
/// let dash = stack_vertical(&[panel.clone(), panel]);
/// assert_eq!(dash.matches("<svg").count(), 3);
/// ```
pub fn stack_vertical(panels: &[String]) -> String {
    assert!(!panels.is_empty(), "empty dashboard");
    let total_h = HEIGHT * panels.len() as f64;
    let mut s = String::new();
    let _ = write!(
        s,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{total_h}" viewBox="0 0 {WIDTH} {total_h}">"##
    );
    for (i, panel) in panels.iter().enumerate() {
        let y = HEIGHT * i as f64;
        s.push_str(&panel.replacen("<svg ", &format!(r#"<svg y="{y}" "#), 1));
    }
    s.push_str("</svg>");
    s
}

/// Writes an SVG string to `dir/filename`, creating `dir` if needed;
/// best-effort — experiments must not fail because the filesystem is
/// read-only. The note naming the file goes to stderr, so an
/// experiment's stdout does not depend on where its charts land.
pub fn write_chart(dir: &std::path::Path, filename: &str, svg: &str) {
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(filename);
        if std::fs::write(&path, svg).is_ok() {
            eprintln!("(chart written to {})", path.display());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_contain_all_series_and_categories() {
        let svg = grouped_bars(
            "t",
            "MiB",
            &["a", "b", "c"],
            &[("s1", vec![1.0, 2.0, 3.0]), ("s2", vec![3.0, 2.0, 1.0])],
        );
        for needle in ["s1", "s2", "a", "b", "c", "<svg", "</svg>"] {
            assert!(svg.contains(needle), "missing {needle}");
        }
        assert_eq!(
            svg.matches("<rect").count(),
            1 + 6 + 2,
            "bg + bars + legend swatches"
        );
    }

    #[test]
    fn lines_scale_to_bounds() {
        let svg = lines("t", "x", "y", &[("one", vec![(0.0, 0.0), (100.0, 1.0)])]);
        assert!(svg.contains("polyline"));
        // The first point sits at the left margin, the last at the right.
        assert!(svg.contains(&format!("{MARGIN_L:.1},")));
    }

    #[test]
    fn titles_are_escaped() {
        let svg = grouped_bars("a < b & c", "y", &["x"], &[("s", vec![1.0])]);
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(!svg.contains("a < b"));
    }

    #[test]
    #[should_panic(expected = "ragged series")]
    fn ragged_series_panics() {
        let _ = grouped_bars("t", "y", &["a", "b"], &[("s", vec![1.0])]);
    }

    #[test]
    #[should_panic(expected = "two points")]
    fn single_point_series_panics() {
        let _ = lines("t", "x", "y", &[("s", vec![(0.0, 0.0)])]);
    }

    #[test]
    fn stacked_panels_keep_their_order_and_offset() {
        let p1 = lines("first", "x", "y", &[("a", vec![(0.0, 0.0), (1.0, 1.0)])]);
        let p2 = lines("second", "x", "y", &[("b", vec![(0.0, 1.0), (1.0, 0.0)])]);
        let dash = stack_vertical(&[p1, p2]);
        assert_eq!(dash.matches("<svg").count(), 3, "outer + two nested");
        assert!(dash.contains(&format!(r#"<svg y="{HEIGHT}""#)));
        assert!(dash.find("first").unwrap() < dash.find("second").unwrap());
        assert!(dash.contains(&format!(r#"height="{}""#, HEIGHT * 2.0)));
    }

    #[test]
    #[should_panic(expected = "empty dashboard")]
    fn empty_dashboard_panics() {
        let _ = stack_vertical(&[]);
    }

    #[test]
    fn zero_values_do_not_divide_by_zero() {
        let svg = grouped_bars("t", "y", &["a"], &[("s", vec![0.0])]);
        assert!(svg.contains("</svg>"));
        let svg = lines("t", "x", "y", &[("s", vec![(0.0, 0.0), (0.0, 0.0)])]);
        assert!(svg.contains("</svg>"));
    }
}
