//! The run report: one self-contained HTML file per session.
//!
//! [`render_html`] fuses a trace (JSON-lines records), a metrics dump
//! (the [`MetricsRegistry::to_json`](crate::metrics::MetricsRegistry)
//! object) and an optional recall CSV into a single document — stat
//! tiles, inline SVG charts (epoch wall-clock, emission rate, peak heap,
//! recall curve), histogram percentiles, and the span profiler's
//! hotspot table. **Self-contained by construction**: no scripts, no
//! fonts, no stylesheets, no URLs of any kind — the file renders
//! identically from a mail attachment or an air-gapped archive, and CI
//! enforces the absence of `http(s)` references.
//!
//! Charts follow one-axis, single-hue rules: each measure gets its own
//! chart rather than a second y-axis, values read from a light/dark
//! palette defined once as CSS custom properties, and every data point
//! carries a native `<title>` tooltip.

use crate::profile::{ProfileRecord, SpanProfile};
use crate::trace::RecordKind;
use serde::json::{parse, Value};

/// Everything the report is built from.
#[derive(Debug, Clone, Default)]
pub struct ReportInputs {
    /// Report heading (dataset or session name).
    pub title: String,
    /// Trace records, in emission order (from [`crate::profile::parse_trace`]).
    pub trace: Vec<ProfileRecord>,
    /// A metrics dump in the registry's JSON object format, if captured.
    pub metrics_json: Option<String>,
    /// An eval recall CSV (`comparisons,recall` rows, header optional).
    pub recall_csv: Option<String>,
    /// Provenance line (timestamp + git revision), if known.
    pub stamp: Option<String>,
}

/// One per-epoch sample extracted from the trace.
#[derive(Debug, Clone, Copy)]
struct EpochSample {
    wall_ms: f64,
    raw: Option<f64>,
    peak_bytes: Option<f64>,
}

/// Renders the report. Never fails: absent inputs collapse their
/// sections ("no data"), malformed rows are skipped.
pub fn render_html(inputs: &ReportInputs) -> String {
    let epochs = epoch_samples(&inputs.trace);
    let profile = SpanProfile::from_records(&inputs.trace).with_threads(&inputs.trace);
    let metrics = inputs
        .metrics_json
        .as_deref()
        .and_then(|text| parse(text).ok())
        .filter(|v| matches!(v, Value::Object(_)));
    let recall = inputs
        .recall_csv
        .as_deref()
        .map(parse_recall_csv)
        .unwrap_or_default();

    let mut body = String::with_capacity(32 * 1024);
    body.push_str("<header><h1>");
    escape_into(&mut body, &inputs.title);
    body.push_str("</h1><p class=\"sub\">sper run report");
    if let Some(stamp) = &inputs.stamp {
        body.push_str(" · ");
        escape_into(&mut body, stamp);
    }
    body.push_str("</p></header>\n");

    render_tiles(&mut body, &epochs, metrics.as_ref(), &inputs.trace);

    body.push_str("<section class=\"charts\">\n");
    let wall: Vec<(f64, f64)> = epochs
        .iter()
        .enumerate()
        .map(|(i, e)| (i as f64, e.wall_ms))
        .collect();
    body.push_str(&line_chart("Epoch wall-clock", "ms", "epoch", &wall));
    let rate: Vec<(f64, f64)> = epochs
        .iter()
        .enumerate()
        .filter_map(|(i, e)| {
            let raw = e.raw?;
            (e.wall_ms > 0.0).then(|| (i as f64, raw / (e.wall_ms / 1_000.0)))
        })
        .collect();
    body.push_str(&line_chart(
        "Comparisons per second",
        "pairs/s",
        "epoch",
        &rate,
    ));
    let peak: Vec<(f64, f64)> = epochs
        .iter()
        .enumerate()
        .filter_map(|(i, e)| e.peak_bytes.map(|p| (i as f64, p / (1024.0 * 1024.0))))
        .collect();
    body.push_str(&line_chart("Peak heap", "MiB", "epoch", &peak));
    if !recall.is_empty() {
        body.push_str(&line_chart(
            "Recall vs comparisons",
            "recall",
            "comparisons",
            &recall,
        ));
    }
    body.push_str("</section>\n");

    render_histograms(&mut body, metrics.as_ref());
    render_hotspots(&mut body, &profile);

    body.push_str("<footer>generated by <code>sper report</code> — self-contained, no external assets</footer>\n");

    let mut out = String::with_capacity(body.len() + 4096);
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n<title>");
    escape_into(&mut out, &inputs.title);
    out.push_str(" · sper report</title>\n<style>\n");
    out.push_str(STYLE);
    out.push_str("</style></head>\n<body><main class=\"viz-root\">\n");
    out.push_str(&body);
    out.push_str("</main></body></html>\n");
    out
}

/// Extracts the per-epoch samples: one `stream.epoch` span each, with its
/// `raw` field and the nearest-following `cli.epoch_alloc` event's
/// `peak_bytes`.
fn epoch_samples(trace: &[ProfileRecord]) -> Vec<EpochSample> {
    let mut samples: Vec<EpochSample> = Vec::new();
    for r in trace {
        match r.kind {
            RecordKind::Span if r.name == "stream.epoch" => {
                samples.push(EpochSample {
                    wall_ms: r.dur_ns.unwrap_or(0) as f64 / 1e6,
                    raw: r.field_f64("raw").filter(|n| n.is_finite()),
                    peak_bytes: None,
                });
            }
            RecordKind::Event if r.name == "cli.epoch_alloc" => {
                if let (Some(last), Some(peak)) = (samples.last_mut(), r.field_f64("peak_bytes")) {
                    if last.peak_bytes.is_none() && peak.is_finite() {
                        last.peak_bytes = Some(peak);
                    }
                }
            }
            _ => {}
        }
    }
    samples
}

fn parse_recall_csv(csv: &str) -> Vec<(f64, f64)> {
    csv.lines()
        .filter_map(|line| {
            let mut cols = line.split(',');
            let x: f64 = cols.next()?.trim().parse().ok()?;
            let y: f64 = cols.next()?.trim().parse().ok()?;
            (x.is_finite() && y.is_finite()).then_some((x, y))
        })
        .collect()
}

fn metric_num(metrics: Option<&Value>, name: &str) -> Option<f64> {
    metrics?.get(name)?.as_f64()
}

fn render_tiles(
    out: &mut String,
    epochs: &[EpochSample],
    metrics: Option<&Value>,
    trace: &[ProfileRecord],
) {
    let n_epochs = metric_num(metrics, "session.epochs").unwrap_or(epochs.len() as f64);
    let raw_sum: f64 = epochs.iter().filter_map(|e| e.raw).sum();
    let pairs = metric_num(metrics, "session.raw_emissions").or((raw_sum > 0.0).then_some(raw_sum));
    let wall_ms: f64 = epochs.iter().map(|e| e.wall_ms).sum();
    let peak = epochs
        .iter()
        .filter_map(|e| e.peak_bytes)
        .fold(f64::NAN, f64::max);
    let first_emission_us = metric_num(metrics, "session.first_emission_us");
    let spans = trace.iter().filter(|r| r.kind == RecordKind::Span).count();

    out.push_str("<section class=\"tiles\">\n");
    tile(out, "Epochs", &format_count(n_epochs), "");
    if let Some(pairs) = pairs {
        tile(out, "Pairs emitted", &format_count(pairs), "");
    }
    tile(out, "Epoch wall-clock", &format_ms(wall_ms), "summed");
    if peak.is_finite() {
        tile(out, "Peak heap", &format_bytes(peak), "");
    }
    if let Some(us) = first_emission_us {
        tile(
            out,
            "First emission",
            &format_ms(us / 1_000.0),
            "from start",
        );
    }
    tile(out, "Spans traced", &format_count(spans as f64), "");
    out.push_str("</section>\n");
}

fn tile(out: &mut String, label: &str, value: &str, note: &str) {
    out.push_str("<div class=\"tile\"><div class=\"tile-label\">");
    escape_into(out, label);
    out.push_str("</div><div class=\"tile-value\">");
    escape_into(out, value);
    out.push_str("</div>");
    if !note.is_empty() {
        out.push_str("<div class=\"tile-note\">");
        escape_into(out, note);
        out.push_str("</div>");
    }
    out.push_str("</div>\n");
}

fn render_histograms(out: &mut String, metrics: Option<&Value>) {
    let Some(Value::Object(members)) = metrics else {
        return;
    };
    let rows: Vec<(&str, &Value)> = members
        .iter()
        .filter(|(_, v)| v.get("count").is_some())
        .map(|(k, v)| (k.as_str(), v))
        .collect();
    if rows.is_empty() {
        return;
    }
    out.push_str(
        "<section><h2>Latency percentiles</h2>\n<table><thead><tr>\
         <th>histogram</th><th>count</th><th>p50</th><th>p90</th><th>p99</th>\
         </tr></thead><tbody>\n",
    );
    for (name, h) in rows {
        out.push_str("<tr><td class=\"name\">");
        escape_into(out, name);
        out.push_str("</td><td>");
        escape_into(
            out,
            &format_count(h.get("count").and_then(Value::as_f64).unwrap_or(0.0)),
        );
        out.push_str("</td>");
        for q in ["p50", "p90", "p99"] {
            out.push_str("<td>");
            match h.get(q).and_then(Value::as_f64) {
                Some(v) => escape_into(out, &format_ms(v / 1_000.0)),
                None => out.push('–'),
            }
            out.push_str("</td>");
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</tbody></table></section>\n");
}

fn render_hotspots(out: &mut String, profile: &SpanProfile) {
    let hotspots = profile.hotspots();
    if hotspots.is_empty() {
        return;
    }
    out.push_str(
        "<section><h2>Span hotspots</h2>\n<table><thead><tr>\
         <th>span</th><th>count</th><th>total</th><th>self</th><th>threads</th>\
         </tr></thead><tbody>\n",
    );
    for (name, stats) in hotspots.iter().take(20) {
        out.push_str("<tr><td class=\"name\">");
        escape_into(out, name);
        out.push_str("</td><td>");
        escape_into(out, &format_count(stats.count as f64));
        out.push_str("</td><td>");
        escape_into(out, &format_ms(stats.total_ns as f64 / 1e6));
        out.push_str("</td><td>");
        escape_into(out, &format_ms(stats.self_ns as f64 / 1e6));
        out.push_str("</td><td>");
        escape_into(out, &stats.threads.len().max(1).to_string());
        out.push_str("</td></tr>\n");
    }
    out.push_str("</tbody></table></section>\n");
}

/// Renders one single-series SVG line chart (inline SVG needs no
/// namespace attribute). The y-axis starts at zero unless the data is a
/// ratio in `[0,1]`; four gridlines carry muted tick labels; every point
/// gets a marker with a native tooltip.
fn line_chart(title: &str, unit: &str, x_label: &str, points: &[(f64, f64)]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    out.push_str("<figure class=\"chart\"><figcaption>");
    escape_into(&mut out, title);
    out.push_str(" <span class=\"unit\">(");
    escape_into(&mut out, unit);
    out.push_str(")</span></figcaption>");
    if points.is_empty() {
        out.push_str("<p class=\"empty\">no data</p></figure>\n");
        return out;
    }
    const W: f64 = 560.0;
    const H: f64 = 200.0;
    const ML: f64 = 56.0; // left margin: y tick labels
    const MR: f64 = 12.0;
    const MT: f64 = 8.0;
    const MB: f64 = 24.0;
    let (x_min, x_max) = min_max(points.iter().map(|p| p.0));
    let (_, y_hi) = min_max(points.iter().map(|p| p.1));
    let y_max = if y_hi > 0.0 { y_hi * 1.05 } else { 1.0 };
    let span_x = (x_max - x_min).max(1e-9);
    let px = |x: f64| ML + (x - x_min) / span_x * (W - ML - MR);
    let py = |y: f64| MT + (1.0 - (y / y_max).clamp(0.0, 1.0)) * (H - MT - MB);

    let _ = write!(out, "<svg viewBox=\"0 0 {W} {H}\" role=\"img\">");
    // Gridlines + y tick labels (quarters of the range).
    for i in 0..=4 {
        let y_val = y_max * f64::from(i) / 4.0;
        let y = py(y_val);
        let class = if i == 0 { "baseline" } else { "grid" };
        let _ = write!(
            out,
            "<line class=\"{class}\" x1=\"{ML}\" y1=\"{y:.1}\" x2=\"{:.1}\" y2=\"{y:.1}\"/>",
            W - MR
        );
        let _ = write!(
            out,
            "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{}</text>",
            ML - 6.0,
            y + 3.5,
            format_tick(y_val)
        );
    }
    // X extent labels.
    let _ = write!(
        out,
        "<text class=\"tick\" x=\"{ML}\" y=\"{:.1}\">{}</text>",
        H - 6.0,
        format_tick(x_min)
    );
    let _ = write!(
        out,
        "<text class=\"tick\" x=\"{:.1}\" y=\"{:.1}\" text-anchor=\"end\">{} {}</text>",
        W - MR,
        H - 6.0,
        format_tick(x_max),
        html_escape(x_label)
    );
    // The series: one 2px line plus markers with native tooltips.
    out.push_str("<polyline class=\"series\" points=\"");
    for (i, (x, y)) in points.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        let _ = write!(out, "{:.1},{:.1}", px(*x), py(*y));
    }
    out.push_str("\"/>");
    if points.len() <= 120 {
        for (x, y) in points {
            let _ = write!(
                out,
                "<circle class=\"pt\" cx=\"{:.1}\" cy=\"{:.1}\" r=\"3\">\
                 <title>{} {}: {} {}</title></circle>",
                px(*x),
                py(*y),
                html_escape(x_label),
                format_tick(*x),
                format_tick(*y),
                html_escape(unit),
            );
        }
    }
    out.push_str("</svg></figure>\n");
    out
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    values.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
        (lo.min(v), hi.max(v))
    })
}

fn format_tick(v: f64) -> String {
    if v.abs() >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v.abs() >= 10_000.0 {
        format!("{:.0}k", v / 1_000.0)
    } else if v.abs() >= 1_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else if v == v.trunc() {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

fn format_count(v: f64) -> String {
    if v >= 1_000_000.0 {
        format!("{:.2}M", v / 1_000_000.0)
    } else if v >= 10_000.0 {
        format!("{:.1}k", v / 1_000.0)
    } else {
        format!("{v:.0}")
    }
}

fn format_ms(ms: f64) -> String {
    if ms >= 60_000.0 {
        format!("{:.1} min", ms / 60_000.0)
    } else if ms >= 1_000.0 {
        format!("{:.2} s", ms / 1_000.0)
    } else if ms >= 1.0 {
        format!("{ms:.1} ms")
    } else {
        format!("{:.0} µs", ms * 1_000.0)
    }
}

fn format_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} GiB", b / (1024.0 * 1024.0 * 1024.0))
    } else if b >= 1024.0 * 1024.0 {
        format!("{:.1} MiB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.0} KiB", b / 1024.0)
    }
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
}

fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Light + dark palette as CSS custom properties; charts and chrome read
/// roles, never raw hex. Series hue, inks, grid and surface follow the
/// house chart palette; dark mode is its own stepped set, not a flip.
const STYLE: &str = "\
:root { color-scheme: light dark; }\n\
.viz-root {\n\
  --surface-1: #fcfcfb; --page: #f9f9f7;\n\
  --text-primary: #0b0b0b; --text-secondary: #52514e; --text-muted: #898781;\n\
  --grid: #e1e0d9; --baseline: #c3c2b7; --series-1: #2a78d6;\n\
}\n\
@media (prefers-color-scheme: dark) {\n\
  .viz-root {\n\
    --surface-1: #1a1a19; --page: #0d0d0d;\n\
    --text-primary: #ffffff; --text-secondary: #c3c2b7; --text-muted: #898781;\n\
    --grid: #2c2c2a; --baseline: #383835; --series-1: #3987e5;\n\
  }\n\
}\n\
body { margin: 0; background: var(--page); }\n\
.viz-root {\n\
  font-family: system-ui, -apple-system, 'Segoe UI', sans-serif;\n\
  color: var(--text-primary); background: var(--page);\n\
  max-width: 1200px; margin: 0 auto; padding: 24px;\n\
}\n\
header h1 { margin: 0 0 4px; font-size: 24px; }\n\
.sub { margin: 0 0 20px; color: var(--text-secondary); font-size: 13px; }\n\
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 24px; }\n\
.tile { background: var(--surface-1); border: 1px solid var(--grid);\n\
  border-radius: 8px; padding: 12px 16px; min-width: 130px; }\n\
.tile-label { font-size: 12px; color: var(--text-secondary); }\n\
.tile-value { font-size: 26px; margin-top: 2px; }\n\
.tile-note { font-size: 11px; color: var(--text-muted); margin-top: 2px; }\n\
.charts { display: flex; flex-wrap: wrap; gap: 16px; }\n\
.chart { background: var(--surface-1); border: 1px solid var(--grid);\n\
  border-radius: 8px; padding: 12px 16px 8px; margin: 0; flex: 1 1 560px;\n\
  max-width: 600px; }\n\
.chart figcaption { font-size: 14px; font-weight: 600; margin-bottom: 6px; }\n\
.chart .unit { color: var(--text-muted); font-weight: 400; }\n\
.chart svg { width: 100%; height: auto; display: block; }\n\
.chart .empty { color: var(--text-muted); font-size: 13px; }\n\
.grid { stroke: var(--grid); stroke-width: 1; }\n\
.baseline { stroke: var(--baseline); stroke-width: 1; }\n\
.tick { fill: var(--text-muted); font-size: 10px;\n\
  font-variant-numeric: tabular-nums; }\n\
.series { fill: none; stroke: var(--series-1); stroke-width: 2;\n\
  stroke-linejoin: round; stroke-linecap: round; }\n\
.pt { fill: var(--series-1); stroke: var(--surface-1); stroke-width: 2; }\n\
section h2 { font-size: 16px; margin: 28px 0 8px; }\n\
table { border-collapse: collapse; background: var(--surface-1);\n\
  border: 1px solid var(--grid); border-radius: 8px; font-size: 13px; }\n\
th, td { padding: 6px 14px; text-align: right;\n\
  font-variant-numeric: tabular-nums; }\n\
th { color: var(--text-secondary); font-weight: 600;\n\
  border-bottom: 1px solid var(--baseline); }\n\
td.name, th:first-child { text-align: left; font-family: ui-monospace,\n\
  'Cascadia Code', monospace; }\n\
tbody tr + tr td { border-top: 1px solid var(--grid); }\n\
footer { margin-top: 32px; color: var(--text-muted); font-size: 12px; }\n\
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::parse_trace;

    fn sample_inputs() -> ReportInputs {
        let trace = "\
{\"t\":1000,\"kind\":\"span\",\"level\":\"info\",\"name\":\"stream.epoch\",\"thread\":0,\"depth\":0,\"dur_ns\":2000000,\"fields\":{\"epoch\":0,\"raw\":40}}\n\
{\"t\":3100000,\"kind\":\"event\",\"level\":\"info\",\"name\":\"cli.epoch_alloc\",\"thread\":0,\"depth\":0,\"fields\":{\"epoch\":0,\"peak_bytes\":1048576}}\n\
{\"t\":4000000,\"kind\":\"span\",\"level\":\"info\",\"name\":\"stream.epoch\",\"thread\":0,\"depth\":0,\"dur_ns\":3000000,\"fields\":{\"epoch\":1,\"raw\":60}}\n\
{\"t\":8100000,\"kind\":\"event\",\"level\":\"info\",\"name\":\"cli.epoch_alloc\",\"thread\":0,\"depth\":0,\"fields\":{\"epoch\":1,\"peak_bytes\":2097152}}\n";
        ReportInputs {
            title: "movies <test>".to_string(),
            trace: parse_trace(trace),
            metrics_json: Some(
                "{\"session.epochs\":2,\"session.raw_emissions\":100,\
                 \"session.epoch_emit_us\":{\"count\":2,\"sum\":5000,\"p50\":2200.5,\
                 \"p90\":2900,\"p99\":2990}}"
                    .to_string(),
            ),
            recall_csv: Some("comparisons,recall\n40,0.31\n100,0.58\n".to_string()),
            stamp: Some("2026-08-07T00:00:00Z @ abc123".to_string()),
        }
    }

    #[test]
    fn report_is_self_contained() {
        let html = render_html(&sample_inputs());
        assert!(!html.contains("http"), "no URLs of any kind");
        assert!(!html.contains("<script"), "no scripts");
        assert!(!html.contains("xmlns"), "inline SVG needs no namespace");
        assert!(html.starts_with("<!DOCTYPE html>"));
    }

    #[test]
    fn report_renders_all_sections() {
        let html = render_html(&sample_inputs());
        assert!(html.contains("movies &lt;test&gt;"), "title escaped");
        assert!(html.contains("Epoch wall-clock"));
        assert!(html.contains("Comparisons per second"));
        assert!(html.contains("Peak heap"));
        assert!(html.contains("Recall vs comparisons"));
        assert!(html.contains("session.epoch_emit_us"), "histogram table");
        assert!(html.contains("stream.epoch"), "hotspot table");
        assert_eq!(html.matches("<svg").count(), 4);
        assert_eq!(html.matches("</svg>").count(), 4);
        assert!(html.contains("prefers-color-scheme: dark"), "dark palette");
    }

    #[test]
    fn empty_inputs_still_render() {
        let html = render_html(&ReportInputs {
            title: "empty".to_string(),
            ..Default::default()
        });
        assert!(html.contains("no data"));
        assert!(!html.contains("http"));
        assert!(html.contains("</html>"));
    }

    #[test]
    fn epoch_samples_pair_spans_with_alloc_events() {
        let inputs = sample_inputs();
        let samples = epoch_samples(&inputs.trace);
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].wall_ms, 2.0);
        assert_eq!(samples[0].raw, Some(40.0));
        assert_eq!(samples[0].peak_bytes, Some(1048576.0));
        assert_eq!(samples[1].peak_bytes, Some(2097152.0));
    }

    #[test]
    fn recall_csv_skips_header_and_junk() {
        let rows = parse_recall_csv("comparisons,recall\n10,0.5\nbad,row\n20,0.9\n");
        assert_eq!(rows, vec![(10.0, 0.5), (20.0, 0.9)]);
    }

    #[test]
    fn formatters_are_human() {
        assert_eq!(format_count(1_234_567.0), "1.23M");
        assert_eq!(format_ms(0.25), "250 µs");
        assert_eq!(format_ms(1_500.0), "1.50 s");
        assert_eq!(format_bytes(2_097_152.0), "2.0 MiB");
        assert_eq!(format_tick(0.58), "0.580");
    }
}
