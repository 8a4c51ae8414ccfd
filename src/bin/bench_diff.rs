//! Compare a fresh `BENCH_twq.json` against a committed baseline — the
//! perf-regression gate.
//!
//! ```sh
//! cargo run --release --bin bench-diff -- \
//!     --baseline bench/baseline.json --current crates/bench/BENCH_twq.json
//! ```
//!
//! Both files are the flat `{"label": median_ns, ...}` objects the
//! workspace's criterion shim writes. The tool prints one aligned row per
//! shared label (baseline ns, current ns, ratio, verdict) and exits
//! nonzero when any label regresses past its tolerance.
//!
//! Raw nanoseconds are not comparable across machines, so by default the
//! per-label ratios are **normalized by their median**: if every bench is
//! uniformly 3x slower the median ratio is 3 and nothing is flagged; only
//! benches that got slower *relative to the rest of the suite* trip the
//! gate. `--no-normalize` compares raw ratios instead (right when baseline
//! and current come from the same machine, e.g. an A/B within one CI job).
//!
//! Flags:
//!
//! * `--baseline PATH` — committed reference (default `bench/baseline.json`);
//! * `--current PATH` — fresh report (default `BENCH_twq.json`);
//! * `--max-regress PCT` — default tolerance, percent (default `25`);
//! * `--thresholds PATH` — flat JSON of per-label overrides, in percent;
//! * `--no-normalize` — compare raw ratios, no median normalization;
//! * `--update` — rewrite the baseline from the current report and exit 0.
//!
//! Exit codes: `0` within tolerance, `1` regression, `2` usage or I/O
//! error. Labels present on only one side are reported but never fatal
//! (benches come and go); an *empty intersection* is fatal, since a gate
//! that compares nothing would pass vacuously.

use std::collections::BTreeMap;
use std::process::ExitCode;

use twq::obs::Json;

fn main() -> ExitCode {
    let mut opts = Opts::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let usage = "expected --baseline PATH, --current PATH, --max-regress PCT, \
                 --thresholds PATH, --no-normalize, and/or --update";
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--baseline" => opts.baseline = required(arg, it.next(), usage),
            "--current" => opts.current = required(arg, it.next(), usage),
            "--thresholds" => opts.thresholds = Some(required(arg, it.next(), usage)),
            "--max-regress" => {
                let v = required(arg, it.next(), usage);
                opts.max_regress = v.parse().unwrap_or_else(|_| {
                    eprintln!("--max-regress requires a number, got `{v}` ({usage})");
                    std::process::exit(2);
                });
            }
            "--no-normalize" => opts.normalize = false,
            "--update" => opts.update = true,
            other => {
                eprintln!("unknown argument `{other}` ({usage})");
                return ExitCode::from(2);
            }
        }
    }
    run(&opts)
}

/// Command-line configuration.
struct Opts {
    baseline: String,
    current: String,
    thresholds: Option<String>,
    max_regress: f64,
    normalize: bool,
    update: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            baseline: "bench/baseline.json".to_owned(),
            current: "BENCH_twq.json".to_owned(),
            thresholds: None,
            max_regress: 25.0,
            normalize: true,
            update: false,
        }
    }
}

fn required(flag: &str, v: Option<&String>, usage: &str) -> String {
    v.cloned().unwrap_or_else(|| {
        eprintln!("{flag} requires a value ({usage})");
        std::process::exit(2);
    })
}

fn run(opts: &Opts) -> ExitCode {
    let current = match load_report(&opts.current) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench-diff: {}: {e}", opts.current);
            return ExitCode::from(2);
        }
    };
    if opts.update {
        let rendered = render_report(&current);
        if let Some(dir) = std::path::Path::new(&opts.baseline).parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        return match std::fs::write(&opts.baseline, rendered) {
            Ok(()) => {
                let note = format!(
                    "bench-diff: baseline {} updated ({} labels)\n",
                    opts.baseline,
                    current.len()
                );
                twq::obs::write_stdout(&note, 0);
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("bench-diff: cannot write {}: {e}", opts.baseline);
                ExitCode::from(2)
            }
        };
    }
    let baseline = match load_report(&opts.baseline) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench-diff: {}: {e}", opts.baseline);
            return ExitCode::from(2);
        }
    };
    let thresholds = match &opts.thresholds {
        None => BTreeMap::new(),
        Some(path) => match load_thresholds(path) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("bench-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let report = diff(
        &baseline,
        &current,
        &thresholds,
        opts.max_regress,
        opts.normalize,
    );
    // The verdict is fixed before printing, so a reader that has gone away
    // cannot turn a regression into a pass.
    let status = if report.rows.is_empty() {
        eprintln!("bench-diff: no shared labels between baseline and current");
        2
    } else if report.regressions() > 0 {
        1
    } else {
        0
    };
    twq::obs::write_stdout(&report.render(), status);
    ExitCode::from(status as u8)
}

/// Read a flat `{"label": ns}` report.
fn load_report(path: &str) -> Result<BTreeMap<String, u64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (k, v) in parse_flat(&text)? {
        let ns = match v {
            Json::Int(i) if i >= 0 => i as u64,
            Json::Float(f) if f >= 0.0 => f as u64,
            other => return Err(format!("label `{k}`: expected nanoseconds, got {other:?}")),
        };
        out.insert(k, ns);
    }
    Ok(out)
}

/// Read a flat `{"label": percent}` threshold-override file.
fn load_thresholds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let mut out = BTreeMap::new();
    for (k, v) in parse_flat(&text)? {
        let pct = match v {
            Json::Int(i) => i as f64,
            Json::Float(f) => f,
            other => return Err(format!("label `{k}`: expected a percent, got {other:?}")),
        };
        out.insert(k, pct);
    }
    Ok(out)
}

fn parse_flat(text: &str) -> Result<Vec<(String, Json)>, String> {
    match Json::parse(text) {
        Ok(Json::Obj(pairs)) => Ok(pairs),
        Ok(other) => Err(format!("expected a flat JSON object, got {other:?}")),
        Err(e) => Err(format!("not valid JSON: {e:?}")),
    }
}

/// One compared label.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    label: String,
    base_ns: u64,
    cur_ns: u64,
    /// Current/baseline, after normalization when enabled.
    ratio: f64,
    /// Tolerance applied to this label, percent.
    tolerance: f64,
    regressed: bool,
}

/// The full comparison.
#[derive(Debug, Default)]
struct DiffReport {
    rows: Vec<Row>,
    /// Median cur/base ratio the rows were normalized by (1.0 when
    /// normalization is off).
    median_ratio: f64,
    only_baseline: Vec<String>,
    only_current: Vec<String>,
}

impl DiffReport {
    fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regressed).count()
    }

    fn render(&self) -> String {
        let mut out = String::new();
        let w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(8)
            .max(8);
        out.push_str(&format!(
            "{:<w$} {:>12} {:>12} {:>8} {:>7}  verdict\n",
            "bench", "base ns", "cur ns", "ratio", "tol%"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<w$} {:>12} {:>12} {:>8.3} {:>7.1}  {}\n",
                r.label,
                r.base_ns,
                r.cur_ns,
                r.ratio,
                r.tolerance,
                if r.regressed { "REGRESSED" } else { "ok" }
            ));
        }
        if (self.median_ratio - 1.0).abs() > f64::EPSILON {
            out.push_str(&format!(
                "normalized by median ratio {:.3}\n",
                self.median_ratio
            ));
        }
        for l in &self.only_baseline {
            out.push_str(&format!("note: `{l}` only in baseline (skipped)\n"));
        }
        for l in &self.only_current {
            out.push_str(&format!("note: `{l}` only in current (skipped)\n"));
        }
        let n = self.regressions();
        out.push_str(&format!(
            "{} bench(es) compared, {n} regression(s)\n",
            self.rows.len()
        ));
        out
    }
}

/// Compare two reports. A label regresses when its (normalized) ratio
/// exceeds `1 + tolerance/100`, with `thresholds` overriding the default
/// tolerance per label.
fn diff(
    baseline: &BTreeMap<String, u64>,
    current: &BTreeMap<String, u64>,
    thresholds: &BTreeMap<String, f64>,
    max_regress: f64,
    normalize: bool,
) -> DiffReport {
    let mut report = DiffReport {
        median_ratio: 1.0,
        ..DiffReport::default()
    };
    let mut ratios = Vec::new();
    for (label, &base_ns) in baseline {
        match current.get(label) {
            None => report.only_baseline.push(label.clone()),
            Some(&cur_ns) => {
                let raw = cur_ns as f64 / (base_ns.max(1)) as f64;
                ratios.push(raw);
                report.rows.push(Row {
                    label: label.clone(),
                    base_ns,
                    cur_ns,
                    ratio: raw,
                    tolerance: thresholds.get(label).copied().unwrap_or(max_regress),
                    regressed: false,
                });
            }
        }
    }
    for label in current.keys() {
        if !baseline.contains_key(label) {
            report.only_current.push(label.clone());
        }
    }
    if normalize && !ratios.is_empty() {
        ratios.sort_by(|a, b| a.total_cmp(b));
        let mid = ratios.len() / 2;
        let median = if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        };
        if median > 0.0 {
            report.median_ratio = median;
            for r in &mut report.rows {
                r.ratio /= median;
            }
        }
    }
    for r in &mut report.rows {
        r.regressed = r.ratio > 1.0 + r.tolerance / 100.0;
    }
    report
}

/// Render a report in the same flat format the criterion shim writes.
fn render_report(map: &BTreeMap<String, u64>) -> String {
    let mut out = String::from("{\n");
    for (i, (k, v)) in map.iter().enumerate() {
        let sep = if i + 1 == map.len() { "" } else { "," };
        out.push_str(&format!("  {}: {v}{sep}\n", Json::str(k).render()));
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(pairs: &[(&str, u64)]) -> BTreeMap<String, u64> {
        pairs.iter().map(|&(k, v)| (k.to_owned(), v)).collect()
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(&[("a", 100), ("b", 2000)]);
        let d = diff(&base, &base, &BTreeMap::new(), 25.0, true);
        assert_eq!(d.regressions(), 0);
        assert_eq!(d.rows.len(), 2);
    }

    #[test]
    fn uniform_slowdown_is_normalized_away() {
        let base = report(&[("a", 100), ("b", 2000), ("c", 50)]);
        let cur = report(&[("a", 300), ("b", 6000), ("c", 150)]);
        let d = diff(&base, &cur, &BTreeMap::new(), 25.0, true);
        assert_eq!(d.regressions(), 0, "{}", d.render());
        assert!((d.median_ratio - 3.0).abs() < 1e-9);
    }

    #[test]
    fn injected_regression_trips_the_gate() {
        let base = report(&[("a", 100), ("b", 2000), ("c", 50)]);
        // `b` is 2x slower while the rest hold: past 25% tolerance.
        let cur = report(&[("a", 100), ("b", 4000), ("c", 50)]);
        let d = diff(&base, &cur, &BTreeMap::new(), 25.0, true);
        assert_eq!(d.regressions(), 1, "{}", d.render());
        assert!(d.rows.iter().any(|r| r.label == "b" && r.regressed));
    }

    #[test]
    fn raw_mode_flags_uniform_slowdown() {
        let base = report(&[("a", 100), ("b", 2000)]);
        let cur = report(&[("a", 200), ("b", 4000)]);
        assert_eq!(
            diff(&base, &cur, &BTreeMap::new(), 25.0, false).regressions(),
            2
        );
        assert_eq!(
            diff(&base, &cur, &BTreeMap::new(), 25.0, true).regressions(),
            0
        );
    }

    #[test]
    fn per_label_threshold_overrides_the_default() {
        let base = report(&[("a", 100), ("b", 1000), ("c", 100)]);
        let cur = report(&[("a", 140), ("b", 1000), ("c", 100)]);
        // Default 25% would flag `a` (+40%); a 50% override lets it pass.
        let mut th = BTreeMap::new();
        th.insert("a".to_owned(), 50.0);
        assert_eq!(diff(&base, &cur, &th, 25.0, true).regressions(), 0);
        assert_eq!(
            diff(&base, &cur, &BTreeMap::new(), 25.0, true).regressions(),
            1
        );
    }

    #[test]
    fn disjoint_labels_are_noted_not_compared() {
        let base = report(&[("a", 100), ("gone", 5)]);
        let cur = report(&[("a", 100), ("new", 7)]);
        let d = diff(&base, &cur, &BTreeMap::new(), 25.0, true);
        assert_eq!(d.rows.len(), 1);
        assert_eq!(d.only_baseline, vec!["gone".to_owned()]);
        assert_eq!(d.only_current, vec!["new".to_owned()]);
    }

    #[test]
    fn shim_output_parses() {
        let text = "{\n  \"exec_scaling/jobs/4\": 12345,\n  \"metrics_overhead/null\": 678\n}\n";
        let parsed = parse_flat(text).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[0].1, Json::Int(12345));
    }

    #[test]
    fn render_report_round_trips() {
        let m = report(&[("a/b", 1), ("c\"d", 2)]);
        let rendered = render_report(&m);
        let parsed = parse_flat(&rendered).unwrap();
        assert_eq!(parsed.len(), 2);
        assert!(parsed.iter().any(|(k, _)| k == "c\"d"));
    }
}
