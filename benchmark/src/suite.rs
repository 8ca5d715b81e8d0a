//! Runs and the commands built on them. All measuring happens in fresh
//! child processes of this same program, so that no measurement inherits
//! another's heap, caches or peak memory.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use crate::cli::Options;
use crate::inputs::Workload;
use crate::metrics::{Better, EndToEnd, Metric, PerLayer, END_TO_END, FAIL_SHARE, PER_LAYER};
use crate::report::RunResult;

/// Fresh processes the end-to-end run of one workload is split over. A
/// process's speed and peak memory depend on where its heap happens to
/// land (identical syncs of one 512 KiB file peak anywhere from 134 to
/// 152 MiB and differ by 15 % in time from process to process, far less
/// within one), so a run draws that lot several times and reports the
/// best draw, as `measure::Summary` does with a part's batches.
const PARTS: usize = 4;

/// Metrics every part of a run must agree on to the last digit.
const EXACT: [&str; 3] = ["wire_bytes", "roundtrips", "rsync_ratio"];

/// Measure one workload for `seconds` in a child process of this same
/// program; its progress goes to our stderr.
fn part(
    workload: Workload,
    opts: &Options,
    seconds: f64,
    trace: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--part", "1"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = RunResult::from_json(line)
        .map_err(|e| format!("{} exited with {}: {e}", workload.name(), output.status))?;
    if output.status.success() != result.correct {
        return Err(format!(
            "{}: exit status {} contradicts its result",
            workload.name(),
            output.status
        ));
    }
    Ok(result)
}

/// One run's result from its parts': counts add up, every end-to-end
/// metric is the best part's, and a part that disagrees on an exact
/// metric is a failure.
fn merge(parts: &[RunResult]) -> RunResult {
    let mut merged = RunResult {
        correct: parts.iter().all(|p| p.correct),
        attempted: parts.iter().map(|p| p.attempted).sum(),
        failed: parts.iter().map(|p| p.failed).sum(),
        metrics: Vec::new(),
    };
    for m in &END_TO_END {
        let mut values = parts.iter().filter_map(|p| p.value(m.name));
        let Some(first) = values.next() else { continue };
        let best = values.fold(first, |best, v| match m.better {
            Better::Lower => best.min(v),
            Better::Higher => best.max(v),
        });
        if EXACT.contains(&m.name) && parts.iter().any(|p| p.value(m.name) != Some(best)) {
            eprintln!("FAILED: the parts of one run disagree on {}", m.name);
            merged.failed += 1;
            merged.correct = false;
        }
        merged.metrics.push(Metric {
            name: m.name.to_owned(),
            value: best,
            unit: m.unit.to_owned(),
        });
    }
    merged
}

/// One run of one workload: [`PARTS`] fresh processes with tracing off,
/// or one with tracing on.
fn run_workload(workload: Workload, opts: &Options, trace: bool) -> Result<RunResult, String> {
    eprintln!("{}: {}", workload.name(), workload.why());
    eprintln!(
        "{}: seed {}, {} s, tracing {}, {} core(s); {LOOPBACK}",
        workload.name(),
        opts.seed,
        opts.seconds,
        if trace { "on" } else { "off" },
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    );
    if trace {
        return part(workload, opts, opts.seconds, true);
    }
    let parts: Result<Vec<RunResult>, String> =
        (0..PARTS).map(|_| part(workload, opts, opts.seconds / PARTS as f64, false)).collect();
    Ok(merge(&parts?))
}

/// The driver's form: one workload, one result line.
pub fn one(workload: Workload, opts: &Options) -> Result<i32, String> {
    let result = run_workload(workload, opts, opts.trace)?;
    println!("{}", result.to_json());
    Ok(i32::from(!result.correct))
}

fn workloads(opts: &Options) -> Vec<Workload> {
    opts.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
}

/// One row of a metric table: what is measured, on which workloads, and
/// (last column) the bound it may worsen by or the end-to-end metrics a
/// change of it should move.
struct Row {
    name: &'static str,
    unit: &'static str,
    better: Better,
    on: [bool; 4],
    note: String,
}

/// The rows of the end-to-end or the per-layer table.
fn rows(trace: bool) -> Vec<Row> {
    if trace {
        let row = |m: &PerLayer| Row {
            name: m.name,
            unit: m.unit,
            better: m.better,
            on: m.on,
            note: format!("moves {}", m.moves),
        };
        PER_LAYER.iter().map(row).collect()
    } else {
        let row = |m: &EndToEnd| Row {
            name: m.name,
            unit: m.unit,
            better: m.better,
            on: m.on,
            note: format!("bound {} %", m.bound * 100.0),
        };
        END_TO_END.iter().map(row).collect()
    }
}

/// One line per metric, one column per workload; `-` where the metric
/// says nothing about the workload.
fn table(trace: bool, results: &[(Workload, RunResult)]) -> String {
    let mut out = format!("{:<34} {:<8} {:<6}", "metric", "unit", "better");
    for (w, _) in results {
        let _ = write!(out, " {:>15}", w.name());
    }
    out.push('\n');
    for row in rows(trace) {
        let _ = write!(out, "{:<34} {:<8} {:<6}", row.name, row.unit, row.better.name());
        for (w, r) in results {
            let value = r.value(row.name).filter(|_| row.on[w.index()]);
            let _ = write!(out, " {:>15}", value.map_or("-".to_owned(), format_value));
        }
        let _ = writeln!(out, "  {}", row.note);
    }
    if !trace {
        let _ = write!(out, "{FAIL_SHARE:<34} {:<8} {:<6}", "fraction", "lower");
        for (_, r) in results {
            let cell = format!("{} ({}/{})", r.fail_share(), r.failed, r.attempted);
            let _ = write!(out, " {cell:>15}");
        }
        out.push_str("  bound 0\n");
    }
    out
}

/// Four significant digits, or all digits of a whole number.
fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

const LOOPBACK: &str = "closed loop, one client per core in one process; daemon traffic \
                        crosses the host's loopback interface, never a real link";

/// `run` (tracing off, end-to-end metrics) or `trace` (tracing on,
/// per-layer metrics) over the chosen workloads.
pub fn run(opts: &Options, trace: bool) -> Result<i32, String> {
    let mut results = Vec::new();
    for w in workloads(opts) {
        results.push((w, run_workload(w, opts, trace)?));
    }
    println!("seed {}, {} s per workload; load: {LOOPBACK}", opts.seed, opts.seconds);
    print!("{}", table(trace, &results));
    if trace {
        println!("trace files: {}/out/trace_<workload>.json", env!("CARGO_MANIFEST_DIR"));
    }
    Ok(i32::from(results.iter().any(|(_, r)| !r.correct)))
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
fn worse_by(better: Better, first: f64, second: f64) -> f64 {
    let change = (second - first) / first.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

/// Compare two results of one workload and one seed metric by metric.
/// Returns the report lines and whether every pair agrees within its
/// bound, either way round, and exactly on the [`EXACT`] metrics.
fn compare(w: Workload, first: &RunResult, second: &RunResult) -> (String, bool) {
    let mut out = String::new();
    let mut agree = true;
    for m in END_TO_END.iter().filter(|m| m.on(w)) {
        let (a, b) = (first.value(m.name).unwrap_or(0.0), second.value(m.name).unwrap_or(0.0));
        let diff = worse_by(m.better, a, b);
        // Both runs had the same inputs, so what is exact must be equal.
        let bound = if EXACT.contains(&m.name) { 0.0 } else { m.bound };
        let ok = diff.abs() <= bound;
        agree &= ok;
        let _ = writeln!(
            out,
            "{:<15} {:<16} {:>14} {:>14} {:<6} {:>+8.2}% (bound {:>5.1}%) {}",
            w.name(),
            m.name,
            format_value(a),
            format_value(b),
            m.unit,
            diff * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "DIFFERS" }
        );
    }
    let ok = first.failed == 0 && second.failed == 0;
    agree &= ok;
    let _ = writeln!(
        out,
        "{:<15} {:<16} {:>14} {:>14} {:<6} (bound 0) {}",
        w.name(),
        FAIL_SHARE,
        format!("{}/{}", first.failed, first.attempted),
        format!("{}/{}", second.failed, second.attempted),
        "",
        if ok { "ok" } else { "DIFFERS" }
    );
    (out, agree)
}

/// Run the `run` set twice in alternation and compare. The report also
/// goes to `out/repeat.txt`.
pub fn repeat(opts: &Options) -> Result<i32, String> {
    let mut report =
        format!("seed {}, {} s per workload; load: {LOOPBACK}\n", opts.seed, opts.seconds);
    let _ = writeln!(
        report,
        "{:<15} {:<16} {:>14} {:>14} {:<6} second worse by",
        "workload", "metric", "first", "second", "unit"
    );
    let mut agree = true;
    for w in workloads(opts) {
        let first = run_workload(w, opts, false)?;
        let second = run_workload(w, opts, false)?;
        let (lines, ok) = compare(w, &first, &second);
        report.push_str(&lines);
        agree &= ok;
    }
    let verdict = if agree { "every pair agrees within its bound" } else { "some pairs DIFFER" };
    let _ = writeln!(report, "{verdict}");
    print!("{report}");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("repeat.txt"), &report))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(i32::from(!agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(values: &[(&str, f64)]) -> RunResult {
        let metrics = values
            .iter()
            .map(|&(name, value)| Metric { name: name.to_owned(), value, unit: "u".to_owned() })
            .collect();
        RunResult { correct: true, attempted: 10, failed: 0, metrics }
    }

    #[test]
    fn merging_parts_takes_the_best_and_insists_on_exact_agreement() {
        let a = result(&[("sessions_per_s", 10.0), ("session_p50_ms", 5.0), ("wire_bytes", 70.0)]);
        let b = result(&[("sessions_per_s", 12.0), ("session_p50_ms", 6.0), ("wire_bytes", 70.0)]);
        let merged = merge(&[a.clone(), b]);
        assert_eq!((merged.attempted, merged.failed, merged.correct), (20, 0, true));
        assert_eq!(merged.value("sessions_per_s"), Some(12.0));
        assert_eq!(merged.value("session_p50_ms"), Some(5.0));
        assert_eq!(merged.metrics[0].unit, "1/s");

        let c = result(&[("sessions_per_s", 12.0), ("session_p50_ms", 6.0), ("wire_bytes", 71.0)]);
        let merged = merge(&[a, c]);
        assert_eq!((merged.failed, merged.correct), (1, false));
    }

    #[test]
    fn worse_by_follows_the_metrics_direction() {
        assert_eq!(worse_by(Better::Lower, 100.0, 110.0), 0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 110.0), -0.1);
        assert_eq!(worse_by(Better::Higher, 100.0, 80.0), 0.2);
    }

    #[test]
    fn values_print_with_four_significant_digits() {
        assert_eq!(format_value(1234.0), "1234");
        assert_eq!(format_value(12.3456), "12.35");
        assert_eq!(format_value(0.00123456), "0.001235");
        assert_eq!(format_value(123456.7), "123457");
        assert_eq!(format_value(0.0), "0");
    }

    #[test]
    fn compare_flags_a_pair_beyond_its_bound_and_any_failure() {
        let all: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 100.0)).collect();
        let first = result(&all);
        let (_, ok) = compare(Workload::WebDaemon, &first, &first);
        assert!(ok);

        let mut slower = all.clone();
        let p50 = slower.iter_mut().find(|(n, _)| *n == "session_p50_ms").expect("in the table");
        p50.1 = 100.0 * (1.0 + 2.0 * crate::metrics::end_to_end("session_p50_ms").unwrap().bound);
        let (lines, ok) = compare(Workload::WebDaemon, &first, &result(&slower));
        assert!(!ok && lines.contains("DIFFERS"));
        // The same metric is not shown, and not compared, where it says nothing.
        assert!(compare(Workload::ReleaseLocal, &first, &result(&slower)).1);

        let mut more_bytes = all.clone();
        more_bytes.iter_mut().find(|(n, _)| *n == "wire_bytes").expect("in the table").1 += 1.0;
        assert!(!compare(Workload::WebDaemon, &first, &result(&more_bytes)).1);

        let failed = RunResult { failed: 1, correct: false, ..first.clone() };
        assert!(!compare(Workload::WebDaemon, &first, &failed).1);
    }

    #[test]
    fn the_table_leaves_out_cells_that_say_nothing() {
        let all: Vec<(&str, f64)> = END_TO_END.iter().map(|m| (m.name, 2.5)).collect();
        let text = table(false, &[(Workload::ReleaseLocal, result(&all))]);
        let line = |name: &str| text.lines().find(|l| l.starts_with(name)).expect(name).to_owned();
        assert!(line("sync_mb_per_s").contains(" 2.500  bound "));
        assert!(line("session_p99_ms").contains(" -  bound "));
        assert!(line("fail_share").ends_with("0 (0/10)  bound 0"));
    }
}
