//! One part of a run: one workload, set up and measured once in this
//! process, its result printed as one line. A run is several parts in
//! fresh processes (see `suite`).

use msync::trace::Recorder;

use crate::check::Tally;
use crate::cli::Options;
use crate::fixture::Fixture;
use crate::inputs::Workload;
use crate::metrics::{self, Measurements, Metric};
use crate::report::RunResult;
use crate::stats::{median, quartiles, spread};
use crate::timer::{time, Deadline};
use crate::{layers, measure, procfs};

/// Run one part of `workload` and print its result line. The exit code
/// is non-zero when any sync failed or gave wrong bytes.
pub fn run_and_print(workload: Workload, opts: &Options) -> Result<i32, String> {
    let (tally, values) = if opts.trace {
        layers::traced_run(workload, opts.seed, opts.seconds)?
    } else {
        untraced(workload, opts.seed, opts.seconds)?
    };
    for message in &tally.messages {
        eprintln!("{}: FAILED: {message}", workload.name());
    }
    let metrics = values
        .into_iter()
        .map(|(name, value)| {
            let unit = metrics::end_to_end(name)
                .map(|m| m.unit)
                .or_else(|| metrics::per_layer(name).map(|m| m.unit))
                .unwrap_or_else(|| unreachable!("{name} is not in the metric tables"));
            Metric { name: name.to_owned(), value, unit: unit.to_owned() }
        })
        .collect();
    println!("{}", RunResult::new(&tally, metrics).to_json());
    Ok(tally.exit_code())
}

/// A part sets its workload up several times, reports the median set-up
/// and measures on the last: three times at least, and up to 25 times
/// while that takes no longer than half a second, because the quickest
/// set-up (`bigfile_local`, 6 ms) is the one a busy box disturbs most.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 0.5;

/// Tracing off, every sync checked: the end-to-end metrics of this part.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> Result<(Tally, Measurements), String> {
    let mut tally = Tally::default();
    let mut setups = Vec::new();
    let deadline = Deadline::after(SETUP_SECONDS);
    let mut fixture = loop {
        let (seconds, fixture) = time(|| Fixture::set_up(workload, seed, &mut tally));
        setups.push(seconds);
        let mut fixture = fixture?;
        if setups.len() >= MIN_SETUPS && (setups.len() >= MAX_SETUPS || deadline.passed()) {
            break fixture;
        }
        // Gone before the next one exists: two never count in the peak memory.
        fixture.tear_down();
    };
    eprintln!("{}: {}", workload.name(), fixture.inputs.summary());
    let measured = measure::measure(&fixture, seconds, &Recorder::off())?;
    // Read before anything but the workload has run in this process.
    let peak_rss_mib = procfs::peak_rss_mib()?;
    fixture.tear_down();

    let per_sync: Vec<f64> =
        measured.batches.iter().map(|b| b.wall / b.latencies.len().max(1) as f64).collect();
    let [q1, q2, q3] = quartiles(&per_sync).unwrap_or([per_sync[0]; 3]);
    eprintln!(
        "{}: {} syncs in {} batches; batch wall per sync: quartiles {q1:.6} {q2:.6} {q3:.6} s \
         (spread {:.1} %)",
        workload.name(),
        measured.tally.attempted,
        measured.batches.len(),
        spread(&per_sync).unwrap_or(0.0) * 100.0
    );
    let values = measure::end_to_end(&fixture, &measured, median(&setups), peak_rss_mib)?;
    tally.merge(measured.tally);
    Ok((tally, values))
}
