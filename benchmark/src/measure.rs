//! The measured section of a run, and the end-to-end metrics it yields.

use msync::protocol::LinkModel;
use msync::trace::Recorder;

use crate::check::Tally;
use crate::fixture::{Batch, Fixture};
use crate::inputs::{Inputs, Workload};
use crate::metrics::Measurements;
use crate::stats::{percentile, supported_percentile};
use crate::timer::{time, Deadline};

/// Sessions each client of a `tiny_sessions` batch runs: with two
/// clients a batch holds 2 000 latencies, twenty of them beyond its p99.
const TINY_BATCH_PER_CLIENT: usize = 1000;
/// Sessions each client of a `web_daemon` batch runs: about a second, so
/// that a run has some twenty batches to take the best of.
const WEB_BATCH_PER_CLIENT: usize = 3;
/// Batches (syncs, for the in-process workloads) a part measures at least.
const MIN_BATCHES: usize = 2;
/// Block size of the rsync baseline (rsync's default for these sizes).
const RSYNC_BLOCK: usize = 700;

/// Everything the measured section observed.
#[derive(Debug, Default)]
pub struct Measured {
    pub batches: Vec<Batch>,
    pub tally: Tally,
}

/// Run closed-loop bursts for `seconds`, and at least [`MIN_BATCHES`] of
/// them. A batch is one sync by one client for the
/// in-process workloads, [`WEB_BATCH_PER_CLIENT`] or
/// [`TINY_BATCH_PER_CLIENT`] sessions by each of the clients against the
/// daemon.
pub fn measure(fixture: &Fixture, seconds: f64, recorder: &Recorder) -> Result<Measured, String> {
    let deadline = Deadline::after(seconds);
    let clients = fixture.clients();
    let per_client = match fixture.workload {
        Workload::WebDaemon => WEB_BATCH_PER_CLIENT,
        Workload::TinySessions => TINY_BATCH_PER_CLIENT,
        Workload::ReleaseLocal | Workload::BigfileLocal => 1,
    };
    let mut measured = Measured::default();
    while measured.batches.len() < MIN_BATCHES || !deadline.passed() {
        let mut batch = fixture.run_batch(clients, per_client, recorder)?;
        measured.tally.merge(std::mem::take(&mut batch.tally));
        measured.batches.push(batch);
    }
    Ok(measured)
}

/// Rates and latencies of a measured section. Each is the *best* batch's
/// figure, not the median batch's: the boxes this runs on alternate, for
/// seconds to tens of seconds at a time, between two speeds a third apart
/// (a fixed spin loop's 20-second medians spread by 26 %, its minima by
/// 3 %), so a run's median batch is fast in one run and slow in the next,
/// while its best batch is slow only if the whole run was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub syncs: usize,
    /// Syncs per wall second.
    pub syncs_per_s: f64,
    /// Process CPU seconds per sync.
    pub cpu_s_per_sync: f64,
    /// Latency percentiles of a batch. The 99th falls back to the highest
    /// lower percentile with ten samples beyond it in the batch
    /// (`stats::supported_percentile`): only a `tiny_sessions` batch is
    /// big enough for a real one.
    pub p50_s: f64,
    pub p99_s: f64,
}

pub fn summarise(batches: &[Batch]) -> Summary {
    let lowest = |values: &mut dyn Iterator<Item = f64>| values.fold(f64::INFINITY, f64::min);
    let syncs = |b: &Batch| b.latencies.len().max(1) as f64;
    let tail = |wanted: f64| {
        let of_batch =
            |b: &Batch| percentile(&b.latencies, supported_percentile(b.latencies.len(), wanted));
        lowest(&mut batches.iter().map(of_batch))
    };
    Summary {
        syncs: batches.iter().map(|b| b.latencies.len()).sum(),
        syncs_per_s: 1.0 / lowest(&mut batches.iter().map(|b| b.wall.max(1e-9) / syncs(b))),
        cpu_s_per_sync: lowest(&mut batches.iter().map(|b| b.cpu_s / syncs(b))),
        p50_s: tail(50.0),
        p99_s: tail(99.0),
    }
}

/// Bytes rsync needs for the same pairs, and the seconds it took.
pub fn rsync_baseline(inputs: &Inputs) -> (u64, f64) {
    let (seconds, bytes) = time(|| {
        inputs
            .pairs()
            .into_iter()
            .map(|(new, old)| msync::rsync::sync(old, &new.data, RSYNC_BLOCK).stats.total_bytes())
            .sum()
    });
    (bytes, seconds)
}

/// The end-to-end metrics of a run, in the order of
/// `metrics::END_TO_END`.
pub fn end_to_end(
    fixture: &Fixture,
    measured: &Measured,
    setup_s: f64,
    peak_rss_mib: f64,
) -> Result<Measurements, String> {
    let facts = fixture.first_facts().ok_or("no sync succeeded")?;
    let s = summarise(&measured.batches);
    let wire = facts.traffic.total_bytes();
    let (rsync_bytes, _) = rsync_baseline(&fixture.inputs);
    Ok(vec![
        ("setup_s", setup_s),
        ("sync_mb_per_s", s.syncs_per_s * fixture.inputs.content_bytes() as f64 / 1e6),
        ("sessions_per_s", s.syncs_per_s),
        ("session_p50_ms", s.p50_s * 1e3),
        ("session_p99_ms", s.p99_s * 1e3),
        ("cpu_s", s.cpu_s_per_sync),
        ("wire_bytes", wire as f64),
        ("roundtrips", f64::from(facts.traffic.roundtrips)),
        ("dsl_time_s", LinkModel::dsl().estimate(&facts.traffic).as_secs_f64() + s.p50_s),
        ("rsync_ratio", rsync_bytes as f64 / wire.max(1) as f64),
        ("peak_rss_mb", peak_rss_mib),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(wall: f64, cpu_s: f64, latencies: &[f64]) -> Batch {
        Batch { wall, cpu_s, latencies: latencies.to_vec(), tally: Tally::default() }
    }

    #[test]
    fn one_sync_per_batch_reports_the_best_sync_everywhere() {
        let batches = [batch(2.0, 1.5, &[2.0]), batch(4.0, 9.0, &[4.0]), batch(1.0, 2.0, &[1.0])];
        let s = summarise(&batches);
        assert_eq!(s.syncs, 3);
        assert_eq!((s.syncs_per_s, s.cpu_s_per_sync), (1.0, 1.5));
        assert_eq!((s.p50_s, s.p99_s), (1.0, 1.0));
    }

    #[test]
    fn a_batch_of_a_hundred_supports_p90_but_not_p99() {
        let slow: Vec<f64> = (1..=100).map(|i| f64::from(2 * i)).collect();
        let fast: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarise(&[batch(100.0, 80.0, &slow), batch(50.0, 60.0, &fast)]);
        assert_eq!((s.p50_s, s.p99_s), (50.0, 90.0));
        assert_eq!((s.syncs, s.syncs_per_s, s.cpu_s_per_sync), (200, 2.0, 0.6));
    }

    #[test]
    fn big_batches_report_the_best_of_their_p99s() {
        let ramp =
            |top: f64| -> Vec<f64> { (1..=2000).map(|i| top * f64::from(i) / 2000.0).collect() };
        let batches = [
            batch(1.0, 1.0, &ramp(10.0)),
            batch(1.0, 1.0, &ramp(30.0)),
            batch(1.0, 1.0, &ramp(20.0)),
        ];
        let s = summarise(&batches);
        assert!((s.p99_s - 9.9).abs() < 1e-9, "{}", s.p99_s);
    }
}
