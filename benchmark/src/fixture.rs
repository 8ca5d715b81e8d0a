//! One workload, set up and ready to sync: its inputs, its in-process
//! daemon when it has one, and the closed-loop clients that drive it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use msync::core::{sync_collection_traced, sync_file_with, FileEntry, SyncOptions, SyncStats};
use msync::net::{sync_remote, Daemon, DaemonOptions, RemoteOptions};
use msync::protocol::TrafficStats;
use msync::trace::{MetricsSnapshot, Recorder};

use crate::check::{compare_files, Tally};
use crate::inputs::{generate, Inputs, Workload};
use crate::procfs;
use crate::timer::{time, Stopwatch};

/// Warm-up sessions of `tiny_sessions` before anything is measured.
const TINY_WARMUP_SESSIONS: usize = 50;
/// How long the daemon may take to report sessions the clients have
/// already seen end.
const REPORT_TIMEOUT_S: f64 = 30.0;

/// What one sync cost, as its public result reports it.
#[derive(Debug, Clone)]
pub struct Facts {
    pub traffic: TrafficStats,
    pub per_file: Vec<(String, SyncStats)>,
    pub fell_back: usize,
}

/// One finished sync: the client's files and what they cost.
struct Synced {
    files: Vec<FileEntry>,
    facts: Facts,
    /// `socket_sent + socket_received` of a daemon session.
    socket_bytes: Option<u64>,
}

/// A burst of syncs by all clients at once.
#[derive(Debug, Default)]
pub struct Batch {
    /// From the first client's start to the last client's end.
    pub wall: f64,
    /// User plus system CPU seconds of the whole process meanwhile:
    /// clients, daemon and checks.
    pub cpu_s: f64,
    /// Client-side seconds of every sync that returned `Ok`.
    pub latencies: Vec<f64>,
    pub tally: Tally,
}

struct Server {
    daemon: Daemon,
    addr: String,
    /// Sync sessions the daemon has reported, and how many of them failed.
    reported: Arc<AtomicU64>,
    reported_failed: Arc<AtomicU64>,
    /// Sync sessions the clients have seen succeed.
    finished: AtomicU64,
}

pub struct Fixture {
    pub workload: Workload,
    pub inputs: Inputs,
    server: Option<Server>,
    /// Facts of the first sync: every later one must cost the same bytes
    /// and roundtrips, and the traced run takes its counters from here.
    first: OnceLock<Facts>,
    /// The first session against the fresh daemon, and the daemon's
    /// metrics right after it (daemon workloads).
    pub cold_session_s: f64,
    pub cold_metrics: MetricsSnapshot,
}

impl Fixture {
    /// Generate the inputs, spawn the daemon and run the cold or warm-up
    /// sessions: everything `setup_s` covers. Those sessions are checked
    /// and counted in `tally` like any other.
    pub fn set_up(workload: Workload, seed: u64, tally: &mut Tally) -> Result<Self, String> {
        let inputs = generate(workload, seed);
        let mut fixture = Fixture {
            workload,
            inputs,
            server: None,
            first: OnceLock::new(),
            cold_session_s: 0.0,
            cold_metrics: MetricsSnapshot::new(),
        };
        if workload.is_daemon() {
            fixture.server = Some(Server::spawn(fixture.inputs.new.clone())?);
            let (cold_s, cold) = time(|| fixture.run_batch(1, 1, &Recorder::off()));
            fixture.cold_session_s = cold_s;
            fixture.cold_metrics = fixture.daemon_metrics();
            tally.merge(cold?.tally);
            if workload == Workload::TinySessions {
                let warm = fixture.run_batch(1, TINY_WARMUP_SESSIONS - 1, &Recorder::off())?;
                tally.merge(warm.tally);
            }
        }
        Ok(fixture)
    }

    /// Closed-loop clients of a burst: one per core against the daemon,
    /// one for an in-process sync.
    pub fn clients(&self) -> usize {
        if self.workload.is_daemon() {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            1
        }
    }

    pub fn daemon_addr(&self) -> Option<&str> {
        self.server.as_ref().map(|s| s.addr.as_str())
    }

    /// Aggregate metrics of the daemon's finished sessions (empty for a
    /// workload without one).
    pub fn daemon_metrics(&self) -> MetricsSnapshot {
        self.server.as_ref().map_or_else(MetricsSnapshot::new, |s| s.daemon.metrics())
    }

    /// Facts of the first sync this fixture made.
    pub fn first_facts(&self) -> Option<&Facts> {
        self.first.get()
    }

    fn sync_once(&self, recorder: &Recorder) -> Result<Synced, String> {
        let cfg = self.workload.config();
        let Inputs { old, new } = &self.inputs;
        if let Some(server) = &self.server {
            let opts =
                RemoteOptions { cfg, recorder: recorder.clone(), ..RemoteOptions::default() };
            let got =
                sync_remote(&server.addr, old, &opts).map_err(|e| format!("sync_remote: {e}"))?;
            server.finished.fetch_add(1, Ordering::SeqCst);
            let o = got.outcome;
            return Ok(Synced {
                files: o.files,
                facts: Facts { traffic: o.traffic, per_file: o.per_file, fell_back: o.fell_back },
                socket_bytes: Some(got.socket_sent + got.socket_received),
            });
        }
        if self.workload == Workload::BigfileLocal {
            let opts = SyncOptions { recorder: recorder.clone(), ..SyncOptions::default() };
            let o = sync_file_with(&old[0].data, &new[0].data, &cfg, &opts)
                .map_err(|e| format!("sync_file: {e}"))?;
            let name = new[0].name.clone();
            return Ok(Synced {
                files: vec![FileEntry::new(name.clone(), o.reconstructed)],
                facts: Facts {
                    traffic: o.stats.traffic,
                    fell_back: usize::from(o.fell_back),
                    per_file: vec![(name, o.stats)],
                },
                socket_bytes: None,
            });
        }
        let o = sync_collection_traced(old, new, &cfg, recorder)
            .map_err(|e| format!("sync_collection: {e}"))?;
        Ok(Synced {
            files: o.files,
            facts: Facts { traffic: o.traffic, per_file: o.per_file, fell_back: o.fell_back },
            socket_bytes: None,
        })
    }

    /// The client's files must be the server's, the socket must have
    /// carried exactly the bytes the stats charge, and bytes and
    /// roundtrips must be those of the first sync.
    fn verify(&self, synced: Synced) -> Result<(), String> {
        compare_files(&synced.files, &self.inputs.new)?;
        let traffic = synced.facts.traffic;
        let wire = traffic.total_bytes();
        if let Some(socket) = synced.socket_bytes {
            if socket != wire {
                return Err(format!("socket carried {socket} B, TrafficStats charge {wire} B"));
            }
        }
        let first = self.first.get_or_init(|| synced.facts).traffic;
        if (wire, traffic.roundtrips) != (first.total_bytes(), first.roundtrips) {
            return Err(format!(
                "sync cost {wire} B in {} roundtrips, the first one {} B in {}",
                traffic.roundtrips,
                first.total_bytes(),
                first.roundtrips
            ));
        }
        Ok(())
    }

    /// Run `clients` closed-loop clients at once, `per_client` syncs each;
    /// a client starts its next sync when the previous one has returned
    /// and been checked.
    pub fn run_batch(
        &self,
        clients: usize,
        per_client: usize,
        recorder: &Recorder,
    ) -> Result<Batch, String> {
        let client = || {
            let mut latencies = Vec::with_capacity(per_client);
            let mut tally = Tally::default();
            for _ in 0..per_client {
                let (seconds, synced) = time(|| self.sync_once(recorder));
                if synced.is_ok() {
                    latencies.push(seconds);
                }
                tally.record(synced.and_then(|s| self.verify(s)));
            }
            (latencies, tally)
        };
        let cpu0 = procfs::cpu_seconds()?;
        let sw = Stopwatch::start();
        let results: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients).map(|_| scope.spawn(client)).collect();
            handles.into_iter().map(|h| h.join()).collect()
        });
        let mut batch =
            Batch { wall: sw.seconds(), cpu_s: procfs::cpu_seconds()? - cpu0, ..Batch::default() };
        for result in results {
            match result {
                Ok((latencies, tally)) => {
                    batch.latencies.extend(latencies);
                    batch.tally.merge(tally);
                }
                Err(_) => batch.tally.record(Err("a client thread panicked".to_owned())),
            }
        }
        if let Some(server) = &self.server {
            if let Err(message) = server.settle() {
                batch.tally.fail(message);
            }
        }
        Ok(batch)
    }

    /// Stop the daemon and wait for its threads. The inputs and the first
    /// sync's facts stay readable.
    pub fn tear_down(&mut self) {
        if let Some(server) = self.server.take() {
            server.daemon.shutdown();
        }
    }
}

impl Server {
    fn spawn(files: Vec<FileEntry>) -> Result<Self, String> {
        let reported = Arc::new(AtomicU64::new(0));
        let reported_failed = Arc::new(AtomicU64::new(0));
        let (seen, seen_failed) = (Arc::clone(&reported), Arc::clone(&reported_failed));
        // Admin exchanges and refused hellos bind no collection; only
        // sync sessions are counted, each of which a client also saw.
        let daemon = Daemon::spawn("127.0.0.1:0", files, DaemonOptions::default(), move |r| {
            if r.collection.is_some() {
                if r.result.is_err() {
                    seen_failed.fetch_add(1, Ordering::SeqCst);
                }
                seen.fetch_add(1, Ordering::SeqCst);
            }
        })
        .map_err(|e| format!("cannot bind a loopback daemon: {e}"))?;
        let addr = daemon.local_addr().to_string();
        Ok(Server { daemon, addr, reported, reported_failed, finished: AtomicU64::new(0) })
    }

    /// Wait until the daemon has reported every session the clients saw
    /// succeed (its report lands just after the client returns), then
    /// charge the sessions it reported as failed.
    fn settle(&self) -> Result<(), String> {
        let want = self.finished.load(Ordering::SeqCst);
        let sw = Stopwatch::start();
        while self.reported.load(Ordering::SeqCst) < want {
            if sw.seconds() > REPORT_TIMEOUT_S {
                let have = self.reported.load(Ordering::SeqCst);
                return Err(format!("daemon reported {have} of {want} sessions"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match self.reported_failed.swap(0, Ordering::SeqCst) {
            0 => Ok(()),
            n => Err(format!("daemon reported {n} failed sessions")),
        }
    }
}
