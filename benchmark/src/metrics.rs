//! The names, units, directions and regression bounds of every metric:
//! the table `BENCHMARK.json` is written from and checked against.

use crate::inputs::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One measured value, as printed.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// The values one part measured, by metric name, in table order.
pub type Measurements = Vec<(&'static str, f64)>;

/// Workloads in the order of [`Workload::ALL`].
type On = [bool; 4];
const ALL: On = [true; 4];
const LOCAL: On = [true, true, false, false];
const DAEMON: On = [false, false, true, true];
const NOT_TINY: On = [true, true, true, false];
const WEB: On = [false, false, true, false];
const TINY: On = [false, false, false, true];

/// An end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Workloads on which it says something of its own. Elsewhere the
    /// machine-readable line still carries it (the driver wants every
    /// metric on every workload), but the tables leave it out.
    pub on: On,
}

impl EndToEnd {
    pub fn on(&self, w: Workload) -> bool {
        self.on[w.index()]
    }
}

use Better::{Higher, Lower};

/// The bounds are those the box and the seeded inputs allow, not those
/// one would wish for. The driver wants ten runs at ten seeds to spread
/// (quartile distance over median) by less than the bound. Timings spread
/// by 3 to 14 % depending on how busy the box's neighbours are; bytes and
/// roundtrips, exact for one seed, by up to 10 % from seed to seed on
/// `bigfile_local` (at most 14 % over 2 000 draws of ten seeds out of
/// forty). `README.md` has the figures. The tighter gate on the exact
/// ones is `repeat`, which wants them identical for one seed.
pub const END_TO_END: [EndToEnd; 11] = [
    EndToEnd { name: "setup_s", unit: "s", better: Lower, bound: 0.25, on: ALL },
    EndToEnd { name: "sync_mb_per_s", unit: "MB/s", better: Higher, bound: 0.25, on: NOT_TINY },
    EndToEnd { name: "sessions_per_s", unit: "1/s", better: Higher, bound: 0.25, on: DAEMON },
    EndToEnd { name: "session_p50_ms", unit: "ms", better: Lower, bound: 0.25, on: DAEMON },
    EndToEnd { name: "session_p99_ms", unit: "ms", better: Lower, bound: 0.25, on: TINY },
    EndToEnd { name: "cpu_s", unit: "s", better: Lower, bound: 0.25, on: ALL },
    EndToEnd { name: "wire_bytes", unit: "B", better: Lower, bound: 0.25, on: ALL },
    EndToEnd { name: "roundtrips", unit: "count", better: Lower, bound: 0.25, on: ALL },
    EndToEnd { name: "dsl_time_s", unit: "s", better: Lower, bound: 0.2, on: NOT_TINY },
    EndToEnd { name: "rsync_ratio", unit: "x", better: Higher, bound: 0.25, on: LOCAL },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Lower, bound: 0.15, on: ALL },
];

/// `fail_share` is an end-to-end metric too. It is 0 on every
/// run that passes, so it has no place among the relative bounds of
/// `BENCHMARK.json`; the result line carries it as `attempted` and
/// `failed`, and its bound is 0: any failure fails the run.
pub const FAIL_SHARE: &str = "fail_share";

/// A per-layer metric of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metrics a change of this one should move.
    pub moves: &'static str,
    /// Workloads whose inputs exercise the layer; it reads 0 elsewhere.
    pub on: On,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    on: On,
) -> PerLayer {
    PerLayer { name, unit, better, moves, on }
}

const SPEED: &str = "cpu_s, sync_mb_per_s";
const BYTES: &str = "wire_bytes, roundtrips, rsync_ratio";
const PHASES: &str = "wire_bytes, dsl_time_s";
const SERVING: &str = "sessions_per_s, session_p50_ms, cpu_s";
const FRAMES: &str = "sessions_per_s, session_p50_ms";
const LATENCY: &str = "session_p50_ms, session_p99_ms, sessions_per_s";
const NONE: &str = "none";
const FILES: On = [true, true, true, false];

pub const PER_LAYER: [PerLayer; 52] = [
    layer("hashes.fingerprint_mb_s", "MB/s", Higher, SPEED, FILES),
    layer("hashes.md5_mb_s", "MB/s", Higher, SPEED, FILES),
    layer("hashes.decomposable_of_mb_s", "MB/s", Higher, SPEED, FILES),
    layer("hashes.roll_scan_mb_s", "MB/s", Higher, SPEED, FILES),
    layer("hashes.decompose_ns_op", "ns", Lower, SPEED, FILES),
    layer("hashes.share", "fraction", Lower, SPEED, FILES),
    layer("core.index.build_mb_s", "MB/s", Higher, "sync_mb_per_s, cpu_s, dsl_time_s", FILES),
    layer("core.index.build_s", "s", Lower, "sync_mb_per_s, cpu_s, peak_rss_mb", FILES),
    layer("core.index.lookup_ns_op", "ns", Lower, SPEED, FILES),
    layer("core.index.share", "fraction", Lower, "sync_mb_per_s, cpu_s, dsl_time_s", FILES),
    layer("core.session.rounds", "count", Lower, BYTES, FILES),
    layer("core.session.items", "count", Lower, BYTES, FILES),
    layer("core.session.candidates", "count", Lower, BYTES, FILES),
    layer("core.session.confirmed", "count", Higher, BYTES, FILES),
    layer("core.session.false_candidates", "count", Lower, BYTES, FILES),
    layer("core.session.harvest_ratio", "fraction", Higher, BYTES, FILES),
    layer("core.session.known_fraction", "fraction", Higher, BYTES, FILES),
    layer("core.session.fallback_files", "count", Lower, BYTES, FILES),
    layer("core.session.setup_bytes", "B", Lower, PHASES, ALL),
    layer("core.session.map_c2s_bytes", "B", Lower, PHASES, ALL),
    layer("core.session.map_s2c_bytes", "B", Lower, PHASES, ALL),
    layer("core.session.delta_bytes", "B", Lower, PHASES, ALL),
    layer("core.session.resume_bytes", "B", Lower, PHASES, ALL),
    layer("core.snapshot.hit_ratio", "fraction", Higher, SERVING, WEB),
    layer("core.snapshot.miss_bytes", "B", Lower, SERVING, WEB),
    layer("core.snapshot.derived_bytes", "B", Higher, SERVING, WEB),
    layer("core.snapshot.cold_session_s", "s", Lower, SERVING, WEB),
    layer("core.snapshot.warm_session_s", "s", Lower, SERVING, WEB),
    layer("compress.delta.encode_mb_s", "MB/s", Higher, "sync_mb_per_s", LOCAL),
    layer("compress.delta.decode_mb_s", "MB/s", Higher, "sync_mb_per_s", LOCAL),
    layer("compress.delta.zdelta_bound_bytes", "B", Lower, "wire_bytes", LOCAL),
    layer("compress.delta.share", "fraction", Lower, "sync_mb_per_s", LOCAL),
    layer("compress.lz.compress_mb_s", "MB/s", Higher, SPEED, [true, false, true, false]),
    layer("compress.lz.decompress_mb_s", "MB/s", Higher, SPEED, [true, false, true, false]),
    layer("protocol.crc32_mb_s", "MB/s", Higher, FRAMES, DAEMON),
    layer("protocol.frame_codec_ns_op", "ns", Lower, FRAMES, DAEMON),
    layer("protocol.frame_codec_mb_s", "MB/s", Higher, FRAMES, DAEMON),
    layer("protocol.frames_per_session", "count", Lower, "sessions_per_s, peak_rss_mb", DAEMON),
    layer("protocol.copied_bytes_per_session", "B", Lower, "sessions_per_s, peak_rss_mb", DAEMON),
    layer("protocol.retransmits", "count", Lower, "sessions_per_s, wire_bytes", DAEMON),
    layer("protocol.pool_reuse_ratio", "fraction", Higher, "sessions_per_s, peak_rss_mb", DAEMON),
    layer("net.hello_rtt_us", "us", Lower, LATENCY, DAEMON),
    layer("net.us_per_roundtrip", "us", Lower, LATENCY, DAEMON),
    layer("net.socket_bytes_per_session", "B", Lower, LATENCY, DAEMON),
    layer("net.handshakes_failed", "count", Lower, LATENCY, DAEMON),
    layer("rsync.wire_bytes", "B", Lower, "rsync_ratio", LOCAL),
    layer("rsync.sync_mb_per_s", "MB/s", Higher, NONE, LOCAL),
    layer("trace.overhead_pct", "%", Lower, NONE, ALL),
    layer("trace.events_dropped", "count", Lower, NONE, ALL),
    layer("trace.sync_s", "s", Lower, NONE, ALL),
    layer("trace.attributed_share", "fraction", Higher, NONE, FILES),
    layer("trace.unattributed_share", "fraction", Lower, NONE, FILES),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static PerLayer> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::DEFAULT_SECONDS;

    /// `BENCHMARK.json` as these tables give it.
    fn manifest() -> String {
        let workloads: Vec<String> = Workload::ALL
            .iter()
            .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                    m.name,
                    m.unit,
                    m.better.name(),
                    m.bound
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                    m.name,
                    m.unit,
                    m.better.name()
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \
             \"paths\": [\"benchmark\"],\n  \"run_seconds\": {DEFAULT_SECONDS},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
             \"per_layer\": [\n{}\n  ]\n}}\n",
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n")
        )
    }

    #[test]
    fn benchmark_json_is_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).unwrap_or_default();
        assert!(on_disk == manifest(), "{path} should read:\n{}", manifest());
    }

    #[test]
    fn the_tables_keep_the_manifests_limits() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used once");
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(end_to_end("setup_s").is_some_and(|m| m.unit == "s" && m.better == Lower));
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"']), "{}", w.name());
        }
    }
}
