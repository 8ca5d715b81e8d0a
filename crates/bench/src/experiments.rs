//! The paper's evaluation, experiment by experiment.
//!
//! Each function regenerates one figure or table as a generic
//! [`Report`] (rows × columns of costs) that the `exp` binary prints.
//! Costs are in KB like the paper's; absolute values differ from the
//! 2003 testbed (synthetic corpora, different compressor builds) but the
//! *shapes* — who wins, by what factor, where the optima sit — are the
//! reproduction targets, recorded in EXPERIMENTS.md.

use crate::cost::{measure, Method};
use msync_core::{sync_collection, BatchConfig, FileEntry, ProtocolConfig, VerifyStrategy};
use msync_corpus::{emacs_like, gcc_like, release_pair, web_collection, web_params, Collection};

/// A rendered experiment: a title, column headers, and labeled rows.
#[derive(Debug, Clone)]
pub struct Report {
    /// Which figure/table this regenerates.
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Rows: label + one cell per column.
    pub rows: Vec<ReportRow>,
    /// Free-form notes (corpus scale, shape checks).
    pub notes: Vec<String>,
}

/// One labeled row.
#[derive(Debug, Clone)]
pub struct ReportRow {
    /// Row label.
    pub label: String,
    /// Cell values.
    pub cells: Vec<String>,
}

impl Report {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        for row in &self.rows {
            for (i, cell) in std::iter::once(&row.label).chain(&row.cells).enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = format!("== {}: {} ==\n", self.id, self.title);
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = std::iter::once(&row.label)
                .chain(&row.cells)
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&cells.join("  "));
            out.push('\n');
        }
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }
}

fn kb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / 1024.0)
}

/// A corpus collection as the entries the collection drivers take.
fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

/// The minimum block sizes Figures 6.1/6.2 sweep.
pub const MIN_BLOCK_SWEEP: &[usize] = &[8, 16, 32, 64, 128, 256];

/// Figures 6.1 and 6.2: the basic protocol (recursive halving +
/// decomposable hashes + per-candidate verification) vs minimum block
/// size, against rsync (default and optimal) and zdelta.
pub fn fig6_basic(which: &str, scale: f64) -> Report {
    let (params, id, name) = match which {
        "gcc" => (gcc_like(scale), "fig6-1", "gcc data set"),
        _ => (emacs_like(scale), "fig6-2", "emacs data set"),
    };
    let pair = release_pair(&params);
    let (old, new) = pair.pair(0, 1);

    let mut rows = Vec::new();
    let mut best: Option<(usize, u64)> = None;
    for &min_block in MIN_BLOCK_SWEEP {
        let cfg = ProtocolConfig::basic(min_block);
        let c = measure(old, new, &Method::Msync(cfg));
        if best.is_none_or(|(_, b)| c.total() < b) {
            best = Some((min_block, c.total()));
        }
        rows.push(ReportRow {
            label: format!("msync basic, min={min_block}"),
            cells: vec![
                kb(c.map_s2c),
                kb(c.map_c2s),
                kb(c.delta + c.setup),
                kb(c.total()),
                c.roundtrips.to_string(),
            ],
        });
    }
    for method in [Method::Rsync(None), Method::RsyncOptimal, Method::Zdelta] {
        let c = measure(old, new, &method);
        rows.push(ReportRow {
            label: method.label(),
            cells: vec![
                kb(c.map_s2c),
                kb(c.map_c2s),
                kb(c.delta + c.setup),
                kb(c.total()),
                c.roundtrips.to_string(),
            ],
        });
    }
    let (best_min, _) = best.expect("sweep non-empty");
    Report {
        id: id.into(),
        title: format!("basic protocol vs minimum block size, {name}"),
        columns: ["config", "map s→c KB", "map c→s KB", "delta+setup KB", "total KB", "rt"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![
            format!("corpus scale {scale} ({} files, {} KB)", new.len(), new.total_bytes() / 1024),
            format!("best minimum block size: {best_min}"),
        ],
    }
}

/// The continuation-hash minimum block sizes Figure 6.3 sweeps.
pub const CONT_SWEEP: &[usize] = &[64, 32, 16, 8];

/// Figure 6.3: adding continuation hashes of various minimum block
/// sizes; the leftmost bar is group verification without continuation.
pub fn fig6_3(scale: f64) -> Report {
    let pair = release_pair(&gcc_like(scale));
    let (old, new) = pair.pair(0, 1);

    let group_verify = VerifyStrategy::GroupTesting {
        batches: vec![
            BatchConfig { group_size: 4, bits: 20 },
            BatchConfig { group_size: 1, bits: 20 },
        ],
    };
    let mut rows = Vec::new();
    for &min_global in &[64usize, 128] {
        let mut cells = Vec::new();
        // Leftmost bar: no continuation, group verification.
        let cfg = ProtocolConfig {
            min_block_global: min_global,
            min_block_cont: min_global,
            use_continuation: false,
            verify: group_verify.clone(),
            ..ProtocolConfig::default()
        };
        cells.push(kb(measure(old, new, &Method::Msync(cfg)).total()));
        for &min_cont in CONT_SWEEP {
            let cfg = ProtocolConfig {
                min_block_global: min_global,
                min_block_cont: min_cont,
                use_continuation: true,
                verify: group_verify.clone(),
                ..ProtocolConfig::default()
            };
            cells.push(kb(measure(old, new, &Method::Msync(cfg)).total()));
        }
        rows.push(ReportRow { label: format!("global min={min_global}"), cells });
    }
    Report {
        id: "fig6-3".into(),
        title: "continuation hashes vs their minimum block size (gcc), total KB".into(),
        columns: ["config", "no cont", "cont=64", "cont=32", "cont=16", "cont=8"]
            .map(String::from)
            .to_vec(),
        rows,
        notes: vec![format!("corpus scale {scale}")],
    }
}

/// Figure 6.4: match-verification strategies on gcc.
pub fn fig6_4(scale: f64) -> Report {
    let pair = release_pair(&gcc_like(scale));
    let (old, new) = pair.pair(0, 1);

    let strategies: Vec<(&str, VerifyStrategy)> = vec![
        ("trivial 32-bit per candidate", VerifyStrategy::PerCandidate { bits: 32 }),
        ("16-bit per candidate", VerifyStrategy::PerCandidate { bits: 16 }),
        (
            "groups, 1 verify roundtrip",
            VerifyStrategy::GroupTesting { batches: vec![BatchConfig { group_size: 4, bits: 16 }] },
        ),
        (
            "groups, 2 verify roundtrips",
            VerifyStrategy::GroupTesting {
                batches: vec![
                    BatchConfig { group_size: 4, bits: 14 },
                    BatchConfig { group_size: 1, bits: 16 },
                ],
            },
        ),
        (
            "groups, 3 verify roundtrips",
            VerifyStrategy::GroupTesting {
                batches: vec![
                    BatchConfig { group_size: 6, bits: 12 },
                    BatchConfig { group_size: 3, bits: 14 },
                    BatchConfig { group_size: 1, bits: 16 },
                ],
            },
        ),
    ];
    let mut rows = Vec::new();
    for (label, verify) in strategies {
        let cfg = ProtocolConfig { verify, ..ProtocolConfig::default() };
        let c = measure(old, new, &Method::Msync(cfg));
        rows.push(ReportRow {
            label: label.into(),
            cells: vec![kb(c.map_c2s), kb(c.total()), c.roundtrips.to_string()],
        });
    }
    Report {
        id: "fig6-4".into(),
        title: "match verification strategies (gcc)".into(),
        columns: ["strategy", "verify c→s KB", "total KB", "rt"].map(String::from).to_vec(),
        rows,
        notes: vec![format!("corpus scale {scale}")],
    }
}

/// Table 6.1: best results for gcc and emacs using all techniques.
pub fn table6_1(scale: f64) -> Report {
    let gcc = release_pair(&gcc_like(scale));
    let emacs = release_pair(&emacs_like(scale));
    let corpora: Vec<(&str, &Collection, &Collection)> = vec![
        ("gcc", &gcc.versions[0], &gcc.versions[1]),
        ("emacs", &emacs.versions[0], &emacs.versions[1]),
    ];

    let methods: Vec<(String, Method)> = vec![
        ("rsync (default 700B)".into(), Method::Rsync(None)),
        ("rsync (optimal per file)".into(), Method::RsyncOptimal),
        ("msync basic (best min)".into(), Method::Msync(ProtocolConfig::basic(64))),
        ("msync all techniques".into(), Method::Msync(ProtocolConfig::all_techniques())),
        ("vcdiff (local bound)".into(), Method::Vcdiff),
        ("zdelta (local bound)".into(), Method::Zdelta),
    ];

    let mut rows: Vec<ReportRow> = methods
        .iter()
        .map(|(label, _)| ReportRow { label: label.clone(), cells: Vec::new() })
        .collect();
    let mut notes = Vec::new();
    for (name, old, new) in corpora {
        for (row, (_, method)) in rows.iter_mut().zip(&methods) {
            let c = measure(old, new, method);
            row.cells.push(kb(c.total()));
        }
        notes.push(format!("{name}: {} files, {} KB total", new.len(), new.total_bytes() / 1024));
    }
    notes.push(format!("corpus scale {scale}"));
    Report {
        id: "table6-1".into(),
        title: "best results, all techniques (total KB)".into(),
        columns: ["method", "gcc KB", "emacs KB"].map(String::from).to_vec(),
        rows,
        notes,
    }
}

/// The update intervals (days) of Table 6.2.
pub const WEB_INTERVALS: &[usize] = &[1, 2, 7];

/// Table 6.2: cost of updating the web collection after 1, 2 and 7 days,
/// for every method.
pub fn table6_2(scale: f64) -> Report {
    let params = web_params(scale);
    let vc = web_collection(&params, 7);

    let methods: Vec<Method> = vec![
        Method::Uncompressed,
        Method::Gzip,
        Method::Rsync(None),
        Method::RsyncOptimal,
        Method::Msync(ProtocolConfig::all_techniques()),
        Method::Zdelta,
    ];
    let mut rows: Vec<ReportRow> =
        methods.iter().map(|m| ReportRow { label: m.label(), cells: Vec::new() }).collect();
    for &days in WEB_INTERVALS {
        let (old, new) = vc.pair(0, days);
        for (row, method) in rows.iter_mut().zip(&methods) {
            let c = measure(old, new, method);
            // Report scaled up to the paper's 10,000 pages.
            let scaled = (c.total() as f64 / scale) as u64;
            row.cells.push(kb(scaled));
        }
    }
    Report {
        id: "table6-2".into(),
        title: "web collection update cost, KB per 10,000 pages".into(),
        columns: ["method", "1 day", "2 days", "7 days"].map(String::from).to_vec(),
        rows,
        notes: vec![format!(
            "measured on {} pages (scale {scale}), scaled to 10,000; collection {} KB",
            params.pages,
            vc.versions[0].total_bytes() / 1024
        )],
    }
}

/// Extension (DESIGN.md §8): ablation of individual techniques on gcc —
/// what each one buys on top of / removed from the full configuration.
pub fn ablation(scale: f64) -> Report {
    let pair = release_pair(&gcc_like(scale));
    let (old, new) = pair.pair(0, 1);
    let full = ProtocolConfig::all_techniques();
    let variants: Vec<(&str, ProtocolConfig)> = vec![
        ("all techniques", full.clone()),
        ("− decomposable hashes", ProtocolConfig { use_decomposable: false, ..full.clone() }),
        (
            "− continuation hashes",
            ProtocolConfig {
                use_continuation: false,
                min_block_cont: full.min_block_global,
                ..full.clone()
            },
        ),
        ("− sibling skip", ProtocolConfig { skip_sibling_of_matched: false, ..full.clone() }),
        (
            "− group testing (16-bit per cand.)",
            ProtocolConfig { verify: VerifyStrategy::PerCandidate { bits: 16 }, ..full.clone() },
        ),
    ];
    let base_total = measure(old, new, &Method::Msync(full)).total();
    let mut rows = Vec::new();
    for (label, cfg) in variants {
        let c = measure(old, new, &Method::Msync(cfg));
        let delta_pct = 100.0 * (c.total() as f64 - base_total as f64) / base_total as f64;
        rows.push(ReportRow {
            label: label.into(),
            cells: vec![kb(c.total()), format!("{delta_pct:+.1}%"), c.roundtrips.to_string()],
        });
    }
    Report {
        id: "ablation".into(),
        title: "per-technique ablation (gcc), total KB".into(),
        columns: ["variant", "total KB", "vs full", "rt"].map(String::from).to_vec(),
        rows,
        notes: vec![format!("corpus scale {scale}")],
    }
}

/// Extension: the bandwidth/latency trade-off of roundtrip-restricted
/// protocols (paper §7: "how to improve file synchronization if we are
/// restricted to just one or two round-trips ... it seems difficult to
/// improve significantly over rsync in practice").
pub fn restricted(scale: f64) -> Report {
    let pair = release_pair(&gcc_like(scale));
    let (old, new) = pair.pair(0, 1);
    let link = msync_protocol::LinkModel::dsl();

    let stats_for = |c: &crate::cost::Cost| {
        let mut t = msync_protocol::TrafficStats::new();
        t.record(msync_protocol::Direction::ClientToServer, msync_protocol::Phase::Map, c.map_c2s);
        t.record(
            msync_protocol::Direction::ServerToClient,
            msync_protocol::Phase::Delta,
            c.map_s2c + c.delta + c.setup,
        );
        t.roundtrips = c.roundtrips;
        t
    };
    let mut rows = Vec::new();
    for &levels in &[1u32, 2, 3, 5, 7, 9] {
        let cfg = ProtocolConfig::restricted(levels);
        let c = measure(old, new, &Method::Msync(cfg));
        let t = stats_for(&c);
        rows.push(ReportRow {
            label: format!("msync, {levels} level(s)"),
            cells: vec![
                kb(c.total()),
                c.roundtrips.to_string(),
                format!("{:.1}s", link.estimate(&t).as_secs_f64()),
            ],
        });
    }
    for method in [Method::Rsync(None), Method::RsyncOptimal] {
        let c = measure(old, new, &method);
        let t = stats_for(&c);
        rows.push(ReportRow {
            label: method.label(),
            cells: vec![
                kb(c.total()),
                c.roundtrips.to_string(),
                format!("{:.1}s", link.estimate(&t).as_secs_f64()),
            ],
        });
    }
    Report {
        id: "restricted".into(),
        title: "roundtrip-restricted protocols (gcc): bytes vs latency".into(),
        columns: ["config", "total KB", "rt", "est. DSL time"].map(String::from).to_vec(),
        rows,
        notes: vec![
            format!("corpus scale {scale}"),
            "time = bytes at DSL bandwidth + 40 ms per roundtrip (all files batched)".into(),
        ],
    }
}

/// Extension: the full baseline spectrum on one corpus, adding the
/// LBFS-style CDC synchronizer between rsync and msync.
pub fn baselines(scale: f64) -> Report {
    let pair = release_pair(&gcc_like(scale));
    let (old, new) = pair.pair(0, 1);
    let web = web_collection(&web_params(scale / 5.0), 1);
    let (wold, wnew) = web.pair(0, 1);

    let methods: Vec<Method> = vec![
        Method::Gzip,
        Method::Rsync(None),
        Method::RsyncOptimal,
        Method::Cdc(msync_cdc::ChunkParams::default()),
        Method::Msync(ProtocolConfig::all_techniques()),
        Method::Zdelta,
    ];
    let mut rows = Vec::new();
    for method in &methods {
        let g = measure(old, new, method);
        let w = measure(wold, wnew, method);
        rows.push(ReportRow {
            label: method.label(),
            cells: vec![kb(g.total()), kb(w.total()), g.roundtrips.to_string()],
        });
    }
    Report {
        id: "baselines".into(),
        title: "baseline spectrum incl. CDC (total KB)".into(),
        columns: ["method", "gcc KB", "web 1d KB", "rt"].map(String::from).to_vec(),
        rows,
        notes: vec![format!("corpus scale {scale} (web at {})", scale / 5.0)],
    }
}

/// Extension: what settling unchanged files costs on the wire — the
/// roster's setup bytes against the number of changed files in a
/// 10,000-page collection (paper §4 related work; the paper itself
/// ships every fingerprint, "efficient enough for our data sets").
pub fn recon(scale: f64) -> Report {
    use msync_corpus::Rng;
    use msync_protocol::Phase;

    let n = ((10_000.0 * scale) as usize).max(64);
    let mut old: Vec<FileEntry> = Vec::new();
    for i in 0..n {
        let data =
            msync_corpus::text::html_page(&mut Rng::seed_from_u64(3_000 + i as u64), 4_000, 1);
        old.push(FileEntry::new(format!("www/p{i:05}.html"), data));
    }
    let cfg = ProtocolConfig { start_block: 1 << 12, ..ProtocolConfig::default() };

    let mut rows = Vec::new();
    for &d in &[0usize, 1, 8, 64] {
        let d = d.min(n);
        let mut new = old.clone();
        for k in 0..d {
            let idx = (k * n) / d.max(1) + 1;
            let f = &mut new[idx % n];
            let at = f.data.len() / 2;
            f.data[at] ^= 0x5A;
        }
        let out = sync_collection(&old, &new, &cfg).expect("sync succeeds");
        assert_eq!(out.unchanged, n - d, "{d} changed: every other file settles on the roster");
        let t = &out.traffic;
        let cells = vec![
            kb(t.c2s(Phase::Setup) + t.s2c(Phase::Setup)),
            kb(t.total_bytes()),
            t.roundtrips.to_string(),
        ];
        rows.push(ReportRow { label: format!("{d} changed"), cells });
    }
    Report {
        id: "recon".into(),
        title: format!("changed-file identification over {n} files, on the wire (setup KB)"),
        columns: ["changes", "setup KB", "total KB", "rt"].map(String::from).to_vec(),
        rows,
        notes: vec![format!("collection scale {scale}; 4 KB pages")],
    }
}

/// The caps on files in flight `window` sweeps; `None` is the default
/// (no cap: the byte budget alone sets the window).
pub const WINDOW_DEPTHS: &[Option<usize>] = &[Some(1), Some(8), Some(32), None];

/// Extension (ROADMAP item 4, "decide the window with the table as
/// judge"): what the pipeline window costs on the wire the daemon
/// speaks — `sync_collection_client` against `serve_collection` over an
/// in-process channel — per corpus and cap on files in flight:
/// roundtrips, wire bytes, and modelled time on the paper's slow links.
pub fn window(scale: f64) -> Report {
    use msync_core::{serve_collection, sync_collection_client, PipelineOptions};
    use msync_protocol::{Endpoint, LinkModel, RetryPolicy};

    let gcc = release_pair(&gcc_like(scale));
    let emacs = release_pair(&emacs_like(scale));
    let web = web_collection(&web_params(scale / 5.0), 1);
    let corpora =
        [("gcc", gcc.pair(0, 1)), ("emacs", emacs.pair(0, 1)), ("web 1d", web.pair(0, 1))];
    // A clean in-process link only times out if the machine stalls; a
    // long deadline keeps a stall from adding a retransmission.
    let retry = RetryPolicy { timeout: std::time::Duration::from_secs(30), ..Default::default() };
    let cfg = ProtocolConfig::default();
    let links = [LinkModel::dialup(), LinkModel::dsl(), LinkModel::cable(), LinkModel::t1()];

    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for (name, (old, new)) in corpora {
        notes.push(format!("{name}: {} files, {} KB total", new.len(), new.total_bytes() / 1024));
        let (old, new) = (entries(old), entries(new));
        let mut want = new.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        for &depth in WINDOW_DEPTHS {
            let opts = PipelineOptions { depth: depth.unwrap_or(usize::MAX), retry };
            let (mut client_ep, mut server_ep) = Endpoint::pair();
            let out = std::thread::scope(|s| {
                s.spawn(|| serve_collection(&mut server_ep, &new, &cfg, retry));
                let out = sync_collection_client(&mut client_ep, &old, &cfg, &opts);
                drop(client_ep);
                out.expect("wire sync succeeds")
            });
            assert_eq!(out.files, want, "{name}: reconstruction must be exact");
            let window = depth.map_or("default".to_owned(), |d| format!("depth {d}"));
            let mut cells = vec![out.traffic.roundtrips.to_string(), kb(out.traffic.total_bytes())];
            cells.extend(
                links.iter().map(|l| format!("{:.1}s", l.estimate(&out.traffic).as_secs_f64())),
            );
            rows.push(ReportRow { label: format!("{name}, {window}"), cells });
        }
    }
    notes.push(format!("corpus scale {scale} (web at {})", scale / 5.0));
    notes.push(format!(
        "default = no cap on files, {} MiB of file content in flight",
        msync_core::WINDOW_BUDGET_BYTES >> 20
    ));
    Report {
        id: "window".into(),
        title: "pipeline window on the wire: roundtrips, bytes and modelled link time".into(),
        columns: ["corpus, window", "rt", "wire KB", "dial-up", "DSL", "cable", "T1"]
            .map(String::from)
            .to_vec(),
        rows,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shape tests run at very small scale; the full-scale shapes are
    // asserted by `exp` runs recorded in EXPERIMENTS.md.

    #[test]
    fn fig6_1_beats_rsync_and_has_interior_structure() {
        let r = fig6_basic("gcc", 0.02);
        assert_eq!(r.rows.len(), MIN_BLOCK_SWEEP.len() + 3);
        let total = |row: &ReportRow| row.cells[3].parse::<f64>().unwrap();
        let best_msync =
            r.rows[..MIN_BLOCK_SWEEP.len()].iter().map(&total).fold(f64::MAX, f64::min);
        let rsync_default = total(&r.rows[MIN_BLOCK_SWEEP.len()]);
        let zdelta = total(&r.rows[MIN_BLOCK_SWEEP.len() + 2]);
        assert!(best_msync < rsync_default, "msync {best_msync} vs rsync {rsync_default}");
        assert!(zdelta <= best_msync);
    }

    #[test]
    fn table6_2_msync_beats_rsync_on_web() {
        let r = table6_2(0.005); // 50 pages
        let row = |label: &str| {
            r.rows
                .iter()
                .find(|row| row.label.starts_with(label))
                .unwrap_or_else(|| panic!("row {label}"))
                .cells
                .iter()
                .map(|c| c.parse::<f64>().unwrap())
                .collect::<Vec<_>>()
        };
        let msync = row("msync");
        let rsync = row("rsync (700B)");
        let raw = row("uncompressed");
        for day in 0..3 {
            assert!(
                msync[day] < rsync[day],
                "day {day}: msync {} rsync {}",
                msync[day],
                rsync[day]
            );
            assert!(msync[day] < raw[day] / 4.0);
        }
        // Cost grows with the interval but sublinearly.
        assert!(msync[2] > msync[0]);
        assert!(msync[2] < msync[0] * 7.0);
    }

    #[test]
    fn recon_settles_a_thousand_pages_on_weak_roster_hashes() {
        // The paper's d ≈ n end of changed-file identification, at
        // `exp recon`'s own scale: 1 000 pages of 4 KB with 0, 1, 8 and
        // 64 of them changed. Whole 16-byte fingerprints cost 25.5 KB
        // with nothing changed; weak ones and one group check must stay
        // under 15 KB, paying one roundtrip for the verdict only when
        // there is nothing else to open.
        let r = recon(0.1);
        assert!(r.title.contains("over 1000 files"), "{}", r.title);
        let cells: Vec<(f64, f64, u32)> = r
            .rows
            .iter()
            .map(|row| {
                let kb = |i: usize| row.cells[i].parse::<f64>().unwrap();
                (kb(0), kb(1), row.cells[2].parse().unwrap())
            })
            .collect();
        assert!(cells[0].1 <= 15.0, "0 changed costs {} KB", cells[0].1);
        for (&(setup, ..), changed) in cells.iter().zip([0, 1, 8, 64]) {
            assert!(setup <= 15.0, "{changed} changed: {setup} KB of setup");
        }
        let rt: Vec<u32> = cells.iter().map(|c| c.2).collect();
        assert_eq!(rt[0], 2, "nothing to open: the opener, then the verdict");
        for (got, before) in rt[1..].iter().zip([11, 18, 18]) {
            assert!(*got <= before, "roundtrips {rt:?}: the verdict must ride on the first reply");
        }
    }

    #[test]
    fn window_roundtrips_fall_as_the_cap_lifts() {
        let r = window(0.02);
        assert_eq!(r.rows.len(), 3 * WINDOW_DEPTHS.len());
        for corpus in r.rows.chunks(WINDOW_DEPTHS.len()) {
            let rt: Vec<u32> = corpus.iter().map(|row| row.cells[0].parse().unwrap()).collect();
            assert!(rt.windows(2).all(|w| w[0] >= w[1]), "{}: {rt:?}", corpus[0].label);
            assert!(rt[0] > 4 * rt[3], "{}: {rt:?}", corpus[0].label);
        }
        // A corpus that fits the byte budget runs the same schedule with
        // no cap on files as with a cap of all of them: the in-process
        // pump at the default window charges what the channel does at
        // depth = files, byte for byte.
        use msync_core::{serve_collection, sync_collection, sync_collection_client};
        let (cfg, retry) = (ProtocolConfig::default(), msync_protocol::RetryPolicy::default());
        let gcc = release_pair(&gcc_like(0.02));
        let (old, new) = (entries(gcc.pair(0, 1).0), entries(gcc.pair(0, 1).1));
        let (mut client_ep, mut server_ep) = msync_protocol::Endpoint::pair();
        let deep = std::thread::scope(|s| {
            s.spawn(|| serve_collection(&mut server_ep, &new, &cfg, retry));
            let opts = msync_core::PipelineOptions { depth: new.len(), retry };
            let out = sync_collection_client(&mut client_ep, &old, &cfg, &opts);
            drop(client_ep);
            out.unwrap()
        });
        assert_eq!(sync_collection(&old, &new, &cfg).unwrap().traffic, deep.traffic);
    }

    #[test]
    fn report_renders() {
        let r = fig6_4(0.01);
        let text = r.render();
        assert!(text.contains("fig6-4"));
        assert!(text.lines().count() > 6);
    }
}
