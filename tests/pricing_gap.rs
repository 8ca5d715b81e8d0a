//! The pricing gap (ROADMAP item 2's "land a differential test first").
//!
//! Every table in EXPERIMENTS.md is priced by the lockstep driver
//! (`sync_collection`: a computed name exchange plus one framed part
//! per file per message), while the wire (`sync_collection_client` /
//! `serve_collection`, the machines the daemon runs) batches all files
//! of a round into one ARQ message and exchanges full rosters. This
//! test runs both on the paper's three corpora and pins how far apart
//! they are, so the tables cannot be re-priced through the wire — or
//! the wire changed — without these numbers moving in the same commit.
//! EXPERIMENTS.md ("Pricing gap") has the table and its two causes.

use msync::core::{
    name_exchange_bytes, serve_collection, sync_collection, sync_collection_channel,
    sync_collection_client, ChannelOptions, CollectionOutcome, FileEntry, PipelineOptions,
    ProtocolConfig,
};
use msync::corpus::{emacs_like, gcc_like, release_pair, web_collection, web_params, Collection};
use msync::protocol::{Endpoint, Phase, RetryPolicy, TrafficStats};
use msync::trace::Recorder;
use std::time::Duration;

fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

/// A clean link never times out unless the test machine stalls; a long
/// deadline keeps a stall from adding a retransmission to the bytes.
fn patient() -> RetryPolicy {
    RetryPolicy { timeout: Duration::from_secs(30), ..RetryPolicy::default() }
}

/// The wire under an explicit cap on files in flight
/// (`sync_collection_channel` always runs at the default: no cap, the
/// byte budget alone).
fn wire_at_depth(
    old: &[FileEntry],
    new: &[FileEntry],
    cfg: &ProtocolConfig,
    depth: usize,
) -> CollectionOutcome {
    let (mut client_ep, mut server_ep) = Endpoint::pair();
    std::thread::scope(|s| {
        s.spawn(|| serve_collection(&mut server_ep, new, cfg, patient()));
        let opts = PipelineOptions { depth, retry: patient() };
        let out = sync_collection_client(&mut client_ep, old, cfg, &opts).expect("wire sync");
        drop(client_ep);
        out
    })
}

fn print_row(label: &str, t: &TrafficStats) {
    let both = |p: Phase| format!("{:>7} + {:<7}", t.c2s(p), t.s2c(p));
    let (setup, map, delta) = (both(Phase::Setup), both(Phase::Map), both(Phase::Delta));
    println!("  {label:<20} {setup} {map} {delta} {:>8} {:>4}", t.total_bytes(), t.roundtrips);
}

#[test]
fn wire_and_lockstep_prices_stay_the_pinned_distance_apart() {
    let cfg = ProtocolConfig::default();
    let (gcc, emacs) = (release_pair(&gcc_like(0.1)), release_pair(&emacs_like(0.1)));
    let web = web_collection(&web_params(0.02), 1);
    // (wire bytes at depth ≥ files, lockstep bytes) when this test landed.
    for (name, (old, new), (was_wire, was_lockstep)) in [
        ("gcc", gcc.pair(0, 1), (25_681u64, 26_680u64)),
        ("emacs", emacs.pair(0, 1), (124_972, 128_927)),
        ("web", web.pair(0, 1), (24_339, 22_517)),
    ] {
        let (old, new) = (entries(old), entries(new));
        let lockstep = sync_collection(&old, &new, &cfg).expect("lockstep sync");
        let deep = wire_at_depth(&old, &new, &cfg, new.len());
        let opts = ChannelOptions { retry: patient(), ..ChannelOptions::default() };
        let default = sync_collection_channel(&old, &new, &cfg, &opts, &Recorder::off())
            .expect("wire sync at the default window");
        let mut per_file = TrafficStats::new();
        for (_, stats) in &deep.per_file {
            per_file.merge(&stats.traffic);
        }

        println!("{name}: {} files (bytes c→s + s→c per phase)", new.len());
        println!(
            "  {:<20} {:^17} {:^17} {:^17} {:>8} {:>4}",
            "", "setup", "map", "delta", "total", "rt"
        );
        print_row("lockstep", &lockstep.traffic);
        print_row("wire, depth ≥ files", &deep.traffic);
        print_row("wire, default", &default.traffic);
        print_row("wire, per_file sum", &per_file);
        let old_names: Vec<&str> = old.iter().map(|f| f.name.as_str()).collect();
        let new_names: Vec<&str> = new.iter().map(|f| f.name.as_str()).collect();
        let (c2s, s2c) = name_exchange_bytes(&old_names, &new_names);
        println!("  of lockstep setup, names: {c2s} + {s2c}");

        // Whatever it costs, every path reconstructs the same collection.
        let mut want = new.clone();
        want.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(lockstep.files, want, "{name}");
        assert_eq!(deep.files, want, "{name}");
        assert_eq!(default.files, want, "{name}");

        // With every file in one window the wire needs exactly the
        // roundtrips the lockstep model assumes (name exchange + the
        // longest session) — and the default window is that window:
        // each corpus fits the byte budget, so no cap on files is the
        // same schedule, byte for byte, as a cap of all of them.
        assert_eq!(deep.traffic.roundtrips, lockstep.traffic.roundtrips, "{name}");
        assert_eq!(default.traffic, deep.traffic, "{name}");
        assert_eq!(deep.traffic.retransmits, 0, "{name}");

        // Batch frames are all labelled `Phase::Map`, so the collection
        // total shows no delta bytes although the sessions sent one each.
        assert_eq!(deep.traffic.s2c(Phase::Delta), 0, "{name}");
        assert!(per_file.s2c(Phase::Delta) > 0, "{name}");
        assert!(lockstep.traffic.s2c(Phase::Delta) > 0, "{name}");

        // wire ÷ lockstep stays within ±1 % of the pinned ratio.
        let (wire, model) = (deep.traffic.total_bytes(), lockstep.traffic.total_bytes());
        let (ratio, was) = (wire as f64 / model as f64, was_wire as f64 / was_lockstep as f64);
        println!("  wire ÷ lockstep = {wire} / {model} = {ratio:.4} (pinned {was:.4})\n");
        assert!(
            (ratio / was - 1.0).abs() <= 0.01,
            "{name}: wire {wire} ÷ lockstep {model} = {ratio:.4}, pinned {was_wire} ÷ \
             {was_lockstep} = {was:.4}; if the move is intended, re-pin it here and in \
             EXPERIMENTS.md (\"Pricing gap\")"
        );
    }
}
