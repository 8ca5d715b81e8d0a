//! Scenario: running the protocol over a real channel with the server
//! on its own thread — the deployment shape of the library (the
//! in-process `sync_file` driver is for experiments; a real tool talks
//! over a socket-like transport, and on the wire a single file is a
//! one-entry collection).
//!
//! Also demonstrates the [`msync::protocol::LinkModel`] to answer the
//! operational question: *on which links does the multi-round protocol
//! win over rsync?*
//!
//! ```text
//! cargo run --release --example custom_transport
//! ```

use msync::core::{sync_collection_channel, ChannelOptions, FileEntry, ProtocolConfig};
use msync::protocol::LinkModel;
use msync::trace::Recorder;
use std::time::Duration;

fn main() {
    let old: Vec<u8> = b"status-report: all systems nominal; sensors 1..64 online.\n"
        .iter()
        .copied()
        .cycle()
        .take(80_000)
        .collect();
    let mut new = old.clone();
    new.splice(40_000..40_000, b"ALERT: sensor 17 offline since 03:12 UTC\n".iter().copied());

    // Client and server talk through a real duplex channel; the server
    // runs on its own thread. Byte accounting comes from the channel.
    let file = |data: &[u8]| [FileEntry::new("status.log", data)];
    let outcome = sync_collection_channel(
        &file(&old),
        &file(&new),
        &ProtocolConfig::default(),
        &ChannelOptions::default(),
        &Recorder::off(),
    )
    .expect("sync succeeds");
    assert_eq!(outcome.files[0].data, new);
    println!(
        "channel run: {} bytes, {} roundtrips (file {} KiB)",
        outcome.traffic.total_bytes(),
        outcome.traffic.roundtrips,
        new.len() / 1024
    );

    // The trade-off the paper calls out: msync spends roundtrips to save
    // bytes. Where is the crossover vs rsync as latency grows?
    let rsync = msync::rsync::sync(&old, &new, 700);
    println!("\nrsync: {} bytes, 1 roundtrip", rsync.stats.total_bytes());
    println!(
        "\nestimated single-file times by round-trip latency (56 kbit/s up, 256 kbit/s down):"
    );
    println!("{:>10}  {:>10}  {:>10}  winner", "RTT", "msync", "rsync");
    for rtt_ms in [5u64, 20, 50, 100, 200, 500] {
        let link =
            LinkModel { up_bps: 56_000.0, down_bps: 256_000.0, rtt: Duration::from_millis(rtt_ms) };
        let tm = link.estimate(&outcome.traffic);
        let tr = link.estimate(&rsync.stats);
        println!(
            "{:>8}ms  {:>9.2}s  {:>9.2}s  {}",
            rtt_ms,
            tm.as_secs_f64(),
            tr.as_secs_f64(),
            if tm < tr { "msync" } else { "rsync" },
        );
    }
    println!("\nFor single files on high-latency links, rsync's one roundtrip wins;");
    println!("for collections, msync batches its rounds across all files (see the");
    println!("web_mirror example), which is the regime the paper targets.");
}
