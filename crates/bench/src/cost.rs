//! Wire-cost measurement of every method the paper compares.

use msync_core::{roster_frame_bytes, sync_collection, FileEntry, FileRef, ProtocolConfig};
use msync_corpus::Collection;
use msync_protocol::Phase;

/// Byte cost of synchronizing one collection pair, split the way the
/// paper's stacked bars are (map-phase traffic per direction, the final
/// delta, and setup fingerprints).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Server→client map-construction bytes (candidate hashes, results).
    pub map_s2c: u64,
    /// Client→server map-construction bytes (bitmaps, verification).
    pub map_c2s: u64,
    /// Delta-phase bytes (rsync: the token stream; msync: the delta).
    pub delta: u64,
    /// Setup bytes (fingerprints, name lists, rsync signatures' header).
    pub setup: u64,
    /// Batched roundtrip count.
    pub roundtrips: u32,
}

impl Cost {
    /// Total bytes — the number every figure plots.
    pub fn total(&self) -> u64 {
        self.map_s2c + self.map_c2s + self.delta + self.setup
    }

    /// Total in KB (the paper's unit), rounded.
    pub fn kb(&self) -> u64 {
        self.total().div_ceil(1024)
    }
}

/// A synchronization/transfer method from the paper's comparisons.
#[derive(Debug, Clone)]
pub enum Method {
    /// Send every file raw.
    Uncompressed,
    /// Send every changed file gzip-compressed (no old version used).
    Gzip,
    /// rsync with a fixed block size (`None` = the 700-byte default).
    Rsync(Option<usize>),
    /// Idealized rsync with the optimal per-file block size.
    RsyncOptimal,
    /// The multi-round protocol with the given configuration.
    Msync(ProtocolConfig),
    /// zdelta-style delta compression with both files local (lower
    /// bound).
    Zdelta,
    /// vcdiff-style delta compression with both files local.
    Vcdiff,
    /// LBFS-style content-defined-chunking sync (two roundtrips).
    Cdc(msync_cdc::ChunkParams),
}

impl Method {
    /// Short label for table rows.
    pub fn label(&self) -> String {
        match self {
            Method::Uncompressed => "uncompressed".into(),
            Method::Gzip => "gzip".into(),
            Method::Rsync(None) => "rsync (700B)".into(),
            Method::Rsync(Some(b)) => format!("rsync ({b}B)"),
            Method::RsyncOptimal => "rsync (optimal)".into(),
            Method::Msync(_) => "msync".into(),
            Method::Zdelta => "zdelta (bound)".into(),
            Method::Vcdiff => "vcdiff".into(),
            Method::Cdc(_) => "cdc (lbfs-style)".into(),
        }
    }
}

fn refs(c: &Collection) -> Vec<FileRef<'_>> {
    c.files().iter().map(|f| FileRef { name: &f.name, data: &f.data }).collect()
}

fn entries(c: &Collection) -> Vec<FileEntry> {
    c.files().iter().map(|f| FileEntry::new(f.name.clone(), f.data.clone())).collect()
}

/// Measure `method` updating `old` to `new`.
///
/// For the local delta compressors (zdelta/vcdiff) the "cost" is the sum
/// of delta sizes for changed files plus raw transfer of new files — the
/// lower-bound accounting the paper uses. For gzip/uncompressed,
/// unchanged files are still skipped (any such tool would be driven by a
/// file-level change detector; the paper's Table 6.2 assumes the same).
///
/// Every method is charged the server's roster: whatever moves the
/// bytes, the client first has to learn which files exist and which of
/// them changed, and the roster's weak fingerprints, confirmed by one
/// group check, are what skips an unchanged file. msync's wire traffic
/// already contains the roster exchange; the baselines, measured file
/// by file, get the same bytes added here. Roundtrips stay per-method.
pub fn measure(old: &Collection, new: &Collection, method: &Method) -> Cost {
    let mut cost = measure_files(old, new, method);
    if !matches!(method, Method::Msync(_)) {
        cost.setup += roster_frame_bytes(&refs(old), &refs(new));
    }
    cost
}

fn measure_files(old: &Collection, new: &Collection, method: &Method) -> Cost {
    match method {
        Method::Msync(cfg) => {
            let out = sync_collection(&entries(old), &entries(new), cfg)
                .expect("collection sync succeeds");
            for (got, want) in out.files.iter().zip(new.files()) {
                assert_eq!(got.data, want.data, "reconstruction mismatch for {}", want.name);
            }
            let t = &out.traffic;
            Cost {
                map_s2c: t.s2c(Phase::Map),
                map_c2s: t.c2s(Phase::Map),
                delta: t.s2c(Phase::Delta) + t.c2s(Phase::Delta),
                setup: t.s2c(Phase::Setup) + t.c2s(Phase::Setup),
                roundtrips: t.roundtrips,
            }
        }
        Method::Rsync(bs) => per_file_rsync(old, new, |o, n| {
            msync_rsync::sync(o, n, bs.unwrap_or(msync_rsync::DEFAULT_BLOCK_SIZE))
        }),
        Method::RsyncOptimal => {
            per_file_rsync(old, new, |o, n| msync_rsync::optimal::sync_optimal(o, n).0)
        }
        Method::Zdelta => {
            delta_cost(old, new, |o, n| msync_compress::delta_encode(o, n).len() as u64)
        }
        Method::Vcdiff => {
            delta_cost(old, new, |o, n| msync_compress::vcdiff_encode(o, n).len() as u64)
        }
        Method::Cdc(params) => {
            let mut cost = Cost::default();
            let empty: Vec<u8> = Vec::new();
            for nf in new.files() {
                let old_data = old.get(&nf.name).map_or(empty.as_slice(), |f| f.data.as_slice());
                let out = msync_cdc::sync(old_data, &nf.data, params);
                assert_eq!(out.reconstructed, nf.data, "cdc mismatch for {}", nf.name);
                let t = &out.stats;
                cost.map_s2c += t.s2c(Phase::Map);
                cost.map_c2s += t.c2s(Phase::Map);
                cost.delta += t.s2c(Phase::Delta) + t.c2s(Phase::Delta);
                cost.setup += t.s2c(Phase::Setup) + t.c2s(Phase::Setup);
                cost.roundtrips = cost.roundtrips.max(t.roundtrips);
            }
            cost
        }
        Method::Gzip => delta_cost(old, new, |_, n| msync_compress::compress(n).len() as u64),
        Method::Uncompressed => delta_cost(old, new, |_, n| n.len() as u64),
    }
}

fn per_file_rsync(
    old: &Collection,
    new: &Collection,
    run: impl Fn(&[u8], &[u8]) -> msync_rsync::RsyncOutcome,
) -> Cost {
    let mut cost = Cost::default();
    let empty: Vec<u8> = Vec::new();
    for nf in new.files() {
        let old_data = old.get(&nf.name).map_or(empty.as_slice(), |f| f.data.as_slice());
        let out = run(old_data, &nf.data);
        assert_eq!(out.reconstructed, nf.data, "rsync mismatch for {}", nf.name);
        let t = &out.stats;
        cost.map_s2c += t.s2c(Phase::Map);
        cost.map_c2s += t.c2s(Phase::Map);
        cost.delta += t.s2c(Phase::Delta) + t.c2s(Phase::Delta);
        cost.setup += t.s2c(Phase::Setup) + t.c2s(Phase::Setup);
        cost.roundtrips = cost.roundtrips.max(t.roundtrips);
    }
    cost
}

fn delta_cost(old: &Collection, new: &Collection, size: impl Fn(&[u8], &[u8]) -> u64) -> Cost {
    let mut cost = Cost::default();
    let empty: Vec<u8> = Vec::new();
    for nf in new.files() {
        let old_data = old.get(&nf.name).map(|f| f.data.as_slice());
        // The roster's fingerprint skips an unchanged file.
        if old_data == Some(nf.data.as_slice()) {
            continue;
        }
        cost.delta += size(old_data.unwrap_or(&empty), &nf.data);
    }
    cost.roundtrips = 1;
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use msync_corpus::{gcc_like, release_pair};

    #[test]
    fn method_ordering_holds_on_tiny_corpus() {
        let pair = release_pair(&gcc_like(0.01)); // 10 files
        let (old, new) = pair.pair(0, 1);
        let uncompressed = measure(old, new, &Method::Uncompressed).total();
        let gzip = measure(old, new, &Method::Gzip).total();
        let rsync = measure(old, new, &Method::Rsync(None)).total();
        let msync = measure(old, new, &Method::Msync(ProtocolConfig::default())).total();
        let zdelta = measure(old, new, &Method::Zdelta).total();
        assert!(gzip < uncompressed);
        assert!(rsync < gzip, "rsync {rsync} vs gzip {gzip}");
        assert!(msync < rsync, "msync {msync} vs rsync {rsync}");
        assert!(zdelta < msync, "zdelta {zdelta} vs msync {msync}");
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<String> = [
            Method::Uncompressed,
            Method::Gzip,
            Method::Rsync(None),
            Method::Rsync(Some(512)),
            Method::RsyncOptimal,
            Method::Zdelta,
            Method::Vcdiff,
        ]
        .iter()
        .map(Method::label)
        .collect();
        let set: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(set.len(), labels.len());
    }
}
