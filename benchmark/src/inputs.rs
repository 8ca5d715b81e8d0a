//! Workloads and their seeded inputs. The program under test only ever
//! sees the bytes generated here, never the seed.

use msync::core::{FileEntry, ProtocolConfig};
use msync::corpus::text::{html_page, lognormal_size, source_file};
use msync::corpus::{
    apply_edits, emacs_like, gcc_like, web_params, EditProfile, ReleaseParams, Rng, WebParams,
};

/// Seed used when the command line gives none.
pub const DEFAULT_SEED: u64 = 1;

/// Size of the one file of `bigfile_local`. A sync of it rebuilds a
/// half-million-entry index at each of the nine global levels and takes
/// about two seconds, so a run still gathers ten of them.
pub const BIGFILE_BYTES: usize = 512 << 10;

/// The edit process of `bigfile_local`: the minor-release profile at the
/// density a 16 KB source file gets (2.5 clusters), scaled to the file, as
/// a whole number so that every seed edits equally often, and without the
/// rare block move, which alone would decide a seed's cost.
pub fn bigfile_edits() -> EditProfile {
    EditProfile { clusters: 64.0, move_prob: 0.0, ..EditProfile::minor_release() }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReleaseLocal,
    BigfileLocal,
    WebDaemon,
    TinySessions,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Self::ReleaseLocal, Self::BigfileLocal, Self::WebDaemon, Self::TinySessions];

    pub fn name(self) -> &'static str {
        match self {
            Self::ReleaseLocal => "release_local",
            Self::BigfileLocal => "bigfile_local",
            Self::WebDaemon => "web_daemon",
            Self::TinySessions => "tiny_sessions",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the benchmark has this workload, in one line (the `why` of
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Self::ReleaseLocal => {
                "gcc+emacs release pairs, 231 files of ~16 KB, light to heavy edits, synced in \
                 process: hashing, index, verify and delta only; the workload for byte claims and \
                 map-construction CPU"
            }
            Self::BigfileLocal => {
                "one 512 KiB file with 64 small edits, synced in process: one huge index rebuilt \
                 per level, cost follows file size, not edit count; the workload where peak \
                 memory is the story"
            }
            Self::WebDaemon => {
                "200-page crawl, 16 % of pages touched, one client per core against an in-process \
                 daemon over loopback, not a real link: handshake, roster, pipelining, framing, \
                 mux and warm hash cache"
            }
            Self::TinySessions => {
                "4 files of 600 B, all changed, one client per core against the daemon over \
                 loopback, not a real link: per-session fixed cost only; bypasses every hashing, \
                 index and delta optimisation"
            }
        }
    }

    /// Position in [`Workload::ALL`], for per-workload tables.
    pub fn index(self) -> usize {
        self as usize
    }

    pub fn is_daemon(self) -> bool {
        matches!(self, Self::WebDaemon | Self::TinySessions)
    }

    /// The configuration the client proposes. The tiny corpus uses the
    /// 256-byte start block of `tests/daemon_bench.rs`: its files are
    /// smaller than one default block.
    pub fn config(self) -> ProtocolConfig {
        match self {
            Self::TinySessions => ProtocolConfig { start_block: 256, ..ProtocolConfig::default() },
            _ => ProtocolConfig::default(),
        }
    }
}

/// The client's outdated collection and the server's current one, both
/// sorted by name (the order `sync_collection` reports in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inputs {
    pub old: Vec<FileEntry>,
    pub new: Vec<FileEntry>,
}

impl Inputs {
    /// Bytes of server-side content: the numerator of every MB/s.
    pub fn content_bytes(&self) -> u64 {
        self.new.iter().map(|f| f.data.len() as u64).sum()
    }

    /// One line on the size of both sides, for the run's log.
    pub fn summary(&self) -> String {
        let bytes = |files: &[FileEntry]| files.iter().map(|f| f.data.len()).sum::<usize>();
        let unchanged = self.pairs().iter().filter(|(new, old)| new.data == *old).count();
        format!(
            "client has {} files ({} B), server has {} files ({} B), {unchanged} of them unchanged",
            self.old.len(),
            bytes(&self.old),
            self.new.len(),
            bytes(&self.new)
        )
    }

    /// Every server file with the client's file of the same name (empty
    /// when the client has none): the pairs the layers are replayed on.
    pub fn pairs(&self) -> Vec<(&FileEntry, &[u8])> {
        self.new
            .iter()
            .map(|n| {
                let old = self.old.binary_search_by(|o| o.name.cmp(&n.name)).ok();
                (n, old.map_or(&[][..], |i| self.old[i].data.as_slice()))
            })
            .collect()
    }
}

/// The statistics of a collection and of its next version.
///
/// `msync::corpus::release_pair` and `web_collection` draw file sizes,
/// the set of touched files and the file contents from one seeded stream,
/// so a seed moves the collection's total size by a fifth and its sync
/// time by more: a comparison across seeds would mostly see that. Here the
/// *shape* (sizes, which files change, vanish or appear) is a property of
/// the workload, drawn once from the generator's own published seed,
/// and the benchmark's seed decides every *byte*: contents and edits.
struct Shape {
    prefix: &'static str,
    /// Seed of the size and fate stream (the corpus generator's own).
    shape_seed: u64,
    files: usize,
    median_size: usize,
    /// Parameters of `lognormal_size` as the generator calls it.
    sigma: f64,
    min_size: usize,
    max_size: usize,
    /// Probability that a file is removed, edited, replaced by a new one
    /// at the same name; and files added, as a fraction of `files`.
    removed: f64,
    edited: f64,
    rewritten: f64,
    added: f64,
    profile: EditProfile,
    /// Contents of a fresh file of about the given size.
    fresh: fn(&mut Rng, usize) -> Vec<u8>,
}

impl Shape {
    fn release(prefix: &'static str, p: &ReleaseParams) -> Self {
        Shape {
            prefix,
            shape_seed: p.seed,
            files: p.files,
            median_size: p.median_size,
            sigma: 1.1,
            min_size: 400,
            max_size: 400_000,
            removed: p.remove_fraction,
            edited: p.change_fraction,
            rewritten: 0.0,
            added: p.add_fraction,
            profile: p.profile,
            fresh: source_file,
        }
    }

    fn web(p: &WebParams) -> Self {
        Shape {
            prefix: "www/",
            shape_seed: p.seed,
            files: p.pages,
            median_size: p.median_size,
            sigma: 0.9,
            min_size: 600,
            max_size: 200_000,
            removed: 0.0,
            edited: p.daily_change_prob - p.rewrite_prob,
            rewritten: p.rewrite_prob,
            added: 0.0,
            profile: EditProfile::web_touch(),
            fresh: |rng, size| html_page(rng, size, 1),
        }
    }

    /// Append this collection's old and new version to `old` and `new`.
    fn generate(&self, seed: u64, old: &mut Vec<FileEntry>, new: &mut Vec<FileEntry>) {
        let mut shape = Rng::seed_from_u64(self.shape_seed);
        let mut bytes =
            Rng::seed_from_u64(self.shape_seed ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut size = || {
            lognormal_size(&mut shape, self.median_size, self.sigma, self.min_size, self.max_size)
        };
        let sizes: Vec<usize> = (0..self.files).map(|_| size()).collect();
        let added: Vec<usize> =
            (0..(self.files as f64 * self.added) as usize).map(|_| size()).collect();
        for (i, size) in sizes.into_iter().enumerate() {
            let name = format!("{}file_{i:04}", self.prefix);
            let data = (self.fresh)(&mut bytes, size);
            let fate = shape.gen_f64();
            if fate >= self.removed {
                let fate = fate - self.removed;
                let next = if fate < self.edited {
                    apply_edits(&data, &self.profile, &mut bytes)
                } else if fate < self.edited + self.rewritten {
                    (self.fresh)(&mut bytes, size)
                } else {
                    data.clone()
                };
                new.push(FileEntry::new(name.clone(), next));
            }
            old.push(FileEntry::new(name, data));
        }
        for (i, size) in added.into_iter().enumerate() {
            new.push(FileEntry::new(
                format!("{}new_{i:04}", self.prefix),
                (self.fresh)(&mut bytes, size),
            ));
        }
    }
}

fn sorted(mut files: Vec<FileEntry>) -> Vec<FileEntry> {
    files.sort_by(|a, b| a.name.cmp(&b.name));
    files
}

/// Generate the inputs of `workload`. The same seed gives the same bytes.
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    let (mut old, mut new) = (Vec::new(), Vec::new());
    match workload {
        Workload::ReleaseLocal => {
            Shape::release("gcc/", &gcc_like(0.1)).generate(seed, &mut old, &mut new);
            Shape::release("emacs/", &emacs_like(0.1)).generate(seed, &mut old, &mut new);
        }
        Workload::BigfileLocal => {
            let mut rng = Rng::seed_from_u64(0xB16_F11E ^ seed);
            let data = source_file(&mut rng, BIGFILE_BYTES);
            new.push(FileEntry::new("big.c", apply_edits(&data, &bigfile_edits(), &mut rng)));
            old.push(FileEntry::new("big.c", data));
        }
        Workload::WebDaemon => Shape::web(&web_params(0.02)).generate(seed, &mut old, &mut new),
        Workload::TinySessions => {
            // The corpus of tests/daemon_bench.rs, with the seed in the
            // text so that seeds differ.
            let side = |tag: &'static str| {
                (0..4).map(move |i| {
                    let line = format!("{tag} {seed:x} page {i} ");
                    let body: Vec<u8> = line.bytes().cycle().take(600).collect();
                    FileEntry::new(format!("page{i}.html"), body)
                })
            };
            old.extend(side("old"));
            new.extend(side("new"));
        }
    }
    Inputs { old: sorted(old), new: sorted(new) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_bytes_and_another_seed_does_not() {
        for w in Workload::ALL {
            // The two big corpora are covered by the web crawl's and the
            // tiny corpus's generators; keep the test quick.
            if matches!(w, Workload::ReleaseLocal | Workload::BigfileLocal) {
                continue;
            }
            assert_eq!(generate(w, 7), generate(w, 7), "{}", w.name());
            assert_ne!(generate(w, 7), generate(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn release_corpus_is_seeded_and_sorted() {
        let a = generate(Workload::ReleaseLocal, 3);
        assert_eq!(a, generate(Workload::ReleaseLocal, 3));
        assert_ne!(a.new, generate(Workload::ReleaseLocal, 4).new);
        assert!(a.new.windows(2).all(|w| w[0].name < w[1].name));
        assert!(a.old.iter().any(|f| f.name.starts_with("gcc/")));
        assert!(a.old.iter().any(|f| f.name.starts_with("emacs/")));
    }

    #[test]
    fn pairs_give_created_files_an_empty_old_side() {
        let inputs = Inputs {
            old: vec![FileEntry::new("a", b"old a".to_vec())],
            new: vec![FileEntry::new("a", b"new a".to_vec()), FileEntry::new("b", b"b".to_vec())],
        };
        let pairs = inputs.pairs();
        assert_eq!(pairs[0].1, b"old a");
        assert!(pairs[1].1.is_empty());
        assert_eq!(inputs.content_bytes(), 6);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(Workload::ALL[w.index()], w);
        }
        assert_eq!(Workload::from_name("nosuch"), None);
    }
}
