//! The three evaluation data sets, as synthetic stand-ins.
//!
//! Substitution rationale (DESIGN.md §5): the paper's artifacts are real
//! gcc/emacs releases and a 2001 web crawl; synchronization cost depends
//! only on the corpus *statistics* — file count, size distribution,
//! fraction of files changed, and the edit process — all of which these
//! constructors reproduce and document. Every generator is deterministic
//! given its seed.

use crate::edits::{apply_edits, EditProfile};
use crate::rng::Rng;
use crate::text::{html_page, lognormal_size, source_file};
use crate::versioned::{Collection, VersionedCollection};

/// Parameters of a source-tree release pair.
#[derive(Debug, Clone, Copy)]
pub struct ReleaseParams {
    /// Number of files in the old release.
    pub files: usize,
    /// Median file size in bytes (sizes are log-normal around this).
    pub median_size: usize,
    /// Fraction of files touched by the release.
    pub change_fraction: f64,
    /// Edit process for touched files.
    pub profile: EditProfile,
    /// Fraction of files added in the new release.
    pub add_fraction: f64,
    /// Fraction of files removed in the new release.
    pub remove_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// gcc 2.7.0 → 2.7.1 stand-in: ~1000 files, ~27 MB, a *minor* release —
/// around half the files untouched and touched files edited lightly and
/// locally. `scale` shrinks the file count for quick runs (1.0 = full).
pub fn gcc_like(scale: f64) -> ReleaseParams {
    ReleaseParams {
        files: ((1002.0 * scale) as usize).max(2),
        median_size: 14_000, // log-normal with this median ≈ 27 KB mean
        change_fraction: 0.45,
        profile: EditProfile::minor_release(),
        add_fraction: 0.01,
        remove_fraction: 0.005,
        seed: 0xD00D_0001,
    }
}

/// emacs 19.28 → 19.29 stand-in: a *bigger* release — the paper's emacs
/// costs run ~5–8× its gcc costs — so more files touched, heavier and
/// more dispersed edits, more files added/removed.
pub fn emacs_like(scale: f64) -> ReleaseParams {
    ReleaseParams {
        files: ((1286.0 * scale) as usize).max(2),
        median_size: 12_000,
        change_fraction: 0.85,
        profile: EditProfile::major_release(),
        add_fraction: 0.04,
        remove_fraction: 0.02,
        seed: 0xD00D_0002,
    }
}

/// Build the (old, new) release pair.
pub fn release_pair(p: &ReleaseParams) -> VersionedCollection {
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut old = Collection::new();
    for i in 0..p.files {
        let size = lognormal_size(&mut rng, p.median_size, 1.1, 400, 400_000);
        old.push(format!("src/file_{i:04}.c"), source_file(&mut rng, size));
    }
    let mut new = Collection::new();
    for f in old.files() {
        if rng.gen_bool(p.remove_fraction) {
            continue; // file deleted in the new release
        }
        let data = if rng.gen_bool(p.change_fraction) {
            apply_edits(&f.data, &p.profile, &mut rng)
        } else {
            f.data.clone()
        };
        new.push(f.name.clone(), data);
    }
    let added = (p.files as f64 * p.add_fraction) as usize;
    for i in 0..added {
        let size = lognormal_size(&mut rng, p.median_size, 1.1, 400, 400_000);
        new.push(format!("src/new_{i:04}.c"), source_file(&mut rng, size));
    }
    VersionedCollection { versions: vec![old, new] }
}

/// Parameters of the web-collection churn model.
#[derive(Debug, Clone, Copy)]
pub struct WebParams {
    /// Number of pages (paper: 10,000).
    pub pages: usize,
    /// Median page size (paper: ~15 KB mean).
    pub median_size: usize,
    /// Probability a page changes on a given day ("some of the files are
    /// not updated at all between crawls, while others change only
    /// slightly").
    pub daily_change_prob: f64,
    /// Probability a changing page is fully rewritten.
    pub rewrite_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The paper's crawl: 10,000 random pages, base + snapshots 1, 2 and 7
/// days later. `scale` shrinks the page count for quick runs.
pub fn web_params(scale: f64) -> WebParams {
    WebParams {
        pages: ((10_000.0 * scale) as usize).max(2),
        median_size: 11_000, // log-normal median giving ≈15 KB mean
        daily_change_prob: 0.16,
        rewrite_prob: 0.012,
        seed: 0xFEED_2001,
    }
}

/// Build the base crawl plus snapshots after each of `days` consecutive
/// days of churn (`versions[0]` = base, `versions[k]` = day k).
pub fn web_collection(p: &WebParams, days: u32) -> VersionedCollection {
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut base = Collection::new();
    for i in 0..p.pages {
        let size = lognormal_size(&mut rng, p.median_size, 0.9, 600, 200_000);
        base.push(format!("www/page_{i:05}.html"), html_page(&mut rng, size, 0));
    }
    let mut versions = vec![base];
    for day in 1..=days {
        let prev = versions.last().expect("at least the base");
        let mut next = Collection::new();
        for f in prev.files() {
            let data = if rng.gen_bool(p.daily_change_prob) {
                if rng.gen_bool(p.rewrite_prob / p.daily_change_prob.max(1e-9)) {
                    // Full rewrite: a new page at the same URL.
                    let size = lognormal_size(&mut rng, p.median_size, 0.9, 600, 200_000);
                    html_page(&mut rng, size, day)
                } else {
                    apply_edits(&f.data, &EditProfile::web_touch(), &mut rng)
                }
            } else {
                f.data.clone()
            };
            next.push(f.name.clone(), data);
        }
        versions.push(next);
    }
    VersionedCollection { versions }
}

/// Parameters of the nightly-recrawl churn model: what a crawler's
/// output directory looks like night over night. Unlike the daily
/// [`web_collection`] drift (small in-place edits), a recrawl rewrites
/// a slice of pages wholesale — the crawler fetched a new copy — and
/// adds and drops a few URLs at the frontier.
#[derive(Debug, Clone, Copy)]
pub struct RecrawlParams {
    /// Number of pages in the base crawl.
    pub pages: usize,
    /// Median page size in bytes (sizes are log-normal around this).
    pub median_size: usize,
    /// Fraction of surviving pages fully rewritten each night (~10%).
    pub rewrite_fraction: f64,
    /// Fraction of pages newly discovered each night.
    pub add_fraction: f64,
    /// Fraction of pages that vanish each night.
    pub remove_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

/// The nightly-recrawl defaults: ~10% of pages rewritten per night,
/// about 1% added and 1% removed — the profile the daemon's registry
/// reload is built for (most files byte-identical across a swap, so a
/// shared hash cache stays warm). `scale` shrinks the page count.
pub fn recrawl_params(scale: f64) -> RecrawlParams {
    RecrawlParams {
        pages: ((10_000.0 * scale) as usize).max(2),
        median_size: 11_000,
        rewrite_fraction: 0.10,
        add_fraction: 0.012,
        remove_fraction: 0.010,
        seed: 0xFEED_2002,
    }
}

/// Build the base crawl plus one snapshot per night (`versions[0]` =
/// base, `versions[k]` = after night k). Deterministic per seed.
pub fn nightly_recrawl(p: &RecrawlParams, nights: u32) -> VersionedCollection {
    let mut rng = Rng::seed_from_u64(p.seed);
    let mut base = Collection::new();
    for i in 0..p.pages {
        let size = lognormal_size(&mut rng, p.median_size, 0.9, 600, 200_000);
        base.push(format!("crawl/page_{i:05}.html"), html_page(&mut rng, size, 0));
    }
    let mut versions = vec![base];
    for night in 1..=nights {
        let prev = versions.last().expect("at least the base");
        let mut next = Collection::new();
        for f in prev.files() {
            if rng.gen_bool(p.remove_fraction) {
                continue; // URL gone from tonight's crawl
            }
            let data = if rng.gen_bool(p.rewrite_fraction) {
                // The crawler fetched a fresh copy: a whole new page
                // at the same URL, not an edit of the old bytes.
                let size = lognormal_size(&mut rng, p.median_size, 0.9, 600, 200_000);
                html_page(&mut rng, size, night)
            } else {
                f.data.clone()
            };
            next.push(f.name.clone(), data);
        }
        let added = ((p.pages as f64) * p.add_fraction) as usize;
        for i in 0..added {
            let size = lognormal_size(&mut rng, p.median_size, 0.9, 600, 200_000);
            next.push(
                format!("crawl/night{night}_new_{i:04}.html"),
                html_page(&mut rng, size, night),
            );
        }
        versions.push(next);
    }
    VersionedCollection { versions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edits::novelty;

    #[test]
    fn gcc_like_statistics() {
        let pair = release_pair(&gcc_like(0.05)); // 50 files
        let (old, new) = (&pair.versions[0], &pair.versions[1]);
        assert_eq!(old.files().len(), 50);
        // Roughly half unchanged.
        let unchanged = new
            .files()
            .iter()
            .filter(|f| old.get(&f.name).is_some_and(|o| o.data == f.data))
            .count();
        let frac = unchanged as f64 / new.files().len() as f64;
        assert!((0.3..0.8).contains(&frac), "unchanged fraction {frac}");
    }

    #[test]
    fn emacs_like_changes_more_than_gcc() {
        let g = release_pair(&gcc_like(0.05));
        let e = release_pair(&emacs_like(0.05));
        let total_novelty = |vc: &VersionedCollection| -> f64 {
            let (old, new) = (&vc.versions[0], &vc.versions[1]);
            new.files()
                .iter()
                .filter_map(|f| old.get(&f.name).map(|o| novelty(&o.data, &f.data)))
                .sum::<f64>()
        };
        assert!(total_novelty(&e) > total_novelty(&g) * 2.0);
    }

    #[test]
    fn web_collection_mostly_stable_daily() {
        let vc = web_collection(&web_params(0.01), 2); // 100 pages, 2 days
        assert_eq!(vc.versions.len(), 3);
        let (d0, d1) = (&vc.versions[0], &vc.versions[1]);
        let unchanged =
            d1.files().iter().filter(|f| d0.get(&f.name).is_some_and(|o| o.data == f.data)).count();
        let frac = unchanged as f64 / d1.files().len() as f64;
        assert!(frac > 0.7, "daily unchanged fraction {frac}");
    }

    #[test]
    fn multi_day_drift_accumulates() {
        let vc = web_collection(&web_params(0.01), 7);
        let changed_after = |k: usize| {
            vc.versions[k]
                .files()
                .iter()
                .filter(|f| vc.versions[0].get(&f.name).is_some_and(|o| o.data != f.data))
                .count()
        };
        assert!(changed_after(7) > changed_after(1));
    }

    #[test]
    fn deterministic_datasets() {
        let a = release_pair(&gcc_like(0.02));
        let b = release_pair(&gcc_like(0.02));
        assert_eq!(a.versions[1].files(), b.versions[1].files());
    }

    #[test]
    fn nightly_recrawl_rewrites_about_a_tenth() {
        let vc = nightly_recrawl(&recrawl_params(0.05), 1); // 500 pages
        let (base, night) = (&vc.versions[0], &vc.versions[1]);
        let survivors: Vec<_> =
            night.files().iter().filter(|f| base.get(&f.name).is_some()).collect();
        let rewritten = survivors
            .iter()
            .filter(|f| base.get(&f.name).is_some_and(|o| o.data != f.data))
            .count();
        let frac = rewritten as f64 / survivors.len() as f64;
        assert!((0.05..0.18).contains(&frac), "rewrite fraction {frac}");
        // Rewrites are replacements, not edits: every changed survivor
        // is near-total novelty against its old bytes.
        for f in survivors.iter().filter(|f| base.get(&f.name).is_some_and(|o| o.data != f.data)) {
            let old = &base.get(&f.name).expect("survivor").data;
            assert!(novelty(old, &f.data) > 0.5, "{} barely changed", f.name);
        }
    }

    #[test]
    fn nightly_recrawl_adds_and_removes_a_few() {
        let vc = nightly_recrawl(&recrawl_params(0.05), 1); // 500 pages
        let (base, night) = (&vc.versions[0], &vc.versions[1]);
        let added = night.files().iter().filter(|f| base.get(&f.name).is_none()).count();
        let removed = base.files().iter().filter(|f| night.get(&f.name).is_none()).count();
        assert!((1..=25).contains(&added), "added {added}");
        assert!((1..=25).contains(&removed), "removed {removed}");
    }

    #[test]
    fn nightly_recrawl_is_deterministic_across_nights() {
        let a = nightly_recrawl(&recrawl_params(0.02), 3);
        let b = nightly_recrawl(&recrawl_params(0.02), 3);
        assert_eq!(a.versions.len(), 4);
        for (va, vb) in a.versions.iter().zip(&b.versions) {
            assert_eq!(va.files(), vb.files());
        }
    }
}
