//! Correctness of every sync the benchmark makes: the client's result
//! must equal the server's bytes, and a failure is counted, named and
//! turned into a non-zero exit code.

use msync::core::FileEntry;

/// Mismatch messages kept for printing; later ones are only counted.
const MAX_MESSAGES: usize = 10;

/// Syncs attempted and failed in one run.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one sync; an `Err` names what was wrong with it.
    pub fn record(&mut self, sync: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = sync {
            self.fail(message);
        }
    }

    /// Count a failure that belongs to an already counted sync.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < MAX_MESSAGES {
            self.messages.push(message);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = MAX_MESSAGES.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

/// Compare the client's reconstructed collection with the server's, both
/// in name order. The error names the first file that differs.
pub fn compare_files(got: &[FileEntry], want: &[FileEntry]) -> Result<(), String> {
    for (g, w) in got.iter().zip(want) {
        if g.name != w.name {
            return Err(format!("expected file {:?}, client has {:?}", w.name, g.name));
        }
        if g.data != w.data {
            let at = g.data.iter().zip(&w.data).position(|(a, b)| a != b);
            let at = at.unwrap_or(g.data.len().min(w.data.len()));
            return Err(format!(
                "file {:?} differs from the server's at byte {at} (client {} B, server {} B)",
                w.name,
                g.data.len(),
                w.data.len()
            ));
        }
    }
    if got.len() != want.len() {
        return Err(format!("client has {} files, server has {}", got.len(), want.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::RunResult;

    fn files() -> Vec<FileEntry> {
        vec![FileEntry::new("a.c", b"alpha".to_vec()), FileEntry::new("b.c", b"beta".to_vec())]
    }

    #[test]
    fn identical_collections_pass() {
        let mut tally = Tally::default();
        tally.record(compare_files(&files(), &files()));
        assert!(tally.correct());
        assert_eq!((RunResult::new(&tally, Vec::new()).fail_share(), tally.exit_code()), (0.0, 0));
    }

    #[test]
    fn one_wrong_byte_raises_fail_share_and_the_exit_code() {
        let mut got = files();
        got[1].data[2] ^= 1;
        let mut tally = Tally::default();
        tally.record(compare_files(&files(), &files()));
        tally.record(compare_files(&got, &files()));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert_eq!(RunResult::new(&tally, Vec::new()).fail_share(), 0.5);
        assert_eq!(tally.exit_code(), 1);
        assert!(tally.messages[0].contains("\"b.c\"") && tally.messages[0].contains("byte 2"));
    }

    #[test]
    fn missing_extra_and_truncated_files_are_named() {
        let want = files();
        assert!(compare_files(&want[..1], &want).unwrap_err().contains("1 files"));
        let mut short = files();
        short[0].data.pop();
        assert!(compare_files(&short, &want).unwrap_err().contains("byte 4"));
        let mut renamed = files();
        renamed[0].name = "z.c".into();
        assert!(compare_files(&renamed, &want).unwrap_err().contains("\"a.c\""));
    }

    #[test]
    fn a_run_that_attempted_nothing_is_not_correct() {
        assert_eq!(Tally::default().exit_code(), 1);
    }

    #[test]
    fn merge_adds_counts_and_bounds_messages() {
        let mut a = Tally::default();
        for i in 0..8 {
            a.record(Err(format!("a{i}")));
        }
        let mut b = Tally::default();
        for i in 0..8 {
            b.record(Err(format!("b{i}")));
        }
        b.record(Ok(()));
        a.merge(b);
        assert_eq!((a.attempted, a.failed, a.messages.len()), (17, 16, MAX_MESSAGES));
    }
}
