//! Command line: the driver's one-workload form and the `run`, `trace`
//! and `repeat` commands built on it.

use crate::inputs::{Workload, DEFAULT_SEED};
use crate::{part, suite};

/// Seconds one workload measures when the command line gives none; the
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "\
usage: msync-benchmark --workload NAME --seed N --seconds S --trace 0|1
       msync-benchmark run    [--seed N] [--workload NAME] [--seconds S]
       msync-benchmark trace  [--seed N] [--workload NAME] [--seconds S]
       msync-benchmark repeat [--seed N] [--workload NAME] [--seconds S]

The first form runs one workload and prints one JSON object as its last
line. `run` runs every workload with tracing off and prints every
end-to-end metric; `trace` does the same with tracing on and prints the
per-layer metrics; `repeat` runs `run` twice in alternation and compares
the two. All measuring happens in fresh child processes.
workloads: release_local bigfile_local web_daemon tiny_sessions";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// One workload, one result line (the driver's form).
    One,
    Run,
    Trace,
    Repeat,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    pub command: Command,
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Measure in this process (what a run's child processes are told).
    pub part: bool,
}

pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        command: Command::One,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        part: false,
    };
    let mut args = args.iter().map(String::as_str).peekable();
    match args.peek().copied() {
        Some("run") => opts.command = Command::Run,
        Some("trace") => opts.command = Command::Trace,
        Some("repeat") => opts.command = Command::Repeat,
        _ => {}
    }
    if opts.command != Command::One {
        args.next();
    }
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag {
            "--workload" => opts.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad())?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" | "--part" if opts.command == Command::One => {
                let on = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
                *(if flag == "--part" { &mut opts.part } else { &mut opts.trace }) = on;
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if opts.command == Command::One && opts.workload.is_none() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

/// Run the command line; returns the process's exit code.
pub fn main(args: &[String]) -> i32 {
    let opts = match parse(args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("msync-benchmark: {message}\n{USAGE}");
            return 2;
        }
    };
    let done = match (opts.command, opts.workload) {
        (Command::One, Some(workload)) if opts.part => part::run_and_print(workload, &opts),
        (Command::One, Some(workload)) => suite::one(workload, &opts),
        (Command::One, None) => Err("--workload is required".to_owned()),
        (Command::Run, _) => suite::run(&opts, false),
        (Command::Trace, _) => suite::run(&opts, true),
        (Command::Repeat, _) => suite::repeat(&opts),
    };
    done.unwrap_or_else(|message| {
        eprintln!("msync-benchmark: {message}");
        1
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(line: &str) -> Result<Options, String> {
        parse(&line.split_whitespace().map(str::to_owned).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_form() {
        let o = parse_str("--workload web_daemon --seed 42 --seconds 7 --trace 1").unwrap();
        assert_eq!(o.command, Command::One);
        assert_eq!(o.workload, Some(Workload::WebDaemon));
        assert_eq!((o.seed, o.seconds, o.trace, o.part), (42, 7.0, true, false));
        assert!(parse_str("--workload web_daemon --part 1").unwrap().part);
        assert!(parse_str("--seed 1").is_err(), "a workload is required");
        assert!(parse_str("--workload nosuch").is_err());
        assert!(parse_str("--workload web_daemon --trace 2").is_err());
        assert!(parse_str("--workload web_daemon --seconds 0").is_err());
        assert!(parse_str("--workload web_daemon --seed").is_err());
    }

    #[test]
    fn the_commands() {
        let o = parse_str("run").unwrap();
        assert_eq!((o.command, o.workload, o.seed), (Command::Run, None, DEFAULT_SEED));
        assert_eq!(o.seconds, DEFAULT_SECONDS);
        let o = parse_str("repeat --seed 9 --workload tiny_sessions").unwrap();
        assert_eq!(
            (o.command, o.workload, o.seed),
            (Command::Repeat, Some(Workload::TinySessions), 9)
        );
        assert_eq!(parse_str("trace").unwrap().command, Command::Trace);
        assert!(parse_str("run --trace 1").is_err(), "--trace belongs to the driver's form");
        assert!(parse_str("frobnicate").is_err());
    }
}
