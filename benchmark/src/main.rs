//! The msync benchmark: four seeded workloads, end-to-end metrics with
//! tracing off, per-layer metrics from a separate traced run. See
//! `README.md` beside this crate.

mod check;
mod cli;
mod fixture;
mod inputs;
mod layers;
mod measure;
mod metrics;
mod part;
mod procfs;
mod report;
mod spans;
mod stats;
mod suite;
mod timer;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(cli::main(&args));
}
