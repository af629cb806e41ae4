//! One measurement process of the Accordion benchmark.
//!
//! ```text
//! perfbench <reproduce|explore> [--seed N] [--jobs N] [--trace]
//! ```
//!
//! Runs one workload in a fresh process (so every process-wide cache
//! starts cold, as it does for a user) and prints one JSON line with
//! its measurements. `--trace` turns on the program's span accounting
//! and appends the per-layer metrics. `perfbench/run.py` drives these
//! processes and aggregates them into the benchmark's result line.

mod batch;
mod gen;
mod layers;
mod record;
mod serve;
mod stats;

use accordion_telemetry::json::Json;
use layers::{Layers, Snap};
use record::Record;
use std::time::Instant;

struct Args {
    workload: String,
    seed: u64,
    jobs: usize,
    trace: bool,
}

fn usage() -> ! {
    eprintln!("usage: perfbench <reproduce|explore> [--seed N] [--jobs N] [--trace]");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let workload = it.next().unwrap_or_else(|| usage());
    let mut args = Args {
        workload,
        seed: 1,
        jobs: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage()),
            "--jobs" => args.jobs = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = true,
            _ => usage(),
        }
    }
    if args.jobs == 0 {
        usage();
    }
    args
}

/// Layer probes, with a probe server for the `served.*` rows: it
/// answers the healthz round trips and feeds the serving counters.
fn batch_probes(out: &mut Layers) {
    match serve::boot() {
        Ok(handle) => {
            let before = Snap::take();
            layers::probes(handle.addr(), out);
            layers::serve_window(&before, &Snap::take(), out);
            handle.shutdown();
        }
        Err(e) => eprintln!("perfbench: probe server: {e}"),
    }
}

fn run(t0: Instant, a: &Args) -> Record {
    let mut out: Layers = Vec::new();
    let before = Snap::take();
    let mut rec = match a.workload.as_str() {
        "reproduce" => {
            let (rec, times) = batch::reproduce(t0, a.seed, a.jobs);
            if a.trace {
                layers::workload_window(&before, &Snap::take(), &mut out);
                layers::artifact_layers(&times, &mut out);
                let (_, search) = batch::explore(Instant::now(), a.seed, a.jobs, 20);
                layers::opt_layers(&search, a.seed, a.jobs, &mut out);
                batch_probes(&mut out);
            }
            rec
        }
        "explore" => {
            let (rec, search) = batch::explore(t0, a.seed, a.jobs, batch::EXPLORE_GENERATIONS);
            if a.trace {
                layers::workload_window(&before, &Snap::take(), &mut out);
                layers::opt_layers(&search, a.seed, a.jobs, &mut out);
                layers::artifact_layers(&layers::artifact_pass(), &mut out);
                batch_probes(&mut out);
            }
            rec
        }
        _ => usage(),
    };
    rec.layers = out;
    rec
}

fn main() {
    let t0 = Instant::now();
    let ticks = record::cpu_ticks();
    let args = parse_args();
    if args.trace {
        accordion_telemetry::sink::set_timing(true);
    }
    let mut rec = run(t0, &args);
    rec.detail
        .push(("host_steal", Json::Num(record::steal_since(ticks))));
    let line = Json::obj(vec![
        ("workload", Json::str(args.workload.as_str())),
        ("seed", Json::Num(args.seed as f64)),
        ("trace", Json::Bool(args.trace)),
        ("record", rec.to_json()),
    ]);
    println!("{}", line.render());
}
