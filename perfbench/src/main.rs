//! `alfnet-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's world from the seed, measures the loop for the
//! given wall seconds, checks every delivered payload, and prints one JSON
//! result line last on standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. A readable table
//! goes to standard error.

use alfnet_perfbench::driver::{roofline, World};
use alfnet_perfbench::report;
use alfnet_perfbench::trace::Tracer;
use alfnet_perfbench::workload::{self, Shape};
use std::io::Write;
use std::time::Instant;

struct Args {
    shape: Shape,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = workload::all().iter().map(|s| s.name).collect();
    eprintln!(
        "error: {msg}\nusage: alfnet-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut shape = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                shape = Some(
                    workload::by_name(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    Args {
        shape: shape.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or(false),
    }
}

fn main() {
    let args = parse_args();
    let shape = args.shape;
    let mut tr = Tracer::new();

    // Set up from an empty state several times; each previous world is
    // dropped before the next clock starts. The last one is measured.
    let reps = if args.trace { 1 } else { shape.setup_reps };
    let mut setups = Vec::new();
    let mut world = None;
    let mut setup_ok = true;
    for _ in 0..reps {
        drop(world.take());
        let t = Instant::now();
        let (w, ok) = World::setup(shape, args.seed);
        setups.push(t.elapsed().as_secs_f64());
        setup_ok &= ok;
        world = Some(w);
    }
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[setups.len() / 2];
    let mut world = world.expect("at least one set-up");

    let m = world.measure(&mut tr, args.seconds, args.trace);
    let metrics = if args.trace {
        report::per_layer(&m, &tr, roofline(shape.adu_bytes))
    } else {
        report::end_to_end(&shape, &m, setup_s, report::peak_rss_mb())
    };
    let t = &m.tally;
    let failed = t.offered - t.verified.min(t.offered);
    let correct = setup_ok && m.complete && failed == 0 && t.bad == 0 && t.net_send_errors == 0;
    eprintln!(
        "{} seed {} trace {}: {} set-ups, {} iterations, {} offered, {} verified, {} bad, {} lost, complete {}",
        shape.name,
        args.seed,
        u8::from(args.trace),
        setups.len(),
        t.iters,
        t.offered,
        t.verified,
        t.bad,
        t.lost,
        m.complete
    );
    eprint!("{}", report::table(&metrics));
    let line = report::json(correct, t.offered.max(1), failed, &metrics);
    let mut out = std::io::stdout().lock();
    writeln!(out, "{line}").expect("write the result line");
    out.flush().expect("flush the result line");
    // Tearing down a 100k-association world takes longer than the OS
    // takes to reclaim it.
    std::process::exit(0);
}
