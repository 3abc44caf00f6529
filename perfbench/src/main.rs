//! `perfbench` — a two-clock benchmark of the CSIDH-512 stack.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Every run reports both clocks: host time (scaled to a reference speed,
//! see `refclock`), and simulated Rocket cycles on the reduced-radix ISE
//! configuration. With `--trace 0` it
//! prints the end-to-end metrics; with `--trace 1` it prints per-layer
//! metrics and the program's span tree (on stderr). The last line of
//! stdout is one JSON object; see README.md for every metric.
//!
//! `--setup-only 1` prepares the workload in a fresh process and prints
//! the scaled seconds that took; the run itself measures `setup_s` this way,
//! so one-time initialisation inside the program is counted too.

mod layers;
mod metered;
mod refclock;
mod workload;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{prepare, Op, Prepared, Workload};

/// Fresh-process set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Operations every run times, however short `--seconds` is.
const MIN_OPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut setup_only) = (1u64, 10u64, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--setup-only" => setup_only = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        setup_only,
    })
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median seconds to prepare the workload in a fresh process, over
/// `SETUP_REPS` child processes of this executable.
fn setup_seconds(workload: Workload) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
    let mut secs = Vec::new();
    for _ in 0..SETUP_REPS {
        let out = Command::new(&exe)
            .args(["--workload", workload.name(), "--setup-only", "1"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running a set-up process: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        match text.trim().parse::<f64>() {
            Ok(s) if out.status.success() => secs.push(s),
            _ => return Err(format!("set-up process failed ({}): {text}", out.status)),
        }
    }
    Ok(median(&mut secs))
}

/// Runs operations until `budget` has passed (and at least `MIN_OPS`),
/// with a reference reading between each two. Returns each operation
/// with its scaled host time in ns.
fn run_ops(prepared: &Prepared, rng: &mut StdRng, budget: Duration) -> Vec<(Op, f64)> {
    let t = Instant::now();
    let mut ops = Vec::new();
    let mut before = refclock::reference_ns();
    while ops.len() < MIN_OPS || t.elapsed() < budget {
        let op = prepared.run_op(rng);
        let after = refclock::reference_ns();
        let ns = op.wall_ns as f64 * refclock::scale(before, after);
        ops.push((op, ns));
        before = after;
    }
    ops
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    // A fresh process runs its first reference reading cold; discard it.
    let _ = refclock::reference_ns();
    let (prepared, setup_ns) = refclock::scaled_ns(|| prepare(args.workload));
    if args.setup_only {
        println!("{:?}", setup_ns / 1e9);
        return ExitCode::SUCCESS;
    }
    let budget = Duration::from_secs(args.seconds);
    let mut rng = StdRng::seed_from_u64(args.seed.rotate_left(32) ^ 0x5EED);
    let table = prepared.table;

    let (ops, metrics) = if args.trace {
        let t = Instant::now();
        let layers = layers::measure(&mut rng);
        mpise_obs::set_enabled(true);
        let _ = mpise_obs::take_spans();
        let ops = run_ops(&prepared, &mut rng, budget.saturating_sub(t.elapsed()));
        mpise_obs::set_enabled(false);
        eprint!("{}", mpise_obs::take_spans().render());

        let n = ops.len() as f64;
        let total = ops.iter().fold(metered::Counts::default(), |acc, (op, _)| {
            acc.plus(op.total_counts())
        });
        let model_ns: f64 = ops
            .iter()
            .flat_map(|(op, _)| op.counts.iter())
            .map(|(backend, c)| c.dot(layers.field_ns(*backend)))
            .sum();
        let host_ns: f64 = ops.iter().map(|(_, ns)| ns).sum();
        let mut metrics: Vec<(String, f64, &str)> = layers.metrics;
        metrics.push(("fp_mul_per_op".into(), total.mul as f64 / n, "count"));
        metrics.push(("fp_sqr_per_op".into(), total.sqr as f64 / n, "count"));
        metrics.push((
            "fp_addsub_per_op".into(),
            (total.add + total.sub) as f64 / n,
            "count",
        ));
        metrics.push(("fp_model_share".into(), model_ns / host_ns, "ratio"));
        (ops, metrics)
    } else {
        let setup_s = match setup_seconds(args.workload) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let ops = run_ops(&prepared, &mut rng, budget);
        let mut latency: Vec<f64> = ops.iter().map(|(_, ns)| ns / 1e6).collect();
        let mut wall: Vec<f64> = ops.iter().map(|(op, _)| op.wall_ns as f64 / 1e6).collect();
        let mut cycles: Vec<f64> = ops
            .iter()
            .map(|(op, _)| op.sim_cycles(&table) / 1e6)
            .collect();
        let (isa, ise) = ops.iter().fold((0.0, 0.0), |(isa, ise), (op, _)| {
            let c = op.total_counts();
            (isa + table.isa_cycles(&c), ise + table.ise_cycles(&c))
        });
        eprintln!(
            "perfbench: median unscaled wall time {:.3} ms",
            median(&mut wall)
        );
        let metrics = vec![
            ("latency_ms".to_string(), median(&mut latency), "ms"),
            ("sim_mcycles".to_string(), median(&mut cycles), "Mcycles"),
            ("ise_speedup".to_string(), isa / ise, "x"),
            ("setup_s".to_string(), setup_s, "s"),
        ];
        (ops, metrics)
    };

    let failed = ops.iter().filter(|(op, _)| !op.ok).count();
    eprintln!(
        "perfbench: workload {} seed {} trace {}: {} ops, {} failed",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        ops.len(),
        failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            eprintln!("  {name:24} {value:>16.4} {unit}");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed == 0,
        ops.len(),
        failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
