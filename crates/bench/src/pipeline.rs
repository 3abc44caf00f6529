//! `bench` — Table 4 and the reproducible benchmark pipeline.
//!
//! One binary (`cargo run --release -p mpise-bench --bin bench`)
//! measures everything the paper's Table 4 is built from, prints the
//! table next to the paper's numbers and writes a machine-readable
//! `BENCH_<date>.json`:
//!
//! 1. **Kernel matrix** — all four configurations × all eight Fp
//!    operations, executed on the Rocket pipeline model with one worker
//!    thread per configuration
//!    ([`mpise_fp::measure::kernel_matrix`]). Every kernel is
//!    validated by [`mpise_fp::measure::check_kernel`] — the reference
//!    oracle on adversarial edges and random inputs, and constant cost
//!    across them — before its cycle count is reported.
//! 2. **CSIDH-512 group action** — the Table 4 bottom row, estimated as
//!    Σ op-count × per-op cycles with op counts from an instrumented
//!    host run of the action, and the same action simulated directly
//!    (every Fp add/sub/mul/sqr a simulated kernel, the control code on
//!    the host at zero cycles) on all four configurations, each public
//!    key checked against the host run's.
//!
//! The pipeline doubles as a regression gate: it exits non-zero when
//! [`check_gate`] finds a Table 4 claim violated — among them, every
//! ISE-supported configuration must beat its radix-matched RV64GC
//! (ISA-only) baseline in simulated cycles, both summed over the kernel
//! matrix and on the group-action estimate, and every direct simulation
//! must spend exactly the estimated cycles. CI runs `bench --smoke`
//! (exponent bound ±1 instead of ±5, otherwise the same run) and
//! archives the JSON as an artifact.
//!
//! All simulated numbers are deterministic: fixed seeds, constant-time
//! kernels. Two runs with the same options produce byte-identical
//! `kernels` and `action_estimate` sections (the golden test in
//! `tests/bench_golden.rs` enforces this). Host wall time is measured
//! by the separate `perfbench` benchmark, not here.

use crate::{paper_cycles, ratio, rule, PAPER_ACTION_MCYCLES};
use mpise_csidh::{group_action, PrivateKey, PublicKey};
use mpise_fp::kernels::{Config, IseMode, OpKind};
use mpise_fp::measure::{kernel_matrix, OpMeasurement, VALIDATION_CASES};
use mpise_fp::simfp::SimFp;
use mpise_fp::{CountingFp, Fp, FpFull, OpCounts};
use mpise_obs::time::utc_date_string;
use mpise_obs::{object, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Seed shared by every deterministic stage of the pipeline.
pub const BENCH_SEED: u64 = 0xC51D;

/// What to run and where to put the result.
#[derive(Debug, Clone, Default)]
pub struct BenchOptions {
    /// Reduced run for CI: exponent bound ±1 instead of ±5.
    pub smoke: bool,
    /// Output path; `None` = `BENCH_<utc-date>.json` in the working
    /// directory.
    pub out: Option<String>,
}

impl BenchOptions {
    /// Exponent bound of the group action, instrumented and simulated.
    pub fn action_bound(&self) -> i8 {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// Group-action cost of one configuration.
#[derive(Debug, Clone, Copy)]
pub struct ActionEstimate {
    /// The configuration.
    pub config: Config,
    /// Estimated cycles (Σ op-count × per-op cycles).
    pub cycles: u64,
}

/// Direct-simulation group-action measurement: every Fp add/sub/mul/sqr
/// of the action runs as a simulated kernel. The control code, point
/// bookkeeping, RNG and domain conversions run on the host and are
/// charged zero cycles.
#[derive(Debug, Clone, Copy)]
pub struct ActionSim {
    /// The configuration.
    pub config: Config,
    /// Simulated cycles spent in field kernels.
    pub cycles: u64,
    /// Field-kernel calls issued by the action.
    pub calls: u64,
    /// Host seconds the simulation took.
    pub host_secs: f64,
    /// Simulated cycles as attributed by the telemetry span tree; must
    /// equal `cycles` (the run asserts it).
    pub span_cycles: u64,
}

/// Everything one pipeline run produced.
#[derive(Debug)]
pub struct BenchReport {
    /// Options the run used.
    pub options: BenchOptions,
    /// Kernel matrix in [`Config::ALL`] order.
    pub matrix: Vec<(Config, Vec<OpMeasurement>)>,
    /// Op counts of the instrumented group action.
    pub action_counts: OpCounts,
    /// Estimated action cost per configuration.
    pub action_estimates: Vec<ActionEstimate>,
    /// Direct-simulation action runs in [`Config::ALL`] order.
    pub action_sims: Vec<ActionSim>,
    /// [`check_gate`]'s verdict on the Table 4 claims.
    pub gate: Result<(), String>,
}

/// Looks up the measured cycles of `op` on `config` in a kernel matrix.
///
/// # Panics
///
/// Panics if the matrix lacks that configuration or operation.
pub fn cycles_of(matrix: &[(Config, Vec<OpMeasurement>)], config: Config, op: OpKind) -> u64 {
    matrix
        .iter()
        .find(|(c, _)| *c == config)
        .and_then(|(_, ms)| ms.iter().find(|m| m.op == op))
        .map(|m| m.cycles)
        .expect("matrix covers every config × op")
}

/// Looks up the estimated action cycles of `config`.
///
/// # Panics
///
/// Panics if `estimates` lacks that configuration.
fn estimated_cycles(estimates: &[ActionEstimate], config: Config) -> u64 {
    let e = estimates.iter().find(|e| e.config == config);
    e.expect("estimate per config").cycles
}

fn isa_baseline(config: Config) -> Config {
    Config {
        radix: config.radix,
        ise: IseMode::IsaOnly,
    }
}

/// The benchmark's action instance: a key drawn at exponent bound
/// `bound` from [`BENCH_SEED`], applied to the base curve on `f`.
fn bench_action<F: Fp>(f: &F, bound: i8) -> PublicKey {
    let mut rng = StdRng::seed_from_u64(BENCH_SEED);
    let key = PrivateKey::random_with_bound(&mut rng, bound);
    group_action(f, &mut rng, &PublicKey::BASE, &key)
}

/// Instruments the group action on the host backend and returns its
/// field-operation counts and resulting public key.
pub fn instrument_action(bound: i8) -> (OpCounts, PublicKey) {
    let counting = CountingFp::new(FpFull::new());
    let public = bench_action(&counting, bound);
    (counting.counts(), public)
}

/// Estimates the action cost of every configuration from the kernel
/// matrix and the instrumented op counts.
pub fn estimate_actions(
    matrix: &[(Config, Vec<OpMeasurement>)],
    counts: &OpCounts,
) -> Vec<ActionEstimate> {
    Config::ALL
        .iter()
        .map(|&config| ActionEstimate {
            config,
            cycles: counts.mul * cycles_of(matrix, config, OpKind::FpMul)
                + counts.sqr * cycles_of(matrix, config, OpKind::FpSqr)
                + counts.add * cycles_of(matrix, config, OpKind::FpAdd)
                + counts.sub * cycles_of(matrix, config, OpKind::FpSub),
        })
        .collect()
}

/// Runs the action [`instrument_action`] counts with every field
/// operation executed on the simulator, once per configuration in
/// [`Config::ALL`], each on a thread of its own, and checks each public
/// key against `host_key`, the instrumented run's.
///
/// Telemetry is enabled for the duration of the runs so each action
/// decomposes into phase spans (spans are thread-local, so each run's
/// tree is its own); the span tree's attributed cycles must equal the
/// machine's cycle counter, since both are charged by the same
/// [`mpise_fp::measure::KernelRunner::run_into`] call.
///
/// # Panics
///
/// Panics when a simulated action disagrees with the host action — a
/// simulator or kernel bug — or when the span attribution fails to
/// reconcile with the cycle counter.
pub fn simulate_actions(bound: i8, host_key: &PublicKey) -> Vec<ActionSim> {
    let was_enabled = mpise_obs::enabled();
    mpise_obs::set_enabled(true);
    let sims = std::thread::scope(|scope| {
        let workers: Vec<_> = Config::ALL
            .iter()
            .map(|&config| scope.spawn(move || simulate_action(config, bound, host_key)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("direct simulation worker panicked"))
            .collect()
    });
    mpise_obs::set_enabled(was_enabled);
    sims
}

/// One configuration's run of [`simulate_actions`], with telemetry on.
fn simulate_action(config: Config, bound: i8, host_key: &PublicKey) -> ActionSim {
    let sim = SimFp::new(config);
    let _ = mpise_obs::take_spans(); // start from a clean thread-local tree
    let t0 = Instant::now();
    let pk_sim = bench_action(&sim, bound);
    let host_secs = t0.elapsed().as_secs_f64();
    let spans = mpise_obs::take_spans();
    assert_eq!(
        pk_sim, *host_key,
        "{config}: simulated action disagrees with the host action"
    );
    let span_cycles = spans.total_cycles();
    let cycles = sim.cycles();
    assert_eq!(
        span_cycles, cycles,
        "{config}: span-attributed cycles differ from the machine cycle counter"
    );
    eprint!("bench: action span tree ({config}):\n{}", spans.render());
    ActionSim {
        config,
        cycles,
        calls: sim.calls(),
        host_secs,
        span_cycles,
    }
}

/// The one Table 4 check: `bench`'s gate, also the verdict tier-1's
/// `table4_shape` test requires of a smoke-sized [`run_pipeline`].
/// Columns as in
/// [`Config::ALL`] (full ISA-only, full ISE, reduced ISA-only, reduced
/// ISE). Claims:
///
/// - ISA-only, the full radix wins Fp-mul but loses Fp-add; with the
///   ISEs, the reduced radix wins Fp-mul and Fp-sqr (§4);
/// - the ISEs speed up every multiplicative kernel and leave the full
///   radix's additive kernels unchanged; squaring never costs more
///   than multiplication; Fp-mul costs 0.85–1.15× its IntMul +
///   MontRedc + FastReduce rows;
/// - per radix, the ISE beats RV64GC on the kernel-matrix total and on
///   the action estimate;
/// - speedups over full ISA-only, the reduced ISE's the larger: Fp-mul
///   1.2–2.2× (full ISE) and 1.5–2.6× (reduced ISE); action 1.1–2.0×
///   and 1.3–2.4× (paper: 1.39× and 1.71×);
/// - the estimate is exact: each of `sims` spent exactly its
///   configuration's estimated cycles.
///
/// # Errors
///
/// Returns every violated claim, `; `-separated.
pub fn check_gate(
    matrix: &[(Config, Vec<OpMeasurement>)],
    estimates: &[ActionEstimate],
    sims: &[ActionSim],
) -> Result<(), String> {
    use OpKind::*;
    let c = |(col, op): (usize, OpKind)| cycles_of(matrix, Config::ALL[col], op);
    let name = |(col, op): (usize, OpKind)| format!("{} {op:?}", Config::ALL[col]);
    let total = |col| OpKind::ALL.iter().map(|&op| c((col, op))).sum::<u64>();
    let act = |col| estimated_cycles(estimates, Config::ALL[col]);
    let (mut violations, mut bands) = (Vec::new(), Vec::new());
    let mut orderings = vec![
        ((0, FpMul), "<", (2, FpMul)),
        ((2, FpAdd), "<", (0, FpAdd)),
        ((3, FpMul), "<", (1, FpMul)),
        ((3, FpSqr), "<", (1, FpSqr)),
    ];
    for op in [IntMul, IntSqr, MontRedc, FpMul, FpSqr] {
        orderings.extend([((1, op), "<", (0, op)), ((3, op), "<", (2, op))]);
    }
    for op in [FastReduce, FpAdd, FpSub] {
        orderings.push(((1, op), "==", (0, op)));
    }
    for col in 0..4 {
        orderings.push(((col, IntSqr), "<=", (col, IntMul)));
        orderings.push(((col, FpSqr), "<=", (col, FpMul)));
        let parts = c((col, IntMul)) + c((col, MontRedc)) + c((col, FastReduce));
        let what = format!(
            "{} FpMul / (IntMul + MontRedc + FastReduce)",
            Config::ALL[col]
        );
        bands.push((what, c((col, FpMul)) as f64 / parts as f64, 0.85..1.15));
    }
    for (a, rel, b) in orderings {
        let (x, y) = (c(a), c(b));
        let holds = match rel {
            "<" => x < y,
            "<=" => x <= y,
            _ => x == y,
        };
        if !holds {
            let (a, b) = (name(a), name(b));
            violations.push(format!("{a} {rel} {b} fails: {x} vs {y} cycles"));
        }
    }
    // Per radix, ISE below RV64GC; and the reduced ISE's action below
    // the full ISE's, which makes its speedup the larger (§4).
    let totals = [(1, 0), (3, 2)].map(|(a, b)| ("kernel-matrix total", a, total(a), b, total(b)));
    let actions = [(1, 0), (3, 2), (3, 1)].map(|(a, b)| ("estimated action", a, act(a), b, act(b)));
    for (what, a, x, b, y) in totals.into_iter().chain(actions) {
        if x >= y {
            let (a, b) = (Config::ALL[a], Config::ALL[b]);
            violations.push(format!("{a} < {b} {what} fails: {x} vs {y} cycles"));
        }
    }
    for s in sims {
        let (x, y) = (s.cycles, estimated_cycles(estimates, s.config));
        if x != y {
            let a = s.config;
            violations.push(format!(
                "{a} direct-sim == estimated action fails: {x} vs {y} cycles"
            ));
        }
    }
    let mul = |col| c((0, FpMul)) as f64 / c((col, FpMul)) as f64;
    let action = |col| act(0) as f64 / act(col) as f64;
    bands.extend([
        ("full-ISE Fp-mul speedup".into(), mul(1), 1.2..2.2),
        ("reduced-ISE Fp-mul speedup".into(), mul(3), 1.5..2.6),
        ("full-ISE action speedup".into(), action(1), 1.1..2.0),
        ("reduced-ISE action speedup".into(), action(3), 1.3..2.4),
    ]);
    for (what, x, band) in bands {
        if !band.contains(&x) {
            violations.push(format!("{what} {x:.2} outside {:?}", band));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations.join("; "))
    }
}

/// The kernel matrix `bench` reports: [`kernel_matrix`] with
/// [`VALIDATION_CASES`] random cases per kernel, drawn from
/// [`BENCH_SEED`].
///
/// # Panics
///
/// Panics on any validation failure (a kernel bug).
pub fn measure_kernels() -> Vec<(Config, Vec<OpMeasurement>)> {
    kernel_matrix(VALIDATION_CASES, BENCH_SEED)
        .into_iter()
        .map(|(config, cells)| {
            let measured = cells
                .into_iter()
                .map(|cell| cell.result.unwrap_or_else(|e| panic!("{e}")));
            (config, measured.collect())
        })
        .collect()
}

/// Runs the whole pipeline with the given options.
pub fn run_pipeline(options: BenchOptions) -> BenchReport {
    eprintln!(
        "bench: measuring the kernel matrix (4 configs x 8 ops, edges + {VALIDATION_CASES} \
         random cases each, parallel) ..."
    );
    let t0 = Instant::now();
    let matrix = measure_kernels();
    eprintln!("bench: kernel matrix done in {:.2?}", t0.elapsed());

    let bound = options.action_bound();
    eprintln!("bench: instrumenting the group action (exponent bound +/-{bound}) ...");
    let (action_counts, host_key) = instrument_action(bound);
    let action_estimates = estimate_actions(&matrix, &action_counts);

    eprintln!("bench: direct-simulating the group action on all four configurations, parallel ...");
    let t0 = Instant::now();
    let action_sims = simulate_actions(bound, &host_key);
    eprintln!("bench: direct simulations done in {:.2?}", t0.elapsed());

    let gate = check_gate(&matrix, &action_estimates, &action_sims);
    BenchReport {
        options,
        matrix,
        action_counts,
        action_estimates,
        action_sims,
        gate,
    }
}

/// The deterministic kernel-matrix section (the part the golden test
/// compares byte-for-byte).
pub fn kernels_json(matrix: &[(Config, Vec<OpMeasurement>)]) -> Value {
    matrix
        .iter()
        .flat_map(|(config, measurements)| {
            let col = Config::ALL
                .iter()
                .position(|c| c == config)
                .expect("known config");
            measurements.iter().map(move |m| {
                let baseline = cycles_of(matrix, isa_baseline(*config), m.op);
                object! {
                    "config": config.to_string(), "radix": config.radix.to_string(),
                    "ise": config.ise == IseMode::IseSupported, "op": format!("{:?}", m.op),
                    "label": m.op.label(), "cycles": m.cycles, "instret": m.instret,
                    "stall_cycles": m.timing.stall_cycles, "flush_cycles": m.timing.flush_cycles,
                    "speedup_vs_rv64gc": baseline as f64 / m.cycles as f64,
                    "paper_cycles": crate::paper_cycles(m.op, col),
                }
            })
        })
        .collect()
}

/// The deterministic action-estimate section.
pub fn action_json(counts: &OpCounts, estimates: &[ActionEstimate], sims: &[ActionSim]) -> Value {
    let base = estimated_cycles(estimates, Config::ALL[0]);
    let estimated = estimates.iter().map(|e| {
        object! {
            "config": e.config.to_string(), "cycles": e.cycles, "mcycles": e.cycles as f64 / 1e6,
            "speedup_vs_full_isa": base as f64 / e.cycles as f64,
        }
    });
    let direct_sim = sims.iter().map(|s| {
        object! {
            "config": s.config.to_string(), "cycles": s.cycles, "kernel_calls": s.calls,
            "host_secs": s.host_secs, "validated_vs_host": true,
            "span_cycles": s.span_cycles, "span_reconciled": true,
        }
    });
    object! {
        "op_counts": object! {
            "mul": counts.mul, "sqr": counts.sqr, "add": counts.add, "sub": counts.sub,
        },
        "estimated": estimated.collect::<Value>(),
        "direct_sim": direct_sim.collect::<Value>(),
    }
}

/// The whole report (see DESIGN.md §9 for the schema).
pub fn report_json(report: &BenchReport) -> Value {
    let (counts, sims) = (&report.action_counts, &report.action_sims);
    object! {
        "schema": "mpise-bench/v1", "date": utc_date_string(),
        "provenance": mpise_obs::Provenance::collect().json(),
        "mode": if report.options.smoke { "smoke" } else { "full" },
        "seed": BENCH_SEED, "iterations": VALIDATION_CASES,
        "action_exponent_bound": report.options.action_bound(),
        "kernels": kernels_json(&report.matrix),
        "action": action_json(counts, &report.action_estimates, sims),
        "gate": object! { "table4_claims": report.gate.is_ok() },
    }
}

/// Prints Table 4 from a report: every kernel row and the action
/// estimate next to the paper's numbers, one row per direct
/// simulation, and the Fp-mul instruction, stall and flush breakdown.
fn print_table4(report: &BenchReport) {
    let (matrix, estimates) = (&report.matrix, &report.action_estimates);
    println!("Table 4: execution times of CSIDH-512 operations (clock cycles)");
    println!("measured = this reproduction (Rocket pipeline model); paper = DAC'24 Table 4");
    println!("{}", rule(100));
    println!(
        "{:28} {:>16} {:>16} {:>16} {:>16}",
        "Operation", "Full ISA-only", "Full ISE-sup.", "Red. ISA-only", "Red. ISE-sup."
    );
    println!("{}", rule(100));
    for op in OpKind::ALL {
        print!("{:28}", op.label());
        for (col, &config) in Config::ALL.iter().enumerate() {
            print!(
                " {:>9} ({:>4})",
                cycles_of(matrix, config, op),
                paper_cycles(op, col)
            );
        }
        println!();
    }
    println!("{}", rule(100));
    print!("{:28}", "CSIDH group action (est.)");
    for (e, paper) in estimates.iter().zip(PAPER_ACTION_MCYCLES) {
        print!(" {:>9.1}M ({:>3.0}M)", e.cycles as f64 / 1e6, paper);
    }
    println!();
    print!("{:28}", "  speedup vs full ISA-only");
    for (e, paper) in estimates.iter().zip(PAPER_ACTION_MCYCLES) {
        let r = ratio(estimates[0].cycles as f64, e.cycles as f64);
        let p = ratio(PAPER_ACTION_MCYCLES[0], paper);
        print!(" {:>10} ({:>4})", r, p);
    }
    println!();
    let rows = [
        "Fp-mul instructions retired",
        "Fp-mul stall cycles",
        "Fp-mul flush cycles",
    ];
    for (row, what) in rows.into_iter().enumerate() {
        print!("{what:28}");
        for (_, ms) in matrix {
            let m = ms.iter().find(|m| m.op == OpKind::FpMul).expect("measured");
            let v = [m.instret, m.timing.stall_cycles, m.timing.flush_cycles][row];
            print!(" {v:>16}");
        }
        println!();
    }
    println!("{}", rule(100));
    let c = &report.action_counts;
    println!("(values in parentheses: the paper's numbers; the group-action row is");
    println!(" op-count x per-op-cycles with counts from the instrumented action:");
    println!(
        " {} mul, {} sqr, {} add, {} sub at exponent bound +/-{})",
        c.mul,
        c.sqr,
        c.add,
        c.sub,
        report.options.action_bound()
    );
    println!();
    println!("direct simulation of the same action (every Fp op on the simulator):");
    for s in &report.action_sims {
        let e = estimated_cycles(estimates, s.config);
        let rel = if s.cycles == e { "==" } else { "!=" };
        println!(
            "  {:28} {:>12} cycles {rel} estimate {e:>12} ({} kernel calls, {:.1}s host)",
            s.config.to_string(),
            s.cycles,
            s.calls,
            s.host_secs
        );
    }
}

/// Command-line entry point of the `bench` binary; returns the process
/// exit code (0 = gate passed).
pub fn run_cli(args: &[String]) -> i32 {
    let mut options = BenchOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => options.smoke = true,
            "--out" => match iter.next() {
                Some(path) => options.out = Some(path.clone()),
                None => {
                    eprintln!("bench: --out requires a path");
                    return 2;
                }
            },
            "--help" | "-h" => {
                eprintln!(
                    "usage: bench [--smoke] [--out PATH]\n\
                     \n\
                     --smoke     CI-sized run (exponent bound +/-1 instead of +/-5)\n\
                     --out PATH  output path (default BENCH_<utc-date>.json)"
                );
                return 0;
            }
            other => {
                eprintln!("bench: unknown argument `{other}` (try --help)");
                return 2;
            }
        }
    }

    let report = run_pipeline(options);
    print_table4(&report);

    let path = report
        .options
        .out
        .clone()
        .unwrap_or_else(|| format!("BENCH_{}.json", utc_date_string()));
    if let Err(e) = std::fs::write(&path, format!("{}\n", report_json(&report))) {
        eprintln!("bench: failed to write {path}: {e}");
        return 2;
    }
    println!("\nwrote {path}");

    match &report.gate {
        Ok(()) => {
            println!("gate: every Table 4 claim holds — PASS");
            0
        }
        Err(e) => {
            println!("gate: FAIL — {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    type Measured = (Vec<(Config, Vec<OpMeasurement>)>, OpCounts);

    /// The smoke-sized kernel matrix and action counts, shared by the
    /// tests.
    fn measured() -> &'static Measured {
        static MEASURED: OnceLock<Measured> = OnceLock::new();
        MEASURED.get_or_init(|| (measure_kernels(), instrument_action(1).0))
    }

    fn sim_of(estimate: &ActionEstimate) -> ActionSim {
        ActionSim {
            config: estimate.config,
            cycles: estimate.cycles,
            calls: 1,
            host_secs: 0.5,
            span_cycles: estimate.cycles,
        }
    }

    #[test]
    fn gate_passes_on_real_kernels_and_catches_inversions() {
        let (matrix, counts) = measured();
        let estimates = estimate_actions(matrix, counts);
        check_gate(matrix, &estimates, &[]).expect("the Table 4 claims hold");

        // Swapping the ISE and ISA columns must trip the gate.
        let mut swapped = matrix.clone();
        swapped.swap(0, 1);
        let (a, b) = (swapped[0].0, swapped[1].0);
        swapped[0].0 = b;
        swapped[1].0 = a;
        let bad_estimates = estimate_actions(&swapped, counts);
        assert!(check_gate(&swapped, &bad_estimates, &[]).is_err());

        // A reduced-radix ISE Fp-mul no faster than the full-radix one
        // breaks the paper's headline ordering, and the report says so.
        let mut tied = matrix.clone();
        let full_ise = cycles_of(&tied, Config::ALL[1], OpKind::FpMul);
        let red_ise = tied[3].1.iter_mut().find(|m| m.op == OpKind::FpMul);
        red_ise.expect("measured").cycles = full_ise;
        let err = check_gate(&tied, &estimate_actions(&tied, counts), &[]).unwrap_err();
        let ordering = format!(
            "{} FpMul < {} FpMul fails: {full_ise} vs {full_ise} cycles",
            Config::ALL[3],
            Config::ALL[1]
        );
        assert!(err.contains(&ordering), "{err}");
    }

    #[test]
    fn gate_reports_a_direct_sim_that_differs_from_its_estimate() {
        let (matrix, counts) = measured();
        let estimates = estimate_actions(matrix, counts);
        let sims: Vec<ActionSim> = estimates.iter().map(sim_of).collect();
        assert_eq!(check_gate(matrix, &estimates, &sims), Ok(()));

        // One simulated cycle more than the estimate on the headline
        // configuration fails that configuration, and only that one.
        let mut off = sims;
        off[3].cycles += 1;
        let (x, y) = (off[3].cycles, estimates[3].cycles);
        let err = check_gate(matrix, &estimates, &off).unwrap_err();
        let claim = format!(
            "{} direct-sim == estimated action fails: {x} vs {y} cycles",
            Config::ALL[3]
        );
        assert_eq!(err, claim);
    }

    #[test]
    fn report_json_passes_the_artifact_schema_check() {
        let options = BenchOptions {
            smoke: true,
            ..BenchOptions::default()
        };
        let (matrix, action_counts) = measured().clone();
        let action_estimates = estimate_actions(&matrix, &action_counts);
        let action_sims: Vec<ActionSim> = action_estimates.iter().map(sim_of).collect();
        let report = BenchReport {
            gate: check_gate(&matrix, &action_estimates, &action_sims),
            options,
            matrix,
            action_counts,
            action_estimates,
            action_sims,
        };
        let doc = mpise_obs::json::parse(&report_json(&report).to_string()).expect("valid JSON");
        assert_eq!(mpise_obs::json::check_artifact(&doc), Ok("mpise-bench/v1"));
        assert_eq!(doc["kernels"], kernels_json(&report.matrix));
        assert_eq!(
            doc["kernels"][0]["cycles"],
            report.matrix[0].1[0].cycles.into()
        );
        assert_eq!(
            doc["action"]["op_counts"]["mul"],
            report.action_counts.mul.into()
        );
        assert_eq!(
            doc["action"]["direct_sim"][3]["cycles"],
            report.action_estimates[3].cycles.into()
        );
        assert_eq!(doc["gate"]["table4_claims"], Value::Bool(true));
        assert_eq!(doc["host"], Value::Null, "host time belongs to perfbench");
    }
}
