//! `loadgen` — drives concurrent clients against the engine and gates
//! multi-worker throughput.
//!
//! One binary (`cargo run --release -p mpise-engine --bin loadgen`)
//! runs the same deterministic request mix through two engine
//! instances — a single-worker baseline and the multi-worker
//! configuration under test — and writes a machine-readable
//! `LOAD_<date>.json` report (schema in DESIGN.md §10). The run
//! doubles as two gates:
//!
//! * **throughput** — the multi-worker pass must beat the baseline by
//!   a sanity margin. With ≥ 3 effective cores the requirement is the
//!   full **2×**; CPU-bound field arithmetic cannot parallelise on
//!   fewer cores, so the requirement degrades smoothly to a
//!   no-regression margin (`clamp(0.75 · min(workers, cores), 0.75,
//!   2.0)`) instead of demanding physically impossible speedups on
//!   small hosts;
//! * **determinism** — both passes must produce byte-identical result
//!   payloads (shared secrets, public keys, verdicts): outcomes
//!   depend only on per-request seeds, never on worker count,
//!   batching or scheduling.
//!
//! All request seeds derive from one base seed via SplitMix64, so two
//! runs with the same options are byte-identical end to end (the
//! `tests/determinism.rs` golden test mirrors the bench pipeline's
//! golden serialization test).

use crate::{Engine, EngineConfig, EngineError, EngineStats, Request, Ticket};
use mpise_csidh::{group_action, PrivateKey, PublicKey};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::FpFull;
use mpise_mpi::U512;
use mpise_obs::time::utc_date_string;
use mpise_obs::{fnv1a64, object, Value};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Default base seed ("load" + a suffix picked so the default full
/// mix draws all three request kinds *and* the smoke mix includes
/// invalid-key rejections).
pub const LOADGEN_SEED: u64 = 0x10AD2;

/// What to run and where to put the report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadgenOptions {
    /// Worker count of the pass under test.
    pub workers: usize,
    /// Worker count of the baseline pass.
    pub baseline_workers: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Requests each client submits.
    pub requests_per_client: usize,
    /// Engine batch lanes (same in both passes — the gate isolates
    /// the worker count).
    pub batch_lanes: usize,
    /// Base seed for the deterministic request mix.
    pub seed: u64,
    /// CI-sized run: smaller mix, no expensive keygen requests.
    pub smoke: bool,
    /// Output path; `None` = `LOAD_<utc-date>.json`.
    pub out: Option<String>,
    /// Where to dump the Prometheus text exposition; setting this (or
    /// `obs_out`) enables telemetry for the run.
    pub metrics_out: Option<String>,
    /// Where to dump the `mpise-obs/v1` JSON snapshot (metrics plus the
    /// worker span forest).
    pub obs_out: Option<String>,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            workers: 4,
            baseline_workers: 1,
            clients: 4,
            requests_per_client: 6,
            batch_lanes: 8,
            seed: LOADGEN_SEED,
            smoke: false,
            out: None,
            metrics_out: None,
            obs_out: None,
        }
    }
}

impl LoadgenOptions {
    /// The CI-sized configuration.
    pub fn smoke() -> Self {
        LoadgenOptions {
            requests_per_client: 3,
            smoke: true,
            ..Default::default()
        }
    }
}

/// Deterministic fixture keys shared by every request mix.
#[derive(Debug, Clone, Copy)]
pub struct Fixtures {
    /// A valid derived curve.
    pub valid1: PublicKey,
    /// A second valid derived curve.
    pub valid2: PublicKey,
    /// An ordinary (invalid) curve.
    pub bogus: PublicKey,
    /// A sparse private key for cheap shared-secret derivations.
    pub sparse: PrivateKey,
}

impl Fixtures {
    /// Builds the fixtures on the host full-radix backend (two sparse
    /// group actions; deterministic in `seed`).
    pub fn generate(seed: u64) -> Self {
        let f = FpFull::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut e1 = [0i8; NUM_PRIMES];
        e1[0] = 1;
        let mut e2 = [0i8; NUM_PRIMES];
        e2[1] = -1;
        let mut es = [0i8; NUM_PRIMES];
        es[2] = 1;
        Fixtures {
            valid1: group_action(
                &f,
                &mut rng,
                &PublicKey::BASE,
                &PrivateKey { exponents: e1 },
            ),
            valid2: group_action(
                &f,
                &mut rng,
                &PublicKey::BASE,
                &PrivateKey { exponents: e2 },
            ),
            bogus: PublicKey { a: U512::ONE },
            sparse: PrivateKey { exponents: es },
        }
    }
}

/// SplitMix64 — the per-request seed stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic request plan for one `(client, index)` slot:
/// validation-heavy (so lane batching has traffic to merge), with a
/// derivation stripe and — outside smoke mode — an occasional keygen.
pub fn plan_request(
    base_seed: u64,
    client: usize,
    index: usize,
    fixtures: &Fixtures,
    smoke: bool,
) -> (u64, Request) {
    let slot = splitmix64(base_seed ^ ((client as u64) << 32) ^ index as u64);
    let seed = splitmix64(slot);
    let request = match slot % 8 {
        0..=2 => Request::ValidatePublicKey {
            key: fixtures.valid1,
        },
        3..=4 => Request::ValidatePublicKey {
            key: fixtures.valid2,
        },
        5 => Request::ValidatePublicKey {
            key: fixtures.bogus,
        },
        6 => Request::DeriveSharedSecret {
            private: fixtures.sparse,
            their_public: fixtures.valid1,
        },
        _ if smoke => Request::ValidatePublicKey {
            key: fixtures.valid1,
        },
        _ => Request::Keygen { bound: 1 },
    };
    (seed, request)
}

/// One pass's measurements.
#[derive(Debug, Clone)]
pub struct PassResult {
    /// Worker count of this pass.
    pub workers: usize,
    /// Requests submitted.
    pub requests: usize,
    /// Requests that produced an outcome.
    pub ok: usize,
    /// Requests that failed engine-side.
    pub errors: usize,
    /// Wall-clock seconds from first submission to last response.
    pub elapsed_secs: f64,
    /// Completed requests per wall-clock second.
    pub requests_per_sec: f64,
    /// Engine stats snapshot at the end of the pass.
    pub stats: EngineStats,
    /// The pass's engine metrics registry, after the drain.
    pub metrics: Arc<mpise_obs::Registry>,
    /// Result payloads concatenated in `(client, index)` order.
    pub payloads: Vec<u8>,
    /// Worker span forest (empty unless telemetry was enabled).
    pub spans: mpise_obs::SpanTree,
}

/// Runs one pass: `clients` threads submit the deterministic mix and
/// wait for every response; the engine is drained and joined before
/// the result is returned.
pub fn run_pass(workers: usize, opts: &LoadgenOptions, fixtures: &Fixtures) -> PassResult {
    let engine = Engine::start(
        EngineConfig {
            workers,
            queue_capacity: (opts.clients * opts.requests_per_client).max(16),
            batch_lanes: opts.batch_lanes,
        },
        FpFull::new,
    );

    let t0 = Instant::now();
    let mut client_payloads: Vec<Vec<u8>> = Vec::with_capacity(opts.clients);
    let mut ok = 0usize;
    let mut errors = 0usize;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let engine = &engine;
                scope.spawn(move || {
                    // Submit the whole window, then collect in order —
                    // the submission pattern of a pipelined client.
                    let tickets: Vec<Result<Ticket, EngineError>> = (0..opts.requests_per_client)
                        .map(|index| {
                            let (seed, request) =
                                plan_request(opts.seed, client, index, fixtures, opts.smoke);
                            engine.submit(seed, request, None)
                        })
                        .collect();
                    let mut payload = Vec::new();
                    let mut ok = 0usize;
                    let mut errors = 0usize;
                    for ticket in tickets {
                        match ticket.and_then(Ticket::wait) {
                            Ok(outcome) => {
                                ok += 1;
                                payload.extend(outcome.payload_bytes());
                            }
                            Err(_) => {
                                errors += 1;
                                payload.push(0xFF);
                            }
                        }
                    }
                    (payload, ok, errors)
                })
            })
            .collect();
        for handle in handles {
            let (payload, client_ok, client_errors) = handle.join().expect("client thread");
            client_payloads.push(payload);
            ok += client_ok;
            errors += client_errors;
        }
    });
    let elapsed_secs = t0.elapsed().as_secs_f64();
    let stats = engine.stats();
    engine.shutdown();
    let metrics = Arc::clone(engine.metrics());
    let spans = engine.take_worker_spans();

    PassResult {
        workers,
        requests: opts.clients * opts.requests_per_client,
        ok,
        errors,
        elapsed_secs,
        requests_per_sec: if elapsed_secs > 0.0 {
            ok as f64 / elapsed_secs
        } else {
            0.0
        },
        stats,
        metrics,
        payloads: client_payloads.concat(),
        spans,
    }
}

/// The throughput-gate verdict.
#[derive(Debug, Clone, Copy)]
pub struct GateResult {
    /// Baseline requests/sec.
    pub baseline_rps: f64,
    /// Multi-worker requests/sec.
    pub loaded_rps: f64,
    /// `loaded / baseline`.
    pub ratio: f64,
    /// `min(workers, host cores)` — what parallelism can physically
    /// deliver on this host.
    pub effective_parallelism: usize,
    /// The ratio the gate demands on this host.
    pub required_ratio: f64,
    /// Whether both the throughput and determinism conditions hold.
    pub pass: bool,
}

/// The ratio the throughput gate requires for a given worker count on
/// this host: the full 2× of the acceptance criterion whenever ≥ 3
/// cores are available to back it, degrading to a 0.75× no-regression
/// sanity margin on hosts where CPU-bound arithmetic cannot
/// parallelise.
pub fn required_ratio(workers: usize) -> (f64, usize) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let effective = workers.min(cores).max(1);
    ((0.75 * effective as f64).clamp(0.75, 2.0), effective)
}

/// Everything one loadgen run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Options the run used.
    pub options: LoadgenOptions,
    /// Baseline pass (first), loaded pass (second).
    pub passes: Vec<PassResult>,
    /// Whether both passes produced byte-identical payloads.
    pub payloads_identical: bool,
    /// FNV-1a 64 digest of the loaded pass's payload bytes.
    pub payload_digest: u64,
    /// The throughput-gate verdict.
    pub gate: GateResult,
}

/// Runs the baseline and loaded passes and evaluates the gate.
pub fn run(opts: &LoadgenOptions) -> LoadReport {
    let fixtures = Fixtures::generate(opts.seed);
    eprintln!(
        "loadgen: baseline pass ({} worker(s), {} clients x {} requests) ...",
        opts.baseline_workers, opts.clients, opts.requests_per_client
    );
    let baseline = run_pass(opts.baseline_workers, opts, &fixtures);
    eprintln!(
        "loadgen: loaded pass ({} worker(s), same mix) ...",
        opts.workers
    );
    let loaded = run_pass(opts.workers, opts, &fixtures);

    let payloads_identical = baseline.payloads == loaded.payloads;
    let payload_digest = fnv1a64(&loaded.payloads);
    let (required, effective) = required_ratio(opts.workers);
    let ratio = if baseline.requests_per_sec > 0.0 {
        loaded.requests_per_sec / baseline.requests_per_sec
    } else {
        0.0
    };
    let gate = GateResult {
        baseline_rps: baseline.requests_per_sec,
        loaded_rps: loaded.requests_per_sec,
        ratio,
        effective_parallelism: effective,
        required_ratio: required,
        pass: ratio >= required && payloads_identical && baseline.errors == 0 && loaded.errors == 0,
    };
    LoadReport {
        options: opts.clone(),
        passes: vec![baseline, loaded],
        payloads_identical,
        payload_digest,
        gate,
    }
}

/// One pass as JSON. The latency and width fields are `null` when
/// absent (an idle pass measured nothing; `0` would read as a
/// measurement).
fn pass_json(pass: &PassResult) -> Value {
    let stats = &pass.stats;
    object! {
        "workers": pass.workers, "requests": pass.requests, "ok": pass.ok, "errors": pass.errors,
        "elapsed_secs": pass.elapsed_secs, "requests_per_sec": pass.requests_per_sec,
        "keygen": stats.keygen, "derive": stats.derive, "validate": stats.validate,
        "p50_us": stats.p50_us, "p99_us": stats.p99_us, "max_us": stats.max_us,
        "batches": stats.batches, "batched_requests": stats.batched_requests,
        "mean_batch_width": stats.mean_batch_width(),
        "worker_completed": stats.worker_completed.iter().copied().collect::<Value>(),
    }
}

/// The whole report (see DESIGN.md §10 for the schema).
pub fn report_json(report: &LoadReport) -> Value {
    let (opts, gate) = (&report.options, &report.gate);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    object! {
        "schema": "mpise-loadgen/v1", "date": utc_date_string(),
        "provenance": mpise_obs::Provenance::collect().json(),
        "mode": if opts.smoke { "smoke" } else { "full" },
        "seed": opts.seed, "clients": opts.clients, "requests_per_client": opts.requests_per_client,
        "batch_lanes": opts.batch_lanes, "host_parallelism": cores,
        "passes": report.passes.iter().map(pass_json).collect::<Value>(),
        "payloads": object! {
            "digest_fnv1a64": format!("{:#018x}", report.payload_digest),
            "bytes": report.passes.last().map_or(0, |p| p.payloads.len()),
            "identical_across_passes": report.payloads_identical,
        },
        "gate": object! {
            "baseline_workers": opts.baseline_workers, "loaded_workers": opts.workers,
            "baseline_rps": gate.baseline_rps, "loaded_rps": gate.loaded_rps, "ratio": gate.ratio,
            "effective_parallelism": gate.effective_parallelism,
            "required_ratio": gate.required_ratio, "pass": gate.pass,
        },
    }
}

fn print_summary(report: &LoadReport) {
    for pass in &report.passes {
        println!(
            "pass with {} worker(s): {:.2} req/s ({} ok / {} requests, {:.2}s)",
            pass.workers, pass.requests_per_sec, pass.ok, pass.requests, pass.elapsed_secs
        );
        println!("{}", pass.stats);
    }
    println!(
        "payloads: {} bytes, digest {:#018x}, identical across passes: {}",
        report.passes.last().map_or(0, |p| p.payloads.len()),
        report.payload_digest,
        report.payloads_identical
    );
    println!(
        "gate: {:.2}x measured vs {:.2}x required (effective parallelism {})",
        report.gate.ratio, report.gate.required_ratio, report.gate.effective_parallelism
    );
}

const USAGE: &str = "usage: loadgen [--smoke] [--workers N] [--baseline-workers N] \
                     [--clients N] [--requests N] [--lanes N] [--seed N] [--out PATH] \
                     [--metrics-out PATH] [--obs-out PATH]\n\
                     \n\
                     Runs the deterministic client mix against a 1-worker baseline\n\
                     and an N-worker engine, writes LOAD_<utc-date>.json, and exits\n\
                     non-zero when the multi-worker throughput gate fails.\n\
                     --smoke starts from the CI-sized preset; any other flag\n\
                     overrides it, before or after --smoke.\n\
                     --metrics-out / --obs-out enable telemetry and\n\
                     dump the Prometheus text / mpise-obs/v1 JSON snapshot.";

/// Parses `loadgen`'s arguments. `--smoke` selects
/// [`LoadgenOptions::smoke`] as the starting point and every other flag
/// is applied on top of it, so an explicit flag wins in either order.
///
/// # Errors
///
/// Returns the exit code and the message to print: 0 and the usage
/// text for `--help`, 2 for a bad argument.
pub fn parse_args(args: &[String]) -> Result<LoadgenOptions, (i32, String)> {
    let bad = |msg: String| (2, format!("loadgen: {msg}"));
    let mut flags = Vec::new();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = match flag.as_str() {
            "--smoke" => None,
            "--help" | "-h" => return Err((0, USAGE.to_owned())),
            "--workers" | "--baseline-workers" | "--clients" | "--requests" | "--lanes"
            | "--seed" | "--out" | "--metrics-out" | "--obs-out" => Some(
                iter.next()
                    .ok_or_else(|| bad(format!("{flag} requires a value")))?,
            ),
            other => return Err(bad(format!("unknown argument `{other}` (try --help)"))),
        };
        flags.push((flag.as_str(), value));
    }
    let mut opts = if flags.iter().any(|&(flag, _)| flag == "--smoke") {
        LoadgenOptions::smoke()
    } else {
        LoadgenOptions::default()
    };
    for (flag, value) in flags {
        let Some(value) = value else { continue };
        let count = || -> Result<usize, (i32, String)> {
            let n: usize = value
                .parse()
                .map_err(|_| bad(format!("{flag} requires a positive integer")))?;
            Ok(n.max(1))
        };
        match flag {
            "--workers" => opts.workers = count()?,
            "--baseline-workers" => opts.baseline_workers = count()?,
            "--clients" => opts.clients = count()?,
            "--requests" => opts.requests_per_client = count()?,
            "--lanes" => opts.batch_lanes = count()?,
            "--seed" => {
                opts.seed = value
                    .parse()
                    .map_err(|_| bad(format!("{flag} requires an integer")))?;
            }
            "--out" => opts.out = Some(value.clone()),
            "--metrics-out" => opts.metrics_out = Some(value.clone()),
            "--obs-out" => opts.obs_out = Some(value.clone()),
            _ => unreachable!("every flag with a value is listed above"),
        }
    }
    Ok(opts)
}

/// Command-line entry point of the `loadgen` binaries; returns the
/// process exit code (0 = gate passed).
pub fn run_cli(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err((code, msg)) => {
            eprintln!("{msg}");
            return code;
        }
    };

    // Telemetry is opt-in: either output flag turns it on.
    if opts.metrics_out.is_some() || opts.obs_out.is_some() {
        mpise_obs::set_enabled(true);
    }

    let report = run(&opts);
    print_summary(&report);

    let path = opts
        .out
        .clone()
        .unwrap_or_else(|| format!("LOAD_{}.json", utc_date_string()));
    if let Err(e) = std::fs::write(&path, format!("{}\n", report_json(&report))) {
        eprintln!("loadgen: failed to write {path}: {e}");
        return 2;
    }
    println!("\nwrote {path}");

    // Both dumps export the loaded pass's registry.
    let metrics = &report.passes.last().expect("loaded pass").metrics;
    if let Some(path) = &opts.metrics_out {
        if let Err(e) = std::fs::write(path, metrics.render_prometheus()) {
            eprintln!("loadgen: failed to write {path}: {e}");
            return 2;
        }
        println!("wrote {path} (Prometheus text)");
    }
    if let Some(path) = &opts.obs_out {
        let mut spans = mpise_obs::SpanTree::default();
        for pass in &report.passes {
            spans.merge(pass.spans.clone());
        }
        let snapshot = mpise_obs::Snapshot {
            provenance: mpise_obs::Provenance::collect(),
            metrics: metrics.metrics_json(),
            spans,
        };
        if let Err(e) = std::fs::write(path, format!("{}\n", snapshot.to_json())) {
            eprintln!("loadgen: failed to write {path}: {e}");
            return 2;
        }
        println!("wrote {path} (mpise-obs/v1 snapshot)");
    }

    if report.gate.pass {
        println!("gate: multi-worker throughput and payload determinism — PASS");
        0
    } else {
        println!(
            "gate: FAIL — ratio {:.2} (required {:.2}), payloads identical: {}",
            report.gate.ratio, report.gate.required_ratio, report.payloads_identical
        );
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &str) -> Result<LoadgenOptions, (i32, String)> {
        let args: Vec<String> = args.split_whitespace().map(str::to_owned).collect();
        parse_args(&args)
    }

    #[test]
    fn explicit_flags_win_over_smoke_in_either_order() {
        for args in ["--workers 8 --smoke", "--smoke --workers 8"] {
            let opts = parse(args).expect("valid arguments");
            assert!(opts.smoke, "{args}");
            assert_eq!(opts.workers, 8, "{args}");
            assert_eq!(opts.requests_per_client, 3, "{args}");
        }
        let opts = parse(
            "--seed 9 --clients 2 --requests 5 --lanes 1 --baseline-workers 2 \
             --out x.json --smoke",
        );
        let want = LoadgenOptions {
            seed: 9,
            clients: 2,
            requests_per_client: 5,
            batch_lanes: 1,
            baseline_workers: 2,
            out: Some("x.json".to_owned()),
            ..LoadgenOptions::smoke()
        };
        assert_eq!(opts, Ok(want));
        assert_eq!(parse(""), Ok(LoadgenOptions::default()));
    }

    #[test]
    fn rejects_bad_arguments() {
        let code = |args| parse(args).unwrap_err().0;
        assert_eq!(code("--workers"), 2);
        assert_eq!(code("--workers x"), 2);
        assert_eq!(code("--bogus"), 2);
        assert_eq!(code("--help"), 0);
    }

    #[test]
    fn seed_stream_is_stable() {
        // Pin the SplitMix64 stream: the request mix (and therefore
        // the golden payload digests) depends on it.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn plan_covers_every_request_kind() {
        let fixtures = Fixtures {
            valid1: PublicKey::BASE,
            valid2: PublicKey::BASE,
            bogus: PublicKey { a: U512::ONE },
            sparse: PrivateKey {
                exponents: [0; NUM_PRIMES],
            },
        };
        let mut kinds = [false; 3];
        for i in 0..64 {
            match plan_request(LOADGEN_SEED, 0, i, &fixtures, false).1 {
                Request::ValidatePublicKey { .. } => kinds[0] = true,
                Request::DeriveSharedSecret { .. } => kinds[1] = true,
                Request::Keygen { .. } => kinds[2] = true,
            }
        }
        assert_eq!(kinds, [true; 3], "mix exercises all request kinds");
        // Smoke mode avoids keygen.
        for i in 0..64 {
            assert!(!matches!(
                plan_request(LOADGEN_SEED, 0, i, &fixtures, true).1,
                Request::Keygen { .. }
            ));
        }
    }

    #[test]
    fn required_ratio_scales_with_parallelism() {
        let (r, eff) = required_ratio(1);
        assert_eq!(eff, 1);
        assert!((r - 0.75).abs() < 1e-9);
        let (r4, eff4) = required_ratio(4);
        assert!(eff4 >= 1);
        assert!((0.75..=2.0).contains(&r4));
    }

    #[test]
    fn report_json_passes_the_artifact_schema_check() {
        let opts = LoadgenOptions {
            workers: 2,
            clients: 2,
            requests_per_client: 2,
            ..LoadgenOptions::smoke()
        };
        let report = run(&opts);
        let doc = mpise_obs::json::parse(&report_json(&report).to_string()).expect("valid JSON");
        assert_eq!(
            mpise_obs::json::check_artifact(&doc),
            Ok("mpise-loadgen/v1")
        );
        assert_eq!(doc["passes"][1]["requests"], Value::from(4u64));
        assert_eq!(
            doc["payloads"]["digest_fnv1a64"],
            Value::from(format!("{:#018x}", report.payload_digest))
        );
        assert_eq!(
            doc["payloads"]["identical_across_passes"],
            Value::Bool(true)
        );
    }
}
