//! Timing oracle for the block-at-a-time run loop.
//!
//! `Machine::run` replays each straight-line block's timing from a
//! summary instead of retiring its instructions one by one, and runs
//! MAC runs and other fused runs as one micro-op each. Here every
//! program also runs with a tracer attached, one instruction at a time
//! and never fused, and `mpise_conformance::fuzz::oracle` feeds the
//! traced instruction sequence into the public `PipelineModel::retire`,
//! which re-derives each instruction's timing facts on every call. The
//! untraced run's cycles and every `TimingStats` field must equal that
//! oracle's exactly, and a kernel's result words the traced run's.
//!
//! Under the Rocket defaults no result is still in flight when a block
//! is entered after a control instruction (no latency exceeds 2, and a
//! divide blocks issue until its result is ready), so every entry is
//! clean. With 3-cycle multiplies and loads, as in the ablation's
//! timing sweep, a value produced just before a branch can still be in
//! flight when the next block starts; the loops and fuzz programs run
//! under both, so the per-instruction fallback is checked too.

use mpise_conformance::fuzz::{gen_program, oracle, ExtChoice};
use mpise_fp::kernels::ablation::{karatsuba_int_mul, rolled_int_mul};
use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind};
use mpise_fp::measure::{call_kernel, kernel_machine};
use mpise_sim::asm::Program;
use mpise_sim::machine::RunStats;
use mpise_sim::trace::Tracer;
use mpise_sim::{Machine, PipelineModel, TimingConfig};

/// The Rocket defaults, and 3-cycle multiplies and loads.
fn timings() -> [TimingConfig; 2] {
    let slow = TimingConfig {
        mul_latency: 3,
        load_latency: 3,
        ..TimingConfig::default()
    };
    [TimingConfig::default(), slow]
}

fn assert_matches(what: &str, stats: &RunStats, model: &PipelineModel) {
    assert_eq!(stats.cycles, model.cycles(), "{what}: cycles");
    assert_eq!(stats.timing, *model.stats(), "{what}: timing");
}

/// Calls `program` under `timing` twice on one kernel machine (the
/// second call replays the summaries the first one built) and once
/// traced on another.
fn check_kernel(
    what: &str,
    (config, timing): (Config, TimingConfig),
    program: &Program,
    inputs: &[&[u64]],
    out: usize,
) {
    let machine = || {
        let mut m = kernel_machine(config, program);
        m.set_timing(timing);
        m
    };
    let mut m = machine();
    let (mut first_out, mut second_out) = (vec![0; out], vec![0; out]);
    let first = call_kernel(&mut m, inputs, &mut first_out).expect("kernel runs");
    let second = call_kernel(&mut m, inputs, &mut second_out).expect("kernel runs");
    assert_eq!(first, second, "{what}: second call");
    assert_eq!(first_out, second_out, "{what}: second call's result");

    let mut traced = machine();
    traced.set_tracer(Some(Tracer::new(1 << 20)));
    let mut traced_out = vec![0; out];
    let stats = call_kernel(&mut traced, inputs, &mut traced_out).expect("kernel runs");
    assert_eq!(stats, first, "{what}: traced run");
    assert_eq!(traced_out, first_out, "{what}: traced run's result");
    let sentinel = traced.return_sentinel();
    assert_matches(what, &first, &oracle(&mut traced, timing, sentinel));
}

#[test]
fn table4_kernels_match_the_oracle() {
    for config in Config::ALL {
        let set = KernelSet::build(config);
        for op in OpKind::ALL {
            let (words, out) = op.shape(&config);
            let operand = vec![3u64; words];
            let inputs = vec![operand.as_slice(); op.arity()];
            let what = format!("{config} {op:?}");
            let machine = (config, TimingConfig::default());
            check_kernel(&what, machine, set.kernel(op), &inputs, out);
        }
    }
}

#[test]
fn ablation_kernels_match_the_oracle() {
    for config in [Config::ALL[0], Config::ALL[1]] {
        let ise = config.ise == IseMode::IseSupported;
        let n = config.elem_words();
        let operand = vec![u64::MAX; n];
        for (name, program) in [
            ("rolled", rolled_int_mul(ise)),
            ("karatsuba", karatsuba_int_mul(ise)),
        ] {
            for timing in timings() {
                let what = format!("{config} {name} {timing:?}");
                let inputs = [operand.as_slice(), &operand];
                check_kernel(&what, (config, timing), &program, &inputs, 2 * n);
            }
        }
    }
}

#[test]
fn fuzz_programs_match_the_oracle() {
    for ext in ExtChoice::ALL {
        for seed in 0..300u64 {
            let prog = gen_program(ext, seed);
            for timing in timings() {
                let make = || {
                    let mut m = Machine::with_ext(ext.extension());
                    m.set_timing(timing);
                    m.load_program(&Program::from_insts(prog.materialize()));
                    for &(r, v) in &prog.init {
                        m.cpu.write_reg(r, v);
                    }
                    m
                };
                let what = format!("{} seed {seed} {timing:?}", ext.label());
                let mut m = make();
                let stats = m.run().expect("fuzz programs are trap-free");
                let mut traced = make();
                traced.set_tracer(Some(Tracer::new(1 << 20)));
                assert_eq!(traced.run(), Ok(stats), "{what}: traced run");
                assert_eq!(traced.cpu.regs(), m.cpu.regs(), "{what}: registers");
                let end_pc = traced.cpu.pc;
                assert_matches(&what, &stats, &oracle(&mut traced, timing, end_pc));
            }
        }
    }
}
