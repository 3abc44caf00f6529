//! Timing oracle for the block-at-a-time run loop.
//!
//! `Machine::run` replays each straight-line block's timing from a
//! summary instead of retiring its instructions one by one. Here every
//! program also runs with a tracer attached, and the traced instruction
//! sequence is fed into the public `PipelineModel::retire`, which
//! re-derives each instruction's timing facts on every call. The
//! untraced run's cycles and every `TimingStats` field must equal that
//! oracle's exactly.
//!
//! Under the Rocket defaults no result is still in flight when a block
//! is entered after a control instruction (no latency exceeds 2, and a
//! divide blocks issue until its result is ready), so every entry is
//! clean. With 3-cycle multiplies and loads, as in the ablation's
//! timing sweep, a value produced just before a branch can still be in
//! flight when the next block starts; the loops and fuzz programs run
//! under both, so the per-instruction fallback is checked too.

use mpise_conformance::fuzz::{gen_program, ExtChoice};
use mpise_fp::kernels::ablation::{karatsuba_int_mul, rolled_int_mul};
use mpise_fp::kernels::{Config, IseMode, KernelSet, OpKind};
use mpise_fp::measure::{call_kernel, kernel_machine};
use mpise_sim::asm::Program;
use mpise_sim::machine::RunStats;
use mpise_sim::trace::Tracer;
use mpise_sim::{Inst, Machine, PipelineModel, TimingConfig};

/// The Rocket defaults, and 3-cycle multiplies and loads.
fn timings() -> [TimingConfig; 2] {
    let slow = TimingConfig {
        mul_latency: 3,
        load_latency: 3,
        ..TimingConfig::default()
    };
    [TimingConfig::default(), slow]
}

/// Re-times a finished traced run of `m` under `timing` with
/// `PipelineModel::retire`. `end_pc` is where execution continued
/// after the last instruction.
fn oracle(m: &mut Machine, timing: TimingConfig, end_pc: u64) -> PipelineModel {
    let trace = m.take_tracer().expect("tracer attached");
    let entries = trace.entries();
    assert_eq!(entries.len() as u64, trace.total, "trace kept every entry");
    let mut model = PipelineModel::new(timing);
    for (k, e) in entries.iter().enumerate() {
        let next_pc = entries.get(k + 1).map_or(end_pc, |n| n.pc);
        let taken = match e.inst {
            Inst::Jal { .. } | Inst::Jalr { .. } => true,
            Inst::Branch { .. } => next_pc != e.pc + 4,
            _ => false,
        };
        let unit = match e.inst {
            Inst::Custom { id, .. } => m.ext().by_id(id).map(|d| d.unit),
            _ => None,
        };
        model.retire(&e.inst, taken, unit);
    }
    model
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
    let mut out = vec![0; out];
    let machine = || {
        let mut m = kernel_machine(config, program);
        m.set_timing(timing);
        m
    };
    let mut m = machine();
    let first = call_kernel(&mut m, inputs, &mut out).expect("kernel runs");
    let second = call_kernel(&mut m, inputs, &mut out).expect("kernel runs");
    assert_eq!(first, second, "{what}: second call");

    let mut traced = machine();
    traced.set_tracer(Some(Tracer::new(1 << 20)));
    let stats = call_kernel(&mut traced, inputs, &mut out).expect("kernel runs");
    assert_eq!(stats, first, "{what}: traced run");
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
