//! Golden determinism test for the benchmark pipeline (ISSUE 2,
//! satellite d): the simulated cycle counts for all 32 kernels —
//! serialized exactly as the `kernels` section of `BENCH_<date>.json` —
//! must be byte-identical across two same-seed runs. Anything
//! nondeterministic in the simulator hot path (hash-ordered iteration,
//! uninitialised state, racy parallel measurement) shows up here as a
//! diff.

use mpise_bench::pipeline::kernels_json;
use mpise_fp::kernels::{Config, OpKind};
use mpise_fp::measure::measure_matrix_parallel;

#[test]
fn kernel_matrix_is_byte_identical_across_runs() {
    let first = measure_matrix_parallel();
    let second = measure_matrix_parallel();

    // Full coverage: 4 configs x 8 ops, in Config::ALL order.
    assert_eq!(first.len(), Config::ALL.len());
    for (i, (config, measurements)) in first.iter().enumerate() {
        assert_eq!(*config, Config::ALL[i]);
        assert_eq!(measurements.len(), OpKind::ALL.len());
    }

    let a = kernels_json(&first);
    let b = kernels_json(&second);
    assert!(
        a == b,
        "kernel matrix serialization differs between two same-seed runs:\n\
         --- first ---\n{a}\n--- second ---\n{b}"
    );
}
