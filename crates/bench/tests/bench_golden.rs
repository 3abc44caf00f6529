//! Golden values of the benchmark pipeline: the simulated cycles and
//! retired instructions of all 32 kernels, measured as `bench` measures
//! them, against a committed table. The cycles are EXPERIMENTS.md's
//! Table 4. Anything that moves a kernel's cost — an emitter change, a
//! pipeline-model change, nondeterminism in the simulator hot path —
//! fails here and names the cells that moved.

use mpise_bench::pipeline::BENCH_SEED;
use mpise_fp::kernels::{Config, OpKind};
use mpise_fp::measure::{kernel_matrix, VALIDATION_CASES};

/// `(cycles, instret)` per kernel: one row per [`OpKind::ALL`] entry
/// (Table 4's rows), one column per [`Config::ALL`] entry (full-radix
/// ISA-only, full-radix ISE, reduced-radix ISA-only, reduced-radix ISE).
const GOLDEN: [[(u64, u64); 4]; 8] = [
    [(645, 579), (325, 323), (715, 632), (293, 274)], // IntMul
    [(569, 507), (317, 315), (462, 430), (247, 220)], // IntSqr
    [(767, 677), (431, 405), (817, 707), (365, 311)], // MontRedc
    [(107, 105), (107, 105), (113, 111), (105, 103)], // FastReduce
    [(152, 150), (152, 150), (146, 144), (130, 128)], // FpAdd
    [(144, 134), (144, 134), (146, 135), (130, 119)], // FpSub
    [(1488, 1333), (832, 805), (1609, 1417), (727, 655)], // FpMul
    [(1412, 1261), (824, 797), (1358, 1217), (683, 603)], // FpSqr
];

#[test]
fn kernel_matrix_matches_committed_table() {
    let matrix = kernel_matrix(VALIDATION_CASES, BENCH_SEED);
    assert_eq!(matrix.len(), Config::ALL.len());
    let mut moved = Vec::new();
    for (col, (config, cells)) in matrix.iter().enumerate() {
        assert_eq!(*config, Config::ALL[col]);
        assert_eq!(cells.len(), OpKind::ALL.len());
        for (row, cell) in cells.iter().enumerate() {
            let m = cell.result.as_ref().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(m.op, OpKind::ALL[row]);
            let (got, want) = ((m.cycles, m.instret), GOLDEN[row][col]);
            if got != want {
                moved.push(format!(
                    "{config} {:?}: (cycles, instret) = {got:?}, pinned {want:?}",
                    m.op
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "kernel costs moved:\n{}",
        moved.join("\n")
    );
}
