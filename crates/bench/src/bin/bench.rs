//! Reproduces Table 4 and writes `BENCH_<date>.json`: the kernel
//! matrix, the CSIDH action estimate and its direct simulation. See
//! [`mpise_bench::pipeline`] and DESIGN.md §9.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mpise_bench::pipeline::run_cli(&args));
}
