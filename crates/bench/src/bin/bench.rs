//! The reproducible benchmark pipeline (kernel matrix + CSIDH action →
//! `BENCH_<date>.json`). See
//! [`mpise_bench::pipeline`] and DESIGN.md §9.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(mpise_bench::pipeline::run_cli(&args));
}
