//! Property test for the registered MAC pairs' chain executors: on any
//! operands, one pair returns exactly what its two instructions' own
//! executors return, and a run of pairs what they return folded over
//! the run, so running a pair or a run as one step cannot change a
//! result.

use mpise_core::full_radix::{MADDHU, MADDLU};
use mpise_core::reduced_radix::{MADD57HU, MADD57LU};
use mpise_core::{full_radix_ext, reduced_radix_ext};
use proptest::prelude::*;

/// The first difference between each MAC pair's chain executor and its
/// two instructions' own executors folded over the run: the values of
/// `regs` named by `srcs`, two per pair, from the addends `(h, l)`.
fn mismatch(regs: &[u64; 32], srcs: &[u8], h: u64, l: u64) -> Option<String> {
    for (ext, first, second) in [
        (full_radix_ext(), MADDHU, MADDLU),
        (reduced_radix_ext(), MADD57HU, MADD57LU),
    ] {
        let chain = ext.chain(first, second).expect("the MAC halves are a pair");
        let single = |id| ext.by_id(id).expect("registered").exec;
        let got = chain(regs, srcs, h, l);
        let want = srcs.chunks_exact(2).fold((h, l), |(h, l), s| {
            let (rs1, rs2) = (regs[usize::from(s[0])], regs[usize::from(s[1])]);
            (
                single(first)(rs1, rs2, h, 0),
                single(second)(rs1, rs2, l, 0),
            )
        });
        if got != want {
            return Some(format!(
                "{first} {second} on {srcs:?} from {h:#x} {l:#x}: {got:x?} vs {want:x?}"
            ));
        }
    }
    None
}

#[test]
fn pair_executors_match_the_single_executors_on_carry_edges() {
    let edges = [
        0,
        1,
        u64::MAX,
        u64::MAX - 1,
        (1 << 57) - 1,
        1 << 57,
        1 << 63,
    ];
    let mut regs = [0; 32];
    for rs1 in edges {
        for rs2 in edges {
            (regs[1], regs[2]) = (rs1, rs2);
            for h in edges {
                for l in edges {
                    assert_eq!(mismatch(&regs, &[1, 2], h, l), None);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn pair_executors_match_the_single_executors(
        regs in proptest::collection::vec(any::<u64>(), 32..33),
        srcs in proptest::collection::vec(0u8..32, 0..24),
        h in any::<u64>(),
        l in any::<u64>(),
    ) {
        let regs: [u64; 32] = regs.try_into().expect("32 registers");
        let srcs = &srcs[..srcs.len() / 2 * 2];
        prop_assert_eq!(mismatch(&regs, srcs, h, l), None);
    }
}
