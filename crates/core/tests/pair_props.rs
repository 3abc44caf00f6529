//! Property test for the registered pair executors: on any operands,
//! each returns exactly what its two instructions' own executors
//! return, so running a pair as one step cannot change a result.

use mpise_core::full_radix::{MADDHU, MADDLU};
use mpise_core::reduced_radix::{MADD57HU, MADD57LU};
use mpise_core::{full_radix_ext, reduced_radix_ext};
use proptest::prelude::*;

/// The first difference between each MAC pair executor and its two
/// instructions' own executors on these operands.
fn mismatch(rs1: u64, rs2: u64, rs3a: u64, rs3b: u64) -> Option<String> {
    for (ext, first, second) in [
        (full_radix_ext(), MADDHU, MADDLU),
        (reduced_radix_ext(), MADD57HU, MADD57LU),
    ] {
        let exec = ext.pair(first, second).expect("the MAC halves are a pair");
        let single = |id| ext.by_id(id).expect("registered").exec;
        let got = exec(rs1, rs2, rs3a, rs3b);
        let want = (
            single(first)(rs1, rs2, rs3a, 0),
            single(second)(rs1, rs2, rs3b, 0),
        );
        if got != want {
            return Some(format!(
                "{first} {second} on {rs1:#x} {rs2:#x} {rs3a:#x} {rs3b:#x}: {got:x?} vs {want:x?}"
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
    for rs1 in edges {
        for rs2 in edges {
            for rs3a in edges {
                for rs3b in edges {
                    assert_eq!(mismatch(rs1, rs2, rs3a, rs3b), None);
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn pair_executors_match_the_single_executors(
        rs1 in any::<u64>(),
        rs2 in any::<u64>(),
        rs3a in any::<u64>(),
        rs3b in any::<u64>(),
    ) {
        prop_assert_eq!(mismatch(rs1, rs2, rs3a, rs3b), None);
    }
}
