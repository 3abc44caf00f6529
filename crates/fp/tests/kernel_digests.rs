//! Pins the encoded machine words of every generated kernel.
//!
//! Each entry is the word count and the FNV-1a 64 digest of the
//! little-endian bytes of `Program::encode`: the 32 Table 4 kernels,
//! the Listings 1–4 and carry-propagation snippets, and the two
//! ablation multiplications in both modes. A refactor of the
//! generators must leave every entry unchanged; a deliberate change to
//! an emitted sequence updates its entry here and re-measures Table 4.

use mpise_fp::kernels::{ablation, mac, Config, IseMode, KernelSet};
use mpise_obs::fnv1a64;
use mpise_sim::asm::Program;
use mpise_sim::ext::IsaExtension;

/// `(name, words, digest)` in the order [`actual`] lists them.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64)] = &[
    ("full-radix ISA-only IntMul", 579, 0xe76cd085fd4b2998),
    ("full-radix ISA-only IntSqr", 507, 0xa77f007107e1835f),
    ("full-radix ISA-only MontRedc", 677, 0x4a60595b83e6bc29),
    ("full-radix ISA-only FastReduce", 105, 0xc374c48d2d8e0253),
    ("full-radix ISA-only FpAdd", 150, 0x5f1baf6daf40746b),
    ("full-radix ISA-only FpSub", 134, 0x297f33aa225dd992),
    ("full-radix ISA-only FpMul", 1333, 0x5692c20a6e79e888),
    ("full-radix ISA-only FpSqr", 1261, 0x9a904bdaea411fdb),
    ("full-radix ISE-supported IntMul", 323, 0x88103f2362d7b2ef),
    ("full-radix ISE-supported IntSqr", 315, 0x7bedd41796a94f07),
    ("full-radix ISE-supported MontRedc", 405, 0xa34ebbc50fb2ef52),
    ("full-radix ISE-supported FastReduce", 105, 0xc374c48d2d8e0253),
    ("full-radix ISE-supported FpAdd", 150, 0x5f1baf6daf40746b),
    ("full-radix ISE-supported FpSub", 134, 0x297f33aa225dd992),
    ("full-radix ISE-supported FpMul", 805, 0x4440053248871c3c),
    ("full-radix ISE-supported FpSqr", 797, 0xce53b2b2b4aaf70c),
    ("reduced-radix ISA-only IntMul", 632, 0xe8287e43b4a77abd),
    ("reduced-radix ISA-only IntSqr", 430, 0x166d1938a08f1db9),
    ("reduced-radix ISA-only MontRedc", 707, 0x791657bd6ba31063),
    ("reduced-radix ISA-only FastReduce", 111, 0x0752778f8f038f0a),
    ("reduced-radix ISA-only FpAdd", 144, 0xa719b7b5a7504622),
    ("reduced-radix ISA-only FpSub", 135, 0x16d3f5028b2ef451),
    ("reduced-radix ISA-only FpMul", 1417, 0x5537875a9ecbba85),
    ("reduced-radix ISA-only FpSqr", 1217, 0x2aa97699ea50554b),
    ("reduced-radix ISE-supported IntMul", 274, 0x3fcf3090dfbeb0e3),
    ("reduced-radix ISE-supported IntSqr", 220, 0x15e9a033041ed5f9),
    ("reduced-radix ISE-supported MontRedc", 311, 0x07d35ca84a0c4ef2),
    ("reduced-radix ISE-supported FastReduce", 103, 0xb8b0e6147cc7f1b6),
    ("reduced-radix ISE-supported FpAdd", 128, 0x5de076574bba3fd2),
    ("reduced-radix ISE-supported FpSub", 119, 0x2e84c0ed4b757809),
    ("reduced-radix ISE-supported FpMul", 655, 0xefb9c4b053f443c2),
    ("reduced-radix ISE-supported FpSqr", 603, 0x14b4ce96c3a71936),
    ("Listing 1: full-radix MAC, ISA-only", 8, 0xfac9ef70dab12598),
    ("Listing 2: reduced-radix MAC, ISA-only", 6, 0x5ae0f962ee327b10),
    ("Listing 3: full-radix MAC, ISE", 4, 0x5b994f10f63f8a5e),
    ("Listing 4: reduced-radix MAC, ISE", 2, 0x6d2ae1a4c3954ee7),
    ("carry propagation, ISA-only", 3, 0x607ca9febac35b59),
    ("carry propagation, ISE (sraiadd)", 2, 0x4dc140ed2353097b),
    ("Karatsuba ISA-only", 850, 0xf285b5f8bc5e6d9d),
    ("rolled ISA-only", 40, 0xcb906baa0d446cb5),
    ("Karatsuba ISE-supported", 658, 0x5391d35c16afed6d),
    ("rolled ISE-supported", 36, 0xa7c5ff89638320b8),
];

/// The word count and digest of `program` encoded for `ext`.
fn pin(program: &Program, ext: &IsaExtension) -> (usize, u64) {
    let words = program.encode(ext).expect("kernel encodes");
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    (words.len(), fnv1a64(&bytes))
}

fn actual() -> Vec<(String, usize, u64)> {
    let mut out = Vec::new();
    let mut push = |name: String, program: &Program, ext: &IsaExtension| {
        let (words, digest) = pin(program, ext);
        out.push((name, words, digest));
    };
    for config in Config::ALL {
        let set = KernelSet::build(config);
        for (op, program) in set.iter() {
            push(format!("{config} {op:?}"), program, &config.extension());
        }
    }
    for (name, build, ext, _) in mac::SNIPPETS {
        push(name.to_owned(), &build(), &ext());
    }
    // The full-radix configurations, ISA-only then ISE-supported.
    for config in &Config::ALL[..2] {
        let (ise, mode, ext) = (
            config.ise == IseMode::IseSupported,
            config.ise,
            config.extension(),
        );
        push(
            format!("Karatsuba {mode}"),
            &ablation::karatsuba_int_mul(ise),
            &ext,
        );
        push(
            format!("rolled {mode}"),
            &ablation::rolled_int_mul(ise),
            &ext,
        );
    }
    out
}

#[test]
fn every_kernel_encodes_to_its_pinned_words() {
    let got = actual();
    let table: String = got
        .iter()
        .map(|(name, words, digest)| format!("    ({name:?}, {words}, {digest:#018x}),\n"))
        .collect();
    assert_eq!(got.len(), 32 + 6 + 4, "kernel list changed:\n{table}");
    assert_eq!(PINS.len(), got.len(), "pin table:\n{table}");
    let mismatches: Vec<String> = PINS
        .iter()
        .zip(&got)
        .filter(|((pn, pw, pd), (gn, gw, gd))| (*pn, pw, pd) != (gn.as_str(), gw, gd))
        .map(|((pn, pw, pd), (gn, gw, gd))| {
            format!("{pn} ({pw} words, {pd:#018x}) is now {gn} ({gw} words, {gd:#018x})")
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "kernel words changed:\n{}",
        mismatches.join("\n")
    );
}
