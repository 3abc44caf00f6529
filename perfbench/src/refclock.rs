//! Host time scaled to a fixed reference speed.
//!
//! A shared machine changes speed by up to 2× within seconds, through
//! clock frequency and contention for the core's sibling thread. That
//! swamps wall-clock medians. So every host time the benchmark reports
//! is wall time × `NOMINAL_NS / r`. Here `r` is the ns per call of a fixed
//! 512-bit Montgomery multiplication, timed right before and right after
//! the measured work. The reference is written here and shares no code
//! with the repository. A change to the repository's code therefore
//! moves scaled times as it moves wall time, while a change in machine
//! speed cancels out.

use std::hint::black_box;
use std::time::Instant;

/// Reference ns per multiplication at which scaled time equals wall time
/// (about an uncontended 2 GHz x86-64 core).
pub const NOMINAL_NS: f64 = 80.0;

/// Multiplications per reading (a few milliseconds).
const CALLS: u32 = 20_000;

/// An odd 511-bit modulus, little-endian limbs. The products are never
/// used; they only keep the multiplier busy with a fixed amount of work.
const MODULUS: [u64; 8] = [
    u64::MAX - 568,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX,
    u64::MAX >> 1,
];

/// `-MODULUS⁻¹ mod 2⁶⁴` by Newton iteration.
fn neg_inv() -> u64 {
    let mut inv = 1u64;
    for _ in 0..6 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(MODULUS[0].wrapping_mul(inv)));
    }
    inv.wrapping_neg()
}

/// CIOS Montgomery multiplication without the final subtraction
/// (branch-free, so every call does the same work).
fn mont_mul(a: &[u64; 8], b: &[u64; 8], n0: u64) -> [u64; 8] {
    let mut t = [0u64; 10];
    for &bi in b {
        let mut carry = 0u128;
        for j in 0..8 {
            let s = u128::from(t[j]) + u128::from(a[j]) * u128::from(bi) + carry;
            t[j] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[8]) + carry;
        t[8] = s as u64;
        t[9] = (s >> 64) as u64;
        let m = t[0].wrapping_mul(n0);
        let mut carry = (u128::from(t[0]) + u128::from(m) * u128::from(MODULUS[0])) >> 64;
        for j in 1..8 {
            let s = u128::from(t[j]) + u128::from(m) * u128::from(MODULUS[j]) + carry;
            t[j - 1] = s as u64;
            carry = s >> 64;
        }
        let s = u128::from(t[8]) + carry;
        t[7] = s as u64;
        t[8] = t[9] + (s >> 64) as u64;
    }
    std::array::from_fn(|i| t[i])
}

/// One reading: wall ns per reference multiplication, now.
pub fn reference_ns() -> f64 {
    let n0 = neg_inv();
    let y = [0x5555_5555_5555_5555u64; 8];
    let mut x = [3u64; 8];
    let t = Instant::now();
    for _ in 0..CALLS {
        x = mont_mul(black_box(&x), &y, n0);
    }
    black_box(x);
    t.elapsed().as_nanos() as f64 / f64::from(CALLS)
}

/// The factor that scales wall time measured between two readings.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * NOMINAL_NS / (before + after)
}

/// Runs `f` between two readings; returns its result and its scaled
/// duration in ns.
pub fn scaled_ns<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = reference_ns();
    let t = Instant::now();
    let out = f();
    let wall = t.elapsed().as_nanos() as f64;
    (out, wall * scale(before, reference_ns()))
}
