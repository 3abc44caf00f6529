//! Parameterized arithmetic-block generators.

use crate::netlist::{Bus, Net, Netlist, ZERO};

/// Ripple-carry adder: returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if the operand widths differ.
pub fn ripple_adder(n: &mut Netlist, a: &[Net], b: &[Net]) -> (Bus, Net) {
    assert_eq!(a.len(), b.len());
    let mut sum = Vec::with_capacity(a.len());
    let mut carry = ZERO;
    for i in 0..a.len() {
        let (s, c) = if i == 0 {
            n.half_adder(a[0], b[0])
        } else {
            n.full_adder(a[i], b[i], carry)
        };
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Kogge–Stone parallel-prefix adder: returns `(sum, carry_out)`.
///
/// Log-depth carries at the cost of O(n log n) prefix cells — the
/// adder family synthesis tools pick for timing-critical wide adds.
///
/// # Panics
///
/// Panics if the operand widths differ or are zero.
pub fn kogge_stone_adder(n: &mut Netlist, a: &[Net], b: &[Net]) -> (Bus, Net) {
    assert_eq!(a.len(), b.len());
    assert!(!a.is_empty());
    let w = a.len();
    // Generate/propagate.
    let mut g: Bus = (0..w).map(|i| n.and2(a[i], b[i])).collect();
    let mut p: Bus = (0..w).map(|i| n.xor2(a[i], b[i])).collect();
    let p0 = p.clone(); // save the half-sum bits
    let mut dist = 1;
    while dist < w {
        let mut g2 = g.clone();
        let mut p2 = p.clone();
        for i in dist..w {
            // (g,p)_i = (g_i | p_i & g_{i-d}, p_i & p_{i-d})
            let t = n.and2(p[i], g[i - dist]);
            g2[i] = n.or2(g[i], t);
            p2[i] = n.and2(p[i], p[i - dist]);
        }
        g = g2;
        p = p2;
        dist *= 2;
    }
    // sum_i = p0_i xor carry_{i-1}; carry_i = g_i (prefix).
    let mut sum = Vec::with_capacity(w);
    sum.push(p0[0]);
    for i in 1..w {
        sum.push(n.xor2(p0[i], g[i - 1]));
    }
    (sum, g[w - 1])
}

/// Logarithmic barrel shifter: shifts `a` right by the binary amount
/// `sh` (little-endian select bus). `arithmetic` selects sign fill.
pub fn barrel_shifter_right(n: &mut Netlist, a: &[Net], sh: &[Net], arithmetic: bool) -> Bus {
    let w = a.len();
    let fill = if arithmetic { a[w - 1] } else { ZERO };
    let mut cur: Bus = a.to_vec();
    for (stage, &sel) in sh.iter().enumerate() {
        let dist = 1usize << stage;
        if dist >= w {
            // Shifting by >= w replaces everything with fill when sel.
            cur = (0..w).map(|i| n.mux2(sel, fill, cur[i])).collect();
            continue;
        }
        let mut next = Vec::with_capacity(w);
        for i in 0..w {
            let shifted = if i + dist < w { cur[i + dist] } else { fill };
            next.push(n.mux2(sel, shifted, cur[i]));
        }
        cur = next;
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::{assign_bus, bus_value};

    #[test]
    fn ripple_adder_adds() {
        for (x, y) in [(0u64, 0u64), (5, 9), (255, 1), (170, 85)] {
            let mut n = Netlist::new("t");
            let a = n.input_bus(8);
            let b = n.input_bus(8);
            let (s, co) = ripple_adder(&mut n, &a, &b);
            let mut iv = assign_bus(&a, x);
            iv.extend(assign_bus(&b, y));
            let vals = n.evaluate(&iv);
            let got = bus_value(&s, &vals) | ((vals[&co] as u64) << 8);
            assert_eq!(got, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn kogge_stone_matches_ripple() {
        for (x, y) in [
            (0u64, 0u64),
            (0xffff, 1),
            (0x1234, 0xfedc),
            (0xaaaa, 0x5555),
        ] {
            let mut n = Netlist::new("t");
            let a = n.input_bus(16);
            let b = n.input_bus(16);
            let (s, co) = kogge_stone_adder(&mut n, &a, &b);
            let mut iv = assign_bus(&a, x);
            iv.extend(assign_bus(&b, y));
            let vals = n.evaluate(&iv);
            let got = bus_value(&s, &vals) | ((vals[&co] as u64) << 16);
            assert_eq!(got, x + y, "{x}+{y}");
        }
    }

    #[test]
    fn barrel_shifter_logical_and_arithmetic() {
        for (v, sh) in [(0x80u64, 3u64), (0xff, 7), (0x5a, 0)] {
            let mut n = Netlist::new("t");
            let a = n.input_bus(8);
            let s = n.input_bus(3);
            let out_l = barrel_shifter_right(&mut n, &a, &s, false);
            let out_a = barrel_shifter_right(&mut n, &a, &s, true);
            let mut iv = assign_bus(&a, v);
            iv.extend(assign_bus(&s, sh));
            let vals = n.evaluate(&iv);
            assert_eq!(bus_value(&out_l, &vals), v >> sh, "logical {v}>>{sh}");
            let expect = ((v as i8 as i64) >> sh) as u64 & 0xff;
            assert_eq!(bus_value(&out_a, &vals), expect, "arith {v}>>{sh}");
        }
    }
}
