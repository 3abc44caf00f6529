//! Gate-level netlist representation and builder.

use std::fmt;

/// Primitive cell kinds.
///
/// `DspMul` is a coarse-grained macro: an `n×n` unsigned multiplier
/// core that technology mapping assigns to DSP blocks rather than
/// LUTs, the way Vivado infers DSP48E1s for multiplier arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// 2-input AND.
    And2,
    /// 2-input OR.
    Or2,
    /// 2-input XOR.
    Xor2,
    /// 2:1 multiplexer (inputs: sel, a, b; output = sel ? a : b).
    Mux2,
    /// Half adder (outputs: sum, carry).
    HalfAdder,
    /// Full adder (outputs: sum, carry).
    FullAdder,
    /// D flip-flop.
    Dff,
    /// DSP-mapped multiplier macro (see [`CellKind`] docs); the
    /// `width` field of the cell records the operand width.
    DspMul,
}

impl CellKind {
    /// Number of logic inputs the cell consumes.
    pub(crate) fn arity(self) -> usize {
        match self {
            CellKind::Dff => 1,
            CellKind::And2 | CellKind::Or2 | CellKind::Xor2 | CellKind::HalfAdder => 2,
            CellKind::Mux2 | CellKind::FullAdder => 3,
            CellKind::DspMul => 0, // bus-level macro; inputs tracked separately
        }
    }
}

/// A net (wire) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Net(pub u32);

/// Constant-zero net (always net 0).
pub const ZERO: Net = Net(0);
/// Constant-one net (always net 1).
pub const ONE: Net = Net(1);

/// One instantiated cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The primitive kind.
    pub kind: CellKind,
    /// Input nets.
    pub inputs: Vec<Net>,
    /// Output nets (1 for gates, 2 for adders).
    pub outputs: Vec<Net>,
    /// Operand width for macro cells (0 otherwise).
    pub width: u32,
}

/// A bus is a little-endian vector of nets.
pub(crate) type Bus = Vec<Net>;

/// A netlist under construction.
///
/// # Examples
///
/// ```
/// use mpise_hw::netlist::Netlist;
/// let mut n = Netlist::new("demo");
/// let a = n.input_bus(4);
/// let b = n.input_bus(4);
/// let (sum, carry) = mpise_hw::generators::ripple_adder(&mut n, &a, &b);
/// n.output_bus(&sum);
/// n.output(carry);
/// assert_eq!(n.count(mpise_hw::netlist::CellKind::FullAdder)
///          + n.count(mpise_hw::netlist::CellKind::HalfAdder), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Netlist {
    name: &'static str,
    next_net: u32,
    cells: Vec<Cell>,
    inputs: Vec<Net>,
    outputs: Vec<Net>,
}

impl Netlist {
    /// Creates an empty netlist. Nets 0 and 1 are the constants.
    pub fn new(name: &'static str) -> Self {
        Netlist {
            name,
            next_net: 2,
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
        }
    }

    /// The netlist's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// All cells.
    pub(crate) fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Primary inputs.
    pub(crate) fn inputs(&self) -> &[Net] {
        &self.inputs
    }

    /// Primary outputs.
    pub(crate) fn outputs(&self) -> &[Net] {
        &self.outputs
    }

    fn fresh(&mut self) -> Net {
        let n = Net(self.next_net);
        self.next_net += 1;
        n
    }

    /// Declares a primary input.
    pub(crate) fn input(&mut self) -> Net {
        let n = self.fresh();
        self.inputs.push(n);
        n
    }

    /// Declares a bus of primary inputs.
    pub fn input_bus(&mut self, width: usize) -> Bus {
        (0..width).map(|_| self.input()).collect()
    }

    /// Marks a net as a primary output.
    pub fn output(&mut self, n: Net) {
        self.outputs.push(n);
    }

    /// Marks a bus as primary outputs.
    pub fn output_bus(&mut self, bus: &[Net]) {
        self.outputs.extend_from_slice(bus);
    }

    fn gate(&mut self, kind: CellKind, inputs: &[Net]) -> Net {
        debug_assert_eq!(inputs.len(), kind.arity());
        let out = self.fresh();
        self.cells.push(Cell {
            kind,
            inputs: inputs.to_vec(),
            outputs: vec![out],
            width: 0,
        });
        out
    }

    /// 2-input AND.
    pub(crate) fn and2(&mut self, a: Net, b: Net) -> Net {
        self.gate(CellKind::And2, &[a, b])
    }

    /// 2-input OR.
    pub(crate) fn or2(&mut self, a: Net, b: Net) -> Net {
        self.gate(CellKind::Or2, &[a, b])
    }

    /// 2-input XOR.
    pub(crate) fn xor2(&mut self, a: Net, b: Net) -> Net {
        self.gate(CellKind::Xor2, &[a, b])
    }

    /// 2:1 mux: `sel ? a : b`.
    pub(crate) fn mux2(&mut self, sel: Net, a: Net, b: Net) -> Net {
        self.gate(CellKind::Mux2, &[sel, a, b])
    }

    /// Half adder; returns `(sum, carry)`.
    pub(crate) fn half_adder(&mut self, a: Net, b: Net) -> (Net, Net) {
        let sum = self.fresh();
        let carry = self.fresh();
        self.cells.push(Cell {
            kind: CellKind::HalfAdder,
            inputs: vec![a, b],
            outputs: vec![sum, carry],
            width: 0,
        });
        (sum, carry)
    }

    /// Full adder; returns `(sum, carry)`.
    pub(crate) fn full_adder(&mut self, a: Net, b: Net, cin: Net) -> (Net, Net) {
        let sum = self.fresh();
        let carry = self.fresh();
        self.cells.push(Cell {
            kind: CellKind::FullAdder,
            inputs: vec![a, b, cin],
            outputs: vec![sum, carry],
            width: 0,
        });
        (sum, carry)
    }

    /// D flip-flop.
    pub(crate) fn dff(&mut self, d: Net) -> Net {
        self.gate(CellKind::Dff, &[d])
    }

    /// Registers a whole bus.
    pub(crate) fn dff_bus(&mut self, bus: &[Net]) -> Bus {
        bus.iter().map(|&n| self.dff(n)).collect()
    }

    /// Bitwise mux over buses.
    ///
    /// # Panics
    ///
    /// Panics if the buses differ in width.
    pub(crate) fn mux_bus(&mut self, sel: Net, a: &[Net], b: &[Net]) -> Bus {
        assert_eq!(a.len(), b.len());
        (0..a.len()).map(|i| self.mux2(sel, a[i], b[i])).collect()
    }

    /// Bitwise AND of a bus with one control net (mask gating).
    pub(crate) fn and_bus(&mut self, bus: &[Net], ctrl: Net) -> Bus {
        bus.iter().map(|&n| self.and2(n, ctrl)).collect()
    }

    /// A DSP-mapped `width × width` unsigned multiplier macro producing
    /// a `2·width` bus.
    pub(crate) fn dsp_mul(&mut self, a: &[Net], b: &[Net]) -> Bus {
        assert_eq!(a.len(), b.len());
        let width = a.len() as u32;
        let outputs: Bus = (0..2 * a.len()).map(|_| self.fresh()).collect();
        let mut inputs = a.to_vec();
        inputs.extend_from_slice(b);
        self.cells.push(Cell {
            kind: CellKind::DspMul,
            inputs,
            outputs: outputs.clone(),
            width,
        });
        outputs
    }

    /// Number of cells of one kind.
    pub fn count(&self, kind: CellKind) -> usize {
        self.cells.iter().filter(|c| c.kind == kind).count()
    }

    /// Total cell count.
    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }
}

impl Netlist {
    /// Evaluates the netlist combinationally: given values for the
    /// primary inputs, computes every reachable net. Flip-flops are
    /// treated as transparent (pass-through), so the result is the
    /// steady-state value after enough clock cycles — which is what
    /// functional verification of a pipelined datapath needs.
    ///
    /// Returns the value of every computed net; look up outputs via
    /// [`Netlist::outputs`].
    ///
    /// # Panics
    ///
    /// Panics if a cell input was never assigned a value (an input
    /// missing from `input_values`).
    #[cfg(test)]
    pub(crate) fn evaluate(
        &self,
        input_values: &[(Net, bool)],
    ) -> std::collections::HashMap<Net, bool> {
        use std::collections::HashMap;
        let mut vals: HashMap<Net, bool> = input_values.iter().copied().collect();
        vals.insert(ZERO, false);
        vals.insert(ONE, true);
        for cell in &self.cells {
            let ins: Vec<bool> = cell
                .inputs
                .iter()
                .map(|i| {
                    *vals
                        .get(i)
                        .unwrap_or_else(|| panic!("net {i:?} undriven during evaluation"))
                })
                .collect();
            match cell.kind {
                CellKind::And2 => {
                    vals.insert(cell.outputs[0], ins[0] && ins[1]);
                }
                CellKind::Or2 => {
                    vals.insert(cell.outputs[0], ins[0] || ins[1]);
                }
                CellKind::Xor2 => {
                    vals.insert(cell.outputs[0], ins[0] ^ ins[1]);
                }
                CellKind::Mux2 => {
                    vals.insert(cell.outputs[0], if ins[0] { ins[1] } else { ins[2] });
                }
                CellKind::HalfAdder => {
                    vals.insert(cell.outputs[0], ins[0] ^ ins[1]);
                    vals.insert(cell.outputs[1], ins[0] && ins[1]);
                }
                CellKind::FullAdder => {
                    let s = ins[0] ^ ins[1] ^ ins[2];
                    let c = (ins[0] && ins[1]) || (ins[2] && (ins[0] ^ ins[1]));
                    vals.insert(cell.outputs[0], s);
                    vals.insert(cell.outputs[1], c);
                }
                CellKind::Dff => {
                    vals.insert(cell.outputs[0], ins[0]);
                }
                CellKind::DspMul => {
                    let w = cell.width as usize;
                    let a = bus_value(&cell.inputs[..w], &vals);
                    let b = bus_value(&cell.inputs[w..], &vals);
                    let p = a as u128 * b as u128;
                    for (k, &o) in cell.outputs.iter().enumerate() {
                        vals.insert(o, (p >> k) & 1 == 1);
                    }
                }
            }
        }
        vals
    }
}

/// Packs a bus into an integer (bit `i` of the result = `bus[i]`).
#[cfg(test)]
pub(crate) fn bus_value(bus: &[Net], vals: &std::collections::HashMap<Net, bool>) -> u64 {
    bus.iter()
        .enumerate()
        .map(|(i, n)| (vals[n] as u64) << i)
        .sum()
}

/// Builds the `(net, value)` assignment that drives `bus` with the
/// little-endian bits of `v`.
#[cfg(test)]
pub(crate) fn assign_bus(bus: &[Net], v: u64) -> Vec<(Net, bool)> {
    bus.iter()
        .enumerate()
        .map(|(i, &n)| (n, (v >> i) & 1 == 1))
        .collect()
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netlist `{}`: {} cells, {} inputs, {} outputs",
            self.name,
            self.cells.len(),
            self.inputs.len(),
            self.outputs.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_basics() {
        let mut n = Netlist::new("t");
        let a = n.input();
        let b = n.input();
        let x = n.xor2(a, b);
        n.output(x);
        assert_eq!(n.len(), 1);
        assert_eq!(n.count(CellKind::Xor2), 1);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
    }

    #[test]
    fn adders_have_two_outputs() {
        let mut n = Netlist::new("t");
        let a = n.input();
        let b = n.input();
        let c = n.input();
        let (s, co) = n.full_adder(a, b, c);
        assert_ne!(s, co);
        let (s2, co2) = n.half_adder(a, b);
        assert_ne!(s2, co2);
        assert_eq!(n.count(CellKind::FullAdder), 1);
        assert_eq!(n.count(CellKind::HalfAdder), 1);
    }

    #[test]
    fn bus_helpers() {
        let mut n = Netlist::new("t");
        let a = n.input_bus(8);
        let b = n.input_bus(8);
        let sel = n.input();
        let m = n.mux_bus(sel, &a, &b);
        assert_eq!(m.len(), 8);
        assert_eq!(n.count(CellKind::Mux2), 8);
        let r = n.dff_bus(&m);
        assert_eq!(r.len(), 8);
        assert_eq!(n.count(CellKind::Dff), 8);
    }

    #[test]
    fn dsp_macro() {
        let mut n = Netlist::new("t");
        let a = n.input_bus(64);
        let b = n.input_bus(64);
        let p = n.dsp_mul(&a, &b);
        assert_eq!(p.len(), 128);
        assert_eq!(n.count(CellKind::DspMul), 1);
        assert_eq!(n.cells()[0].width, 64);
    }
}
