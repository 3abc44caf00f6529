//! Tier-1 known-answer tests: the committed CSIDH-512 vectors under
//! `tests/vectors/` must be reproduced byte-identically by both host
//! backends, and the sparse keygen vector by a direct simulator run
//! (every field operation executed on the Rocket pipeline model).

use mpise::conformance::kat;
use mpise::fp::kernels::Config;
use mpise::fp::simfp::{SimElem, SimFp};
use mpise::fp::{Fp, FpFull, FpRed};
use mpise::mpi::U512;

#[test]
fn full_radix_host_backend_reproduces_every_vector() {
    let suite = kat::load_suite(&kat::default_vectors_dir()).expect("committed vectors parse");
    assert!(!suite.is_empty());
    let (n, failures) = kat::run_suite(&FpFull::new(), &suite, "FpFull");
    assert_eq!(n as usize, suite.len());
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn reduced_radix_host_backend_reproduces_every_vector() {
    let suite = kat::load_suite(&kat::default_vectors_dir()).expect("committed vectors parse");
    let (n, failures) = kat::run_suite(&FpRed::new(), &suite, "FpRed");
    assert_eq!(n as usize, suite.len());
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
fn direct_simulation_reproduces_the_sparse_keygen_vector() {
    // The first committed vector is deliberately sparse (two nonzero
    // exponents) so the full group action stays affordable when every
    // field operation runs on the simulated core.
    let suite = kat::load_suite(&kat::default_vectors_dir()).expect("committed vectors parse");
    let sparse = &suite.keygen[0];
    assert!(
        sparse.exponents.iter().filter(|&&e| e != 0).count() <= 2,
        "first vector must stay sparse for the direct-sim run"
    );
    let sim = SimFp::new(Config::ALL[3]); // reduced-radix, ISE-supported
    let f = Budgeted { sim: &sim };
    kat::check_keygen(&f, sparse).expect("direct-sim keygen matches the committed bytes");
    assert!(
        sim.cycles() > 0,
        "the kernels actually ran on the simulator"
    );
}

/// About ten times the 39,166 kernel calls the sparse keygen makes.
const SPARSE_KEYGEN_CALL_BUDGET: u64 = 400_000;

/// A [`SimFp`] that fails once it has made
/// [`SPARSE_KEYGEN_CALL_BUDGET`] kernel calls. An action fed wrong
/// field results may search for a point of the right order forever;
/// the budget turns that hang into a failure.
struct Budgeted<'a> {
    sim: &'a SimFp,
}

impl Budgeted<'_> {
    fn charged(&self) -> &SimFp {
        let calls = self.sim.calls();
        assert!(
            calls < SPARSE_KEYGEN_CALL_BUDGET,
            "the action made {calls} simulated field operations; a correct run needs about a tenth"
        );
        self.sim
    }
}

impl Fp for Budgeted<'_> {
    type Elem = SimElem;

    fn zero(&self) -> SimElem {
        self.sim.zero()
    }

    fn one(&self) -> SimElem {
        self.sim.one()
    }

    fn from_uint(&self, v: &U512) -> SimElem {
        self.sim.from_uint(v)
    }

    fn to_uint(&self, a: &SimElem) -> U512 {
        self.sim.to_uint(a)
    }

    fn add(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.charged().add(a, b)
    }

    fn sub(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.charged().sub(a, b)
    }

    fn mul(&self, a: &SimElem, b: &SimElem) -> SimElem {
        self.charged().mul(a, b)
    }

    fn sqr(&self, a: &SimElem) -> SimElem {
        self.charged().sqr(a)
    }

    fn is_zero(&self, a: &SimElem) -> bool {
        self.sim.is_zero(a)
    }

    fn select(&self, mask: u64, a: &SimElem, b: &SimElem) -> SimElem {
        self.sim.select(mask, a, b)
    }
}
