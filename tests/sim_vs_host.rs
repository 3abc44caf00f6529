//! Cross-stack agreement: the simulator-backed field and the host
//! backend produce identical results. (Each kernel is validated by
//! `bench`'s kernel matrix, and each configuration's simulated group
//! action is checked against the host's by `table4_shape`.)

use mpise::fp::kernels::Config;
use mpise::fp::simfp::SimFp;
use mpise::fp::{Fp, FpFull};
use mpise::mpi::U512;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn simfp_matches_host_on_random_field_ops() {
    let host = FpFull::new();
    let mut rng = StdRng::seed_from_u64(7);
    for config in Config::ALL {
        let sim = SimFp::new(config);
        for _ in 0..3 {
            let av = U512::from_limbs(std::array::from_fn(|_| rng.gen())).shr(2);
            let bv = U512::from_limbs(std::array::from_fn(|_| rng.gen())).shr(2);
            let (sa, sb) = (sim.from_uint(&av), sim.from_uint(&bv));
            let (ha, hb) = (host.from_uint(&av), host.from_uint(&bv));
            assert_eq!(
                sim.to_uint(&sim.mul(&sa, &sb)),
                host.to_uint(&host.mul(&ha, &hb))
            );
            assert_eq!(
                sim.to_uint(&sim.add(&sa, &sb)),
                host.to_uint(&host.add(&ha, &hb))
            );
            assert_eq!(
                sim.to_uint(&sim.sub(&sa, &sb)),
                host.to_uint(&host.sub(&ha, &hb))
            );
            assert_eq!(sim.to_uint(&sim.sqr(&sa)), host.to_uint(&host.sqr(&ha)));
            assert_eq!(
                sim.to_uint(&sim.inv(&sa)),
                host.to_uint(&host.inv(&ha)),
                "inv through the simulator (hundreds of kernel calls)"
            );
        }
    }
}
