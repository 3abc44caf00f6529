//! CSIDH-512 known-answer tests.
//!
//! Vectors live as plain text under `tests/vectors/` at the workspace
//! root — `keygen.txt`, `exchange.txt` and `validate.txt` — and every
//! backend must reproduce them **byte-identically** (public keys and
//! shared secrets compare through their 64-byte wire encoding).
//!
//! The group action is deterministic in the key: the per-round random
//! points only change which isogeny is computed when, never the final
//! curve, so a (key → public key) pair is a well-defined answer
//! independent of the RNG driving the evaluation. Validation is
//! likewise deterministic in the candidate key.
//!
//! Regeneration: `cargo test -p mpise-conformance -- --ignored
//! regenerate_vectors` rewrites the files with `FpFull`; the KAT suite
//! then holds every other backend to those bytes.

use mpise_csidh::{validate, PrivateKey, PublicKey};
use mpise_fp::params::NUM_PRIMES;
use mpise_fp::Fp;
use mpise_mpi::U512;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One keygen vector: private exponents and the resulting public key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeygenVector {
    /// Private exponent vector.
    pub exponents: [i8; NUM_PRIMES],
    /// Expected public key (canonical Montgomery coefficient).
    pub public: U512,
}

/// One key-exchange vector: both private keys, both public keys, and
/// the agreed shared secret.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExchangeVector {
    /// Alice's exponents.
    pub alice: [i8; NUM_PRIMES],
    /// Bob's exponents.
    pub bob: [i8; NUM_PRIMES],
    /// Alice's expected public key.
    pub alice_public: U512,
    /// Bob's expected public key.
    pub bob_public: U512,
    /// The expected shared secret (both directions).
    pub shared: U512,
}

/// One validation vector: a candidate coefficient and the verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateVector {
    /// Candidate Montgomery coefficient.
    pub a: U512,
    /// Whether validation must accept it.
    pub accept: bool,
}

/// The full parsed suite.
#[derive(Debug, Clone, Default)]
pub struct KatSuite {
    /// Keygen vectors.
    pub keygen: Vec<KeygenVector>,
    /// Exchange vectors.
    pub exchange: Vec<ExchangeVector>,
    /// Validation vectors.
    pub validate: Vec<ValidateVector>,
}

impl KatSuite {
    /// Total vector count.
    pub fn len(&self) -> usize {
        self.keygen.len() + self.exchange.len() + self.validate.len()
    }

    /// Whether the suite is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn parse_exponents(s: &str) -> Result<[i8; NUM_PRIMES], String> {
    let vals: Result<Vec<i8>, _> = s.split(',').map(|t| t.trim().parse::<i8>()).collect();
    let vals = vals.map_err(|e| format!("bad exponent list: {e}"))?;
    vals.as_slice()
        .try_into()
        .map_err(|_| format!("expected {NUM_PRIMES} exponents, got {}", vals.len()))
}

#[cfg(test)]
fn fmt_exponents(e: &[i8; NUM_PRIMES]) -> String {
    e.iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Parses `key: value` lines into records separated by `vector` lines;
/// `#` starts a comment.
fn records(src: &str) -> Vec<Vec<(String, String)>> {
    let mut out: Vec<Vec<(String, String)>> = Vec::new();
    for line in src.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "vector" {
            out.push(Vec::new());
            continue;
        }
        if let Some((k, v)) = line.split_once(':') {
            if let Some(rec) = out.last_mut() {
                rec.push((k.trim().to_owned(), v.trim().to_owned()));
            }
        }
    }
    out
}

fn field<'a>(rec: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    rec.iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field `{key}`"))
}

/// Parses `keygen.txt`.
pub(crate) fn parse_keygen(src: &str) -> Result<Vec<KeygenVector>, String> {
    records(src)
        .iter()
        .map(|rec| {
            Ok(KeygenVector {
                exponents: parse_exponents(field(rec, "exponents")?)?,
                public: U512::from_hex(field(rec, "public")?)?,
            })
        })
        .collect()
}

/// Parses `exchange.txt`.
pub(crate) fn parse_exchange(src: &str) -> Result<Vec<ExchangeVector>, String> {
    records(src)
        .iter()
        .map(|rec| {
            Ok(ExchangeVector {
                alice: parse_exponents(field(rec, "alice")?)?,
                bob: parse_exponents(field(rec, "bob")?)?,
                alice_public: U512::from_hex(field(rec, "alice_public")?)?,
                bob_public: U512::from_hex(field(rec, "bob_public")?)?,
                shared: U512::from_hex(field(rec, "shared")?)?,
            })
        })
        .collect()
}

/// Parses `validate.txt`.
pub(crate) fn parse_validate(src: &str) -> Result<Vec<ValidateVector>, String> {
    records(src)
        .iter()
        .map(|rec| {
            let accept = match field(rec, "expect")? {
                "accept" => true,
                "reject" => false,
                other => return Err(format!("bad verdict `{other}`")),
            };
            Ok(ValidateVector {
                a: U512::from_hex(field(rec, "a")?)?,
                accept,
            })
        })
        .collect()
}

/// Loads the whole suite from a directory holding the three files.
///
/// # Errors
///
/// Returns a description when a file is unreadable or malformed.
pub fn load_suite(dir: &std::path::Path) -> Result<KatSuite, String> {
    let read = |name: &str| -> Result<String, String> {
        std::fs::read_to_string(dir.join(name)).map_err(|e| format!("{name}: {e}"))
    };
    Ok(KatSuite {
        keygen: parse_keygen(&read("keygen.txt")?)?,
        exchange: parse_exchange(&read("exchange.txt")?)?,
        validate: parse_validate(&read("validate.txt")?)?,
    })
}

/// The committed vector directory, resolved relative to this crate at
/// compile time (`tests/vectors/` at the workspace root).
pub fn default_vectors_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/vectors")
}

/// Checks one keygen vector on a backend; byte-identical comparison.
pub fn check_keygen<F: Fp>(f: &F, v: &KeygenVector) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(1);
    let key = PrivateKey {
        exponents: v.exponents,
    };
    let got = key.public_key(f, &mut rng);
    if got.to_bytes() != (PublicKey { a: v.public }).to_bytes() {
        return Err(format!(
            "keygen mismatch: got {}, want {}",
            got.a.to_hex(),
            v.public.to_hex()
        ));
    }
    Ok(())
}

/// Checks one exchange vector: both public keys and both directions of
/// the shared secret.
pub(crate) fn check_exchange<F: Fp>(f: &F, v: &ExchangeVector) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(2);
    let alice = PrivateKey { exponents: v.alice };
    let bob = PrivateKey { exponents: v.bob };
    let ap = alice.public_key(f, &mut rng);
    let bp = bob.public_key(f, &mut rng);
    if ap.a != v.alice_public || bp.a != v.bob_public {
        return Err("exchange public keys mismatch".to_owned());
    }
    let s1 = alice.shared_secret(f, &mut rng, &bp);
    let s2 = bob.shared_secret(f, &mut rng, &ap);
    if s1.to_bytes() != s2.to_bytes() {
        return Err("shared secrets disagree between directions".to_owned());
    }
    if s1.a != v.shared {
        return Err(format!(
            "shared secret mismatch: got {}, want {}",
            s1.a.to_hex(),
            v.shared.to_hex()
        ));
    }
    Ok(())
}

/// Checks one validation vector.
pub(crate) fn check_validate<F: Fp>(f: &F, v: &ValidateVector) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(3);
    let got = validate(f, &mut rng, &PublicKey { a: v.a });
    if got != v.accept {
        return Err(format!(
            "validate({}) = {got}, want {}",
            v.a.to_hex(),
            v.accept
        ));
    }
    Ok(())
}

/// Runs the full suite on one backend; returns (vectors checked,
/// failures).
pub fn run_suite<F: Fp>(f: &F, suite: &KatSuite, label: &str) -> (u64, Vec<String>) {
    let mut failures = Vec::new();
    let mut checked = 0u64;
    for (i, v) in suite.keygen.iter().enumerate() {
        checked += 1;
        if let Err(e) = check_keygen(f, v) {
            failures.push(format!("{label} keygen[{i}]: {e}"));
        }
    }
    for (i, v) in suite.exchange.iter().enumerate() {
        checked += 1;
        if let Err(e) = check_exchange(f, v) {
            failures.push(format!("{label} exchange[{i}]: {e}"));
        }
    }
    for (i, v) in suite.validate.iter().enumerate() {
        checked += 1;
        if let Err(e) = check_validate(f, v) {
            failures.push(format!("{label} validate[{i}]: {e}"));
        }
    }
    (checked, failures)
}

/// The fixed private keys the committed suite is generated from: one
/// **sparse** key (two nonzero exponents — cheap enough for the
/// direct-simulation backend), then seeded dense keys of increasing
/// bound.
#[cfg(test)]
pub(crate) fn generation_keys() -> Vec<[i8; NUM_PRIMES]> {
    let mut keys = Vec::new();
    let mut sparse = [0i8; NUM_PRIMES];
    sparse[0] = 1;
    sparse[3] = -1;
    keys.push(sparse);
    let mut rng = StdRng::seed_from_u64(0xCA51D);
    for bound in [1i8, 1, 2, 5] {
        keys.push(PrivateKey::random_with_bound(&mut rng, bound).exponents);
    }
    keys
}

/// Renders the three vector files from a backend (the generator; the
/// suite then holds every backend to these bytes).
#[cfg(test)]
pub(crate) fn generate<F: Fp>(f: &F) -> (String, String, String) {
    let mut rng = StdRng::seed_from_u64(9);
    let keys = generation_keys();

    let mut keygen = String::from(
        "# CSIDH-512 keygen known-answer vectors.\n\
         # exponents: e_1..e_74 (class-group exponent vector)\n\
         # public: canonical Montgomery coefficient A, hex\n",
    );
    let mut publics = Vec::new();
    for k in &keys {
        let key = PrivateKey { exponents: *k };
        let public = key.public_key(f, &mut rng);
        publics.push(public);
        keygen.push_str(&format!(
            "vector\nexponents: {}\npublic: {}\n",
            fmt_exponents(k),
            public.a.to_hex()
        ));
    }

    let mut exchange = String::from(
        "# CSIDH-512 key-exchange known-answer vectors.\n\
         # shared: the agreed coefficient, identical in both directions\n",
    );
    for pair in [(0usize, 1usize), (1, 2)] {
        let alice = PrivateKey {
            exponents: keys[pair.0],
        };
        let bob = PrivateKey {
            exponents: keys[pair.1],
        };
        let shared = alice.shared_secret(f, &mut rng, &publics[pair.1]);
        let other = bob.shared_secret(f, &mut rng, &publics[pair.0]);
        assert_eq!(shared.a, other.a, "directions agree at generation time");
        exchange.push_str(&format!(
            "vector\nalice: {}\nbob: {}\nalice_public: {}\nbob_public: {}\nshared: {}\n",
            fmt_exponents(&keys[pair.0]),
            fmt_exponents(&keys[pair.1]),
            publics[pair.0].a.to_hex(),
            publics[pair.1].a.to_hex(),
            shared.a.to_hex()
        ));
    }

    let mut validate_txt = String::from(
        "# CSIDH-512 public-key validation vectors.\n\
         # accept: genuine public keys and the base curve.\n\
         # reject: A = ±2 (singular), small non-supersingular A.\n",
    );
    let p = mpise_fp::params::Csidh512::get().p;
    let candidates: Vec<U512> = vec![
        U512::ZERO,                         // base curve: accept
        publics[0].a,                       // genuine key: accept
        publics[3].a,                       // genuine key: accept
        U512::from_u64(2),                  // singular: reject
        p.wrapping_sub(&U512::from_u64(2)), // -2, singular: reject
        U512::from_u64(5),                  // ordinary curve: reject
        U512::from_u64(12345),              // ordinary curve: reject
    ];
    for a in candidates {
        let ok = validate(f, &mut rng, &PublicKey { a });
        validate_txt.push_str(&format!(
            "vector\na: {}\nexpect: {}\n",
            a.to_hex(),
            if ok { "accept" } else { "reject" }
        ));
    }

    (keygen, exchange, validate_txt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpise_fp::FpFull;

    #[test]
    fn record_parsing_round_trips() {
        let src = "# comment\nvector\nexponents: 1,-1,0\npublic: 0a\n";
        let recs = records(src);
        assert_eq!(recs.len(), 1);
        assert_eq!(field(&recs[0], "public").unwrap(), "0a");
        assert!(field(&recs[0], "missing").is_err());
    }

    #[test]
    fn exponent_parse_checks_length() {
        assert!(parse_exponents("1,2,3").is_err());
        let full = fmt_exponents(&[0i8; NUM_PRIMES]);
        assert!(parse_exponents(&full).is_ok());
    }

    #[test]
    fn committed_suite_loads_and_passes_on_host() {
        let suite = load_suite(&default_vectors_dir()).expect("committed vectors parse");
        assert!(suite.keygen.len() >= 3, "enough keygen vectors");
        assert!(!suite.exchange.is_empty());
        assert!(suite.validate.iter().any(|v| v.accept));
        assert!(suite.validate.iter().any(|v| !v.accept));
        let (n, failures) = run_suite(&FpFull::new(), &suite, "FpFull");
        assert_eq!(n as usize, suite.len());
        assert!(failures.is_empty(), "{failures:?}");
    }

    /// Regenerates the committed vector files from the full-radix host
    /// backend. Run manually after an intentional change:
    /// `cargo test -p mpise-conformance -- --ignored regenerate_vectors`
    #[test]
    #[ignore]
    fn regenerate_vectors() {
        let dir = default_vectors_dir();
        std::fs::create_dir_all(&dir).expect("create tests/vectors");
        let (keygen, exchange, validate_txt) = generate(&FpFull::new());
        std::fs::write(dir.join("keygen.txt"), keygen).unwrap();
        std::fs::write(dir.join("exchange.txt"), exchange).unwrap();
        std::fs::write(dir.join("validate.txt"), validate_txt).unwrap();
    }
}
