//! Writer → parser round trip: `parse(&v.to_string()) == v` for
//! random JSON trees whose strings mix control characters, `"`, `\`,
//! non-ASCII text and characters outside the BMP (written raw, and
//! also parsed back from `\uXXXX` surrogate-pair escapes).

use mpise_obs::json::{parse, Value};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Characters a generated string draws from, besides random scalars.
const CHARS: &[char] = &[
    '\0', '\u{1}', '\u{8}', '\t', '\n', '\u{c}', '\r', '\u{1f}', '"', '\\', '/', 'a', 'Z', ' ',
    'é', 'ß', '€', '中', '😀', '𝄞', '\u{7f}', '\u{2028}',
];

fn draw(rng: &mut TestRng, n: usize) -> usize {
    (0..n).sample(rng)
}

fn string(rng: &mut TestRng) -> String {
    (0..draw(rng, 8))
        .map(|_| match draw(rng, 3) {
            0 => char::from_u32((0u32..0x11_0000).sample(rng)).unwrap_or('\u{fffd}'),
            _ => CHARS[draw(rng, CHARS.len())],
        })
        .collect()
}

/// A random tree of at most `depth` container levels.
fn value(rng: &mut TestRng, depth: u32) -> Value {
    match draw(rng, if depth == 0 { 5 } else { 7 }) {
        0 => Value::Null,
        1 => Value::Bool(any::<bool>().sample(rng)),
        2 => match draw(rng, 3) {
            0 => Value::from(any::<u64>().sample(rng)),
            1 => Value::Int(any::<i64>().sample(rng).into()),
            _ => Value::from(any::<i8>().sample(rng)),
        },
        3 => {
            let x = f64::from_bits(any::<u64>().sample(rng));
            Value::Float(if x.is_finite() { x } else { 0.5 })
        }
        4 => Value::String(string(rng)),
        5 => Value::Array((0..draw(rng, 5)).map(|_| value(rng, depth - 1)).collect()),
        _ => {
            let mut members: Vec<(String, Value)> = Vec::new();
            for _ in 0..draw(rng, 5) {
                let key = string(rng);
                if members.iter().all(|(k, _)| *k != key) {
                    members.push((key, value(rng, depth - 1)));
                }
            }
            Value::Object(members)
        }
    }
}

/// A strategy drawing from a generator function.
struct Gen<T>(fn(&mut TestRng) -> T);

impl<T> Strategy for Gen<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_values_parse_back_equal(v in Gen(|rng| value(rng, 4))) {
        prop_assert_eq!(parse(&v.to_string()), Ok(v));
    }

    /// Every char written as `\uXXXX` escapes (surrogate pairs above
    /// the BMP) decodes to the original string.
    #[test]
    fn escaped_strings_parse_back_equal(s in Gen(string)) {
        let escaped: String = s.encode_utf16().map(|unit| format!("\\u{unit:04X}")).collect();
        prop_assert_eq!(parse(&format!("\"{escaped}\"")), Ok(Value::String(s)));
    }
}
