//! Deterministic, splittable random-number streams.
//!
//! The ramp-semantics model (in `apparate-exec`) needs a crucial property: the
//! entropy/agreement draw for *(request r, ramp position p)* must be the same
//! no matter which ramps happen to be active, how often the pair is evaluated,
//! or in which order requests are replayed. Otherwise the offline-optimal
//! oracle, the candidate-ramp utility estimates (Figure 11) and the threshold
//! tuner's counterfactual evaluations would all observe different "model
//! behaviour" than the live system did.
//!
//! We achieve this with hash-derived streams: a [`DeterministicRng`] carries a
//! 64-bit seed, and [`DeterministicRng::stream`] derives an independent
//! ChaCha8-based [`RngStream`] from `(seed, key...)` via the SplitMix64 finaliser.
//! Two streams derived from the same keys are bit-identical.

use rand::distributions::Open01;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// SplitMix64 finaliser; an excellent 64-bit mixer used to derive stream keys.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A root deterministic RNG from which independent named streams are derived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeterministicRng {
    seed: u64,
}

impl DeterministicRng {
    /// Create a root RNG with the given seed.
    pub fn new(seed: u64) -> Self {
        DeterministicRng { seed }
    }

    /// The root seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derive a child root, useful to give each subsystem its own namespace.
    pub fn child(&self, key: u64) -> DeterministicRng {
        DeterministicRng {
            seed: splitmix64(self.seed ^ splitmix64(key)),
        }
    }

    /// Derive an independent stream keyed by up to three integers
    /// (e.g. request id, ramp position, draw kind).
    pub fn stream(&self, keys: &[u64]) -> RngStream {
        RngStream::from_state(self.key_state(keys))
    }

    /// A single deterministic uniform draw in `(0, 1)` for the given keys.
    ///
    /// This is the workhorse of the semantics model: cheap, reproducible and
    /// order-independent.
    pub fn unit_draw(&self, keys: &[u64]) -> f64 {
        unit_from_state(self.key_state(keys))
    }

    /// A deterministic standard-normal draw for the given keys
    /// (Box–Muller over two decorrelated unit draws).
    ///
    /// The second uniform is the [`unit_draw`](Self::unit_draw) of `keys`
    /// with the key `0xA5A5_5A5A_0F0F_F0F0` appended, derived from the first
    /// draw's key state by one more mixing step instead of re-hashing a copied
    /// key list.
    pub fn normal_draw(&self, keys: &[u64]) -> f64 {
        normal_from_state(self.key_state(keys), keys.len())
    }

    /// Mix `keys` once into a [`KeyPrefix`], from which every draw keyed by
    /// `keys` plus one more key is made without mixing `keys` again.
    pub fn prefix(&self, keys: &[u64]) -> KeyPrefix {
        KeyPrefix {
            state: self.key_state(keys),
            len: keys.len(),
        }
    }

    /// The mixed state of `(seed, keys...)`: every keyed draw starts here.
    fn key_state(&self, keys: &[u64]) -> u64 {
        keys.iter()
            .enumerate()
            .fold(splitmix64(self.seed), |state, (i, &k)| mix_key(state, i, k))
    }
}

/// The mixed key state of a key-list prefix: draws keyed by the prefix plus
/// one more key, bit-identical to the [`DeterministicRng`] draws keyed by the
/// whole list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyPrefix {
    state: u64,
    len: usize,
}

impl KeyPrefix {
    /// The prefix followed by `key`: equal to `rng.prefix(&[prefix.., key])`.
    pub fn extended(&self, key: u64) -> KeyPrefix {
        KeyPrefix {
            state: mix_key(self.state, self.len, key),
            len: self.len + 1,
        }
    }

    /// The standard-normal draw keyed by the prefix followed by `key`: equal,
    /// bit for bit, to `rng.normal_draw(&[prefix.., key])`.
    pub fn normal_draw(&self, key: u64) -> f64 {
        normal_from_state(mix_key(self.state, self.len, key), self.len + 1)
    }
}

/// Box–Muller over the unit draw of a key state (of a `len`-key list) and the
/// unit draw of the same list extended by [`NORMAL_SECOND_KEY`].
fn normal_from_state(state: u64, len: usize) -> f64 {
    let u1 = unit_from_state(state);
    let u2 = unit_from_state(mix_key(state, len, NORMAL_SECOND_KEY));
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// The extra key whose draw is a normal draw's second uniform.
const NORMAL_SECOND_KEY: u64 = 0xA5A5_5A5A_0F0F_F0F0;

/// Fold key `key`, at position `index` of a key list, into a key state.
fn mix_key(state: u64, index: usize, key: u64) -> u64 {
    splitmix64(state ^ splitmix64(key.wrapping_add(index as u64 + 1)))
}

/// Map the top 53 bits of a key state onto `(0, 1)`; half an ulp is added so
/// the draw is never 0.
fn unit_from_state(state: u64) -> f64 {
    let mantissa = state >> 11;
    (mantissa as f64 + 0.5) / ((1u64 << 53) as f64)
}

/// A sequential random stream (ChaCha8) derived from a [`DeterministicRng`].
#[derive(Debug, Clone)]
pub struct RngStream {
    inner: ChaCha8Rng,
}

impl RngStream {
    fn from_state(state: u64) -> Self {
        let mut seed = [0u8; 32];
        let mut s = state;
        for chunk in seed.chunks_mut(8) {
            s = splitmix64(s);
            chunk.copy_from_slice(&s.to_le_bytes());
        }
        RngStream {
            inner: ChaCha8Rng::from_seed(seed),
        }
    }

    /// Uniform draw in `(0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.sample(Open01)
    }

    /// Uniform draw in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// Uniform integer in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "below() requires a positive bound");
        self.inner.gen_range(0..n)
    }

    /// Standard normal draw.
    pub fn normal(&mut self) -> f64 {
        let u1 = self.unit();
        let u2 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Exponential draw with the given rate (events per unit time).
    pub fn exponential(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential() requires a positive rate");
        -self.unit().ln() / rate
    }

    /// Bernoulli draw with probability `p` of `true`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    /// Sample an index according to the (unnormalised, non-negative) weights.
    /// Returns 0 if all weights are zero.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 || weights.is_empty() {
            return 0;
        }
        let mut target = self.unit() * total;
        for (i, w) in weights.iter().enumerate() {
            target -= w.max(0.0);
            if target <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let root = DeterministicRng::new(42);
        let mut a = root.stream(&[1, 2, 3]);
        let mut b = root.stream(&[1, 2, 3]);
        for _ in 0..32 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn different_keys_give_different_streams() {
        let root = DeterministicRng::new(42);
        let mut a = root.stream(&[1]);
        let mut b = root.stream(&[2]);
        let same = (0..16)
            .filter(|_| a.unit().to_bits() == b.unit().to_bits())
            .count();
        assert!(same < 4, "streams with different keys should diverge");
    }

    #[test]
    fn unit_draw_is_order_independent_and_in_range() {
        let root = DeterministicRng::new(7);
        let x1 = root.unit_draw(&[10, 20]);
        let _ = root.unit_draw(&[99, 1]);
        let x2 = root.unit_draw(&[10, 20]);
        assert_eq!(x1.to_bits(), x2.to_bits());
        assert!(x1 > 0.0 && x1 < 1.0);
    }

    #[test]
    fn keyed_draws_match_golden_bits() {
        // Captured before normal draws stopped copying their key list: the
        // bit patterns every semantics observation is built from. Covers key
        // lists of length 1, 2 and 3, including the semantics model's
        // `[seed, 1]` and `[seed, ramp_key, 2..=4]` shapes.
        let root = DeterministicRng::new(42);
        let golden: [(&[u64], u64, u64); 5] = [
            (&[7], 0x3FEF_76D4_3A4A_5AFA, 0xBFC4_9B37_DEC2_002B),
            (&[7, 1], 0x3FEE_611B_A5B4_CEDC, 0xBFC2_31F4_BD73_9204),
            (&[7, 123, 2], 0x3F8F_834C_1126_D1E0, 0xBFF3_580F_69F4_6AE9),
            (&[7, 123, 3], 0x3FE9_9C0A_8380_CFE0, 0xBFBA_21AE_238F_F42E),
            (&[7, 123, 4], 0x3F9B_62A7_4313_9710, 0xBFBC_0E7D_034B_DA5A),
        ];
        for (keys, unit_bits, normal_bits) in golden {
            assert_eq!(root.unit_draw(keys).to_bits(), unit_bits, "unit {keys:?}");
            assert_eq!(
                root.normal_draw(keys).to_bits(),
                normal_bits,
                "normal {keys:?}"
            );
        }
    }

    #[test]
    fn prefix_draws_match_golden_bits() {
        // The same `[7, 123, 2..=4]` bits as above, drawn from the mixed
        // `[7, 123]` prefix the way a ramp observation draws them.
        let prefix = DeterministicRng::new(42).prefix(&[7, 123]);
        let golden = [
            (2, 0xBFF3_580F_69F4_6AE9),
            (3, 0xBFBA_21AE_238F_F42E),
            (4, 0xBFBC_0E7D_034B_DA5A),
        ];
        for (key, normal_bits) in golden {
            assert_eq!(prefix.normal_draw(key).to_bits(), normal_bits, "key {key}");
        }
        let one_key = DeterministicRng::new(42).prefix(&[7]);
        assert_eq!(one_key.normal_draw(1).to_bits(), 0xBFC2_31F4_BD73_9204);
        assert_eq!(one_key.extended(123), prefix);
        assert_eq!(
            one_key.extended(123).normal_draw(4).to_bits(),
            0xBFBC_0E7D_034B_DA5A
        );
    }

    #[test]
    fn prefix_draws_equal_full_key_draws() {
        for seed in [0u64, 3, 42] {
            let root = DeterministicRng::new(seed);
            for prefix in [&[][..], &[5], &[5, 9], &[5, 9, 2]] {
                let mixed = root.prefix(prefix);
                for key in [0u64, 1, 4, u64::MAX] {
                    let mut keys = prefix.to_vec();
                    keys.push(key);
                    assert_eq!(
                        mixed.normal_draw(key).to_bits(),
                        root.normal_draw(&keys).to_bits(),
                        "seed {seed}, keys {keys:?}"
                    );
                    assert_eq!(mixed.extended(key), root.prefix(&keys));
                }
            }
        }
    }

    #[test]
    fn stream_draws_match_golden_bits() {
        // The sequential ChaCha8 stream that traces and workloads draw from:
        // these bit patterns must survive any change to how the generator
        // or its `(0, 1)` and range samplers are implemented.
        let mut s = DeterministicRng::new(42).stream(&[7, 11]);
        let unit_bits: [u64; 16] = [
            0x3FDD_2B90_6B82_DAE7,
            0x3FE7_62EA_E95F_9BBC,
            0x3FE1_7E28_3D7D_BB20,
            0x3FD6_CCA3_3049_54C7,
            0x3FC4_6E01_B101_45DE,
            0x3FEB_ADA0_7071_8036,
            0x3FE4_29AC_B289_44DC,
            0x3FD2_B115_AC0B_C74D,
            0x3FE8_35C1_F956_A444,
            0x3FE0_30B5_9A96_C7FC,
            0x3FEA_416A_9E17_8228,
            0x3FED_A481_17C8_AA6C,
            0x3FE5_C4E2_5FAE_534C,
            0x3FE5_DE34_5BE1_01E6,
            0x3FA6_75D2_723E_DC18,
            0x3FE3_CBDA_BB66_4EB4,
        ];
        for (i, bits) in unit_bits.into_iter().enumerate() {
            assert_eq!(s.unit().to_bits(), bits, "unit draw {i}");
        }
        let below: Vec<u64> = (0..8).map(|_| s.below(1000)).collect();
        assert_eq!(below, [279, 418, 772, 499, 244, 71, 949, 851]);
    }

    #[test]
    fn normal_draw_second_uniform_is_the_extended_key_draw() {
        let root = DeterministicRng::new(3);
        for keys in [&[5u64][..], &[5, 9], &[5, 9, 2]] {
            let mut extended = keys.to_vec();
            extended.push(NORMAL_SECOND_KEY);
            let (u1, u2) = (root.unit_draw(keys), root.unit_draw(&extended));
            let expected = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            assert_eq!(root.normal_draw(keys).to_bits(), expected.to_bits());
        }
    }

    #[test]
    fn unit_draw_is_roughly_uniform() {
        let root = DeterministicRng::new(123);
        let n = 20_000u64;
        let mean: f64 = (0..n).map(|i| root.unit_draw(&[i])).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_draw_has_reasonable_moments() {
        let root = DeterministicRng::new(5);
        let n = 20_000u64;
        let draws: Vec<f64> = (0..n).map(|i| root.normal_draw(&[i])).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn child_rngs_are_decoupled() {
        let root = DeterministicRng::new(1);
        let a = root.child(10).unit_draw(&[0]);
        let b = root.child(11).unit_draw(&[0]);
        assert_ne!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn stream_distributions_behave() {
        let root = DeterministicRng::new(9);
        let mut s = root.stream(&[0]);
        for _ in 0..100 {
            let u = s.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&u));
            let e = s.exponential(0.5);
            assert!(e >= 0.0);
            let i = s.below(7);
            assert!(i < 7);
        }
        let mut hits = 0;
        for _ in 0..1000 {
            if s.chance(0.3) {
                hits += 1;
            }
        }
        assert!((200..400).contains(&hits), "hits {hits}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let root = DeterministicRng::new(11);
        let mut s = root.stream(&[3]);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..4000 {
            counts[s.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[2] > counts[1] * 2, "counts {counts:?}");
        // Degenerate case: all-zero weights fall back to index 0.
        assert_eq!(s.weighted_index(&[0.0, 0.0]), 0);
    }
}
