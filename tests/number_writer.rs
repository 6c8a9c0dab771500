//! The codec's number writer against Rust's own formatting, byte for
//! byte. `write_f64` must print exactly `format!("{x:?}")` for a finite
//! `x` and `null` otherwise; `write_num` must print
//! `format!("{}", x as i64)` for an integral `x` below 2⁵³ in magnitude
//! (except -0.0) and `write_f64`'s text for everything else. `{:?}` is
//! the oracle here and nowhere on an encoding path.
//!
//! The inputs cover seeded random bit patterns, every power of two
//! (which reaches every row of both power-of-five tables), every power
//! of ten, both ends of the finite range, short decimal fractions and
//! the integers around zero and 2⁵³. The 10⁸-pattern variant is
//! ignored by default:
//!
//! ```text
//! cargo test --release --test number_writer -- --include-ignored
//! ```

use std::fmt::Write;

use spechpc::harness::json::{write_f64, write_num};
use spechpc::kernels::common::rng::Rng;

/// 2⁵³: the bound of `write_num`'s integral path.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_992.0;

/// Checks inputs against the oracle, reusing its buffers.
#[derive(Default)]
struct Oracle {
    ours: String,
    want: String,
}

impl Oracle {
    fn check(&mut self, x: f64) {
        self.ours.clear();
        self.want.clear();
        write_f64(&mut self.ours, x);
        if x.is_finite() {
            write!(self.want, "{x:?}").unwrap();
        } else {
            self.want.push_str("null");
        }
        assert_eq!(
            self.ours,
            self.want,
            "write_f64, bits {:#018x}",
            x.to_bits()
        );

        let integral = x.is_finite()
            && x.fract() == 0.0
            && x.abs() < MAX_EXACT_INT
            && (x != 0.0 || x.is_sign_positive());
        if integral {
            self.want.clear();
            write!(self.want, "{}", x as i64).unwrap();
        }
        self.ours.clear();
        write_num(&mut self.ours, x);
        assert_eq!(
            self.ours,
            self.want,
            "write_num, bits {:#018x}",
            x.to_bits()
        );
    }

    fn check_signed(&mut self, x: f64) {
        self.check(x);
        self.check(-x);
    }
}

fn random_bit_patterns(seed: u64, n: u64) {
    let mut oracle = Oracle::default();
    let mut rng = Rng::seed_from_u64(seed);
    for _ in 0..n {
        oracle.check(f64::from_bits(rng.next_u64()));
    }
}

#[test]
fn ten_million_random_bit_patterns_match_the_oracle() {
    random_bit_patterns(0x5eed_f10a_0007, 10_000_000);
}

#[test]
#[ignore = "10^8 patterns; run with --release -- --include-ignored"]
fn a_hundred_million_random_bit_patterns_match_the_oracle() {
    random_bit_patterns(0x5eed_f10a_0008, 100_000_000);
}

#[test]
fn powers_of_two_and_ten_match_the_oracle() {
    let mut oracle = Oracle::default();
    // 2^-1074 (the least subnormal) through 2^1023, both signs.
    for k in -1074..=1023 {
        oracle.check_signed(2f64.powi(k));
    }
    for k in -323..=308 {
        let x: f64 = format!("1e{k}").parse().unwrap();
        oracle.check_signed(x);
    }
}

#[test]
fn both_ends_of_the_finite_range_match_the_oracle() {
    let mut oracle = Oracle::default();
    let last = f64::MAX.to_bits();
    for i in 0..1_000_000 {
        oracle.check(f64::from_bits(i));
        oracle.check(f64::from_bits(last - i));
    }
}

#[test]
fn short_fractions_and_integers_match_the_oracle() {
    let mut oracle = Oracle::default();
    for i in 0..1_000_000 {
        oracle.check(i as f64 / 10.0);
        oracle.check(i as f64 / 7.0);
    }
    for i in -1_000_000..=1_000_000 {
        oracle.check(i as f64);
    }
    let two53 = 1i64 << 53;
    for k in -1_000_000..=1_000_000 {
        oracle.check_signed((two53 + k) as f64);
    }
}

/// `{:?}` rounds an exact tie between the two shortest candidates up,
/// where reference Ryū rounds it to even; zero keeps its sign and its
/// fraction digit.
#[test]
fn ties_round_up_and_zero_keeps_its_sign() {
    let mut oracle = Oracle::default();
    for (x, text) in [
        (2f64.powi(-25), "2.9802322387695313e-8"),
        (1_682_040_838_249_901.0 + 0.25, "1682040838249901.3"),
        (0.0, "0.0"),
        (-0.0, "-0.0"),
        (12.0, "12.0"),
        (1.5e-5, "1.5e-5"),
        (1e16, "1e16"),
        (1e-4, "0.0001"),
        (5e-324, "5e-324"),
    ] {
        let mut ours = String::new();
        write_f64(&mut ours, x);
        assert_eq!(ours, text);
        oracle.check(x);
    }
    let mut ours = String::new();
    write_num(&mut ours, 12.0);
    assert_eq!(ours, "12");
}
