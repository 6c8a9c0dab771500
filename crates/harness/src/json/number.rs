//! The codec's number writer: `f64`s and integers appended to the
//! caller's `String` as decimal text, with no allocation per number.
//!
//! [`write_shortest`] prints exactly what `format!("{x:?}")` prints for
//! a finite `x`. The digits are the shortest decimal that parses back to
//! the same bits, found the Ryū way (Adams, "Ryū: Fast Float-to-String
//! Conversion", PLDI 2018). They are laid out as `{:?}` lays them out:
//! fixed notation for 1e-4 ≤ |x| < 1e16, with at least one fraction
//! digit (`12.0`, `-0.0`), and exponent notation outside it (`1.5e-5`,
//! `1e16`). One rule departs from reference Ryū: when the exact value
//! lies halfway between the two shortest candidates, `{:?}` takes the
//! upper one, and so does this writer (2⁻²⁵ is `2.9802322387695313e-8`,
//! not `…312e-8`).
//!
//! The two power-of-five tables hold the top 125 bits of `5^q` and of
//! `2^k / 5^q`. They are built at compile time from exact multi-limb
//! integers: `5^q` by one multiplication by 5 per row, and
//! `⌊2^831 / 5^q⌋` by one division by 5 per row (`⌊⌊a/b⌋/c⌋ =
//! ⌊a/(bc)⌋`), so no row needs a long division.

/// Explicit mantissa bits of an `f64`.
const MANTISSA_BITS: u32 = 52;
/// Exponent bias of an `f64`.
const BIAS: i32 = 1023;
/// Bits kept of each `5^q` row.
const POW5_BITS: i32 = 125;
/// Bits kept of each `2^k / 5^q` row.
const POW5_INV_BITS: i32 = 125;
/// Rows of [`POW5_INV`]: the largest binary exponent (969) needs `q` =
/// 290.
const POW5_INV_ROWS: usize = 291;
/// Rows of [`POW5`]: the smallest binary exponent (-1076) needs `i` =
/// 325.
const POW5_ROWS: usize = 326;

/// ⌊log₁₀ 2^e⌋ for 0 ≤ e ≤ 1650.
const fn log10_pow2(e: i32) -> i32 {
    ((e as u32 * 78_913) >> 18) as i32
}

/// ⌊log₁₀ 5^e⌋ for 0 ≤ e ≤ 2620.
const fn log10_pow5(e: i32) -> i32 {
    ((e as u32 * 732_923) >> 20) as i32
}

/// The bit length of 5^e for 0 ≤ e ≤ 3528.
const fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// Limbs (little-endian) of the exact integers the tables are cut
/// from: ⌊2^831 / 5^q⌋ has at most 832 bits, 5^325 has 755.
const LIMBS: usize = 13;
type Big = [u64; LIMBS];

const fn mul_small(mut a: Big, m: u64) -> Big {
    let mut carry = 0u128;
    let mut i = 0;
    while i < LIMBS {
        let t = a[i] as u128 * m as u128 + carry;
        a[i] = t as u64;
        carry = t >> 64;
        i += 1;
    }
    a
}

const fn div_small(mut a: Big, d: u64) -> Big {
    let mut rem = 0u128;
    let mut i = LIMBS;
    while i > 0 {
        i -= 1;
        let cur = rem << 64 | a[i] as u128;
        a[i] = (cur / d as u128) as u64;
        rem = cur % d as u128;
    }
    a
}

/// The 128 bits of `a` from bit `lo` up.
const fn bits_at(a: &Big, lo: usize) -> u128 {
    let (first, skip) = (lo / 64, (lo % 64) as i32);
    let mut v = 0u128;
    let mut k = 0;
    while k < 3 && first + k < LIMBS {
        let limb = a[first + k] as u128;
        // Where this limb's bit 0 lands relative to bit `lo`.
        let at = 64 * k as i32 - skip;
        if at < 0 {
            v |= limb >> -at as u32;
        } else if at < 128 {
            v |= limb << at as u32;
        }
        k += 1;
    }
    v
}

/// Row `i`: 5^i scaled to exactly [`POW5_BITS`] bits (truncated).
const POW5: [u128; POW5_ROWS] = {
    let mut table = [0u128; POW5_ROWS];
    let mut p: Big = [0; LIMBS];
    p[0] = 1;
    let keep = POW5_BITS as usize;
    let mut i = 0;
    while i < POW5_ROWS {
        let len = pow5_bits(i as i32) as usize;
        assert!(
            bits_at(&p, len - 1) == 1,
            "pow5_bits is the bit length of 5^i"
        );
        table[i] = if len > keep {
            bits_at(&p, len - keep)
        } else {
            bits_at(&p, 0) << (keep - len)
        };
        p = mul_small(p, 5);
        i += 1;
    }
    table
};

/// Row `q`: ⌊2^(pow5_bits(q) - 1 + [`POW5_INV_BITS`]) / 5^q⌋ + 1.
const POW5_INV: [u128; POW5_INV_ROWS] = {
    let mut table = [0u128; POW5_INV_ROWS];
    // x = ⌊2^TOP / 5^q⌋, divided by 5 once per row.
    const TOP: usize = 64 * LIMBS - 1;
    let mut x: Big = [0; LIMBS];
    x[LIMBS - 1] = 1 << 63;
    let mut q = 0;
    while q < POW5_INV_ROWS {
        let exp = pow5_bits(q as i32) as usize - 1 + POW5_INV_BITS as usize;
        table[q] = bits_at(&x, TOP - exp) + 1;
        x = div_small(x, 5);
        q += 1;
    }
    table
};

/// ⌊m × mul / 2^shift⌋ for a 125-bit `mul` and `shift` ≥ 64.
fn mul_shift(m: u64, mul: u128, shift: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul as u64);
    let high = u128::from(m) * (mul >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// How many times 5 divides `v` (`v` > 0).
fn pow5_factor(mut v: u64) -> i32 {
    let mut n = 0;
    while v.is_multiple_of(5) {
        v /= 5;
        n += 1;
    }
    n
}

/// The shortest decimal of a finite, non-zero `f64`'s magnitude as
/// `(digits, e)` with value `digits × 10^e`: no decimal with fewer
/// digits parses back to `bits`, and among those with as many, this is
/// the nearest, ties taking the larger.
fn shortest(bits: u64) -> (u64, i32) {
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = (bits >> MANTISSA_BITS) as i32 & 0x7ff;
    // The value is m2 × 2^(e2 + 2); Ryū works in quarters of it, so the
    // rounding interval's ends are whole numbers.
    let (m2, e2) = if ieee_exponent == 0 {
        (ieee_mantissa, 1 - BIAS - MANTISSA_BITS as i32 - 2)
    } else {
        (
            ieee_mantissa | 1 << MANTISSA_BITS,
            ieee_exponent - BIAS - MANTISSA_BITS as i32 - 2,
        )
    };
    // Round-to-even parsing reaches an even mantissa from both ends.
    let accept_bounds = m2.is_multiple_of(2);
    let mv = 4 * m2;
    // At a power of two the gap below is half the gap above.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    // Whether the interval's lower end is exactly `vm` (scaled) and
    // included, so that the output may end on it.
    let mut vm_exact = false;
    let (mut vr, mut vp, mut vm, e10);
    if e2 >= 0 {
        let q = log10_pow2(e2) - i32::from(e2 > 3);
        e10 = q;
        let shift = -e2 + q + POW5_INV_BITS + pow5_bits(q) - 1;
        let mul = POW5_INV[q as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        // Only for small q can an end be a multiple of 10^q (Ryū's
        // bound is 21); then `vm` and `vp` are exact.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_exact = pow5_factor(mv - 1 - mm_shift) >= q;
            } else {
                vp -= u64::from(pow5_factor(mv + 2) >= q);
            }
        }
    } else {
        let q = log10_pow5(-e2) - i32::from(-e2 > 1);
        e10 = q + e2;
        let i = -e2 - q;
        let shift = q - (pow5_bits(i) - POW5_BITS);
        let mul = POW5[i as usize];
        vr = mul_shift(mv, mul, shift);
        vp = mul_shift(mv + 2, mul, shift);
        vm = mul_shift(mv - 1 - mm_shift, mul, shift);
        if q <= 1 {
            if accept_bounds {
                vm_exact = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Drop digits while the interval still holds a shorter decimal; the
    // last digit dropped rounds vr.
    let mut removed = 0;
    let mut last = 0;
    if vp / 100 > vm / 100 && !vm_exact {
        last = vr % 100 / 10;
        vr /= 100;
        vp /= 100;
        vm /= 100;
        removed = 2;
    }
    while vp / 10 > vm / 10 {
        vm_exact &= vm.is_multiple_of(10);
        last = vr % 10;
        vr /= 10;
        vp /= 10;
        vm /= 10;
        removed += 1;
    }
    if vm_exact {
        // An exact, accepted lower end may shed more zeros.
        while vm.is_multiple_of(10) {
            last = vr % 10;
            vr /= 10;
            vm /= 10;
            removed += 1;
        }
    }
    // vr == vm puts vr at or below the lower end, where it may stay only
    // if that end is exact and included. Otherwise a dropped digit of 5
    // or more rounds up, an exact tie (…50…0) included: `{:?}` rounds
    // ties up where reference Ryū rounds them to even.
    let round_up = (vr == vm && !vm_exact) || last >= 5;
    (vr + u64::from(round_up), e10 + removed)
}

/// Decimal digit pairs, "00" through "99".
const PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Write `v`'s decimal digits, two at a time, to the end of `buf`, and
/// return where they start. Zero is the one digit `0`.
fn digits(mut v: u64, buf: &mut [u8; 20]) -> usize {
    let mut at = buf.len();
    while v >= 100 {
        let pair = 2 * (v % 100) as usize;
        v /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = 2 * v as usize;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + v as u8;
    }
    at
}

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("decimal digits are ASCII")
}

/// Append `v` in decimal.
pub(crate) fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let at = digits(v, &mut buf);
    out.push_str(ascii(&buf[at..]));
}

/// Append finite `x` exactly as `format!("{x:?}")` writes it.
pub(crate) fn write_shortest(out: &mut String, x: f64) {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    if x == 0.0 {
        out.push_str("0.0");
        return;
    }
    let (mantissa, exp10) = shortest(bits);
    let mut buf = [0u8; 20];
    let at = digits(mantissa, &mut buf);
    let ds = ascii(&buf[at..]);
    let n = ds.len() as i32;
    // Digits before the decimal point; the first digit's power of ten
    // is point - 1.
    let point = n + exp10;
    if (-3..=16).contains(&point) {
        if point <= 0 {
            out.push_str("0.");
            out.push_str(&"000"[..-point as usize]);
            out.push_str(ds);
        } else if point < n {
            let (int, frac) = ds.split_at(point as usize);
            out.push_str(int);
            out.push('.');
            out.push_str(frac);
        } else {
            out.push_str(ds);
            out.push_str(&"000000000000000"[..(point - n) as usize]);
            out.push_str(".0");
        }
    } else {
        let (first, rest) = ds.split_at(1);
        out.push_str(first);
        if !rest.is_empty() {
            out.push('.');
            out.push_str(rest);
        }
        out.push('e');
        if point < 1 {
            out.push('-');
        }
        write_u64(out, u64::from((point - 1).unsigned_abs()));
    }
}
