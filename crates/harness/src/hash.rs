//! The harness's two stateless hashes, defined once. FNV-1a names
//! run-cache entries, places keys on the fleet's ring and seeds the
//! runner's repetition jitter. The splitmix64 finalizer spreads ring
//! points and drives the chaos fabric's fault draws and the fleet's
//! retry jitter.

/// FNV-1a 64-bit over `bytes`.
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf29ce484222325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// splitmix64 finalizer. FNV alone distributes similar short strings
/// poorly across the high bits, so ring placement mixes through this.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58476d1ce4e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d049bb133111eb);
    x ^= x >> 31;
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_match_the_published_vectors() {
        assert_eq!(fnv1a("".bytes()), 0xcbf29ce484222325);
        assert_eq!(fnv1a("a".bytes()), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a("foobar".bytes()), 0x85944171f73967e8);
        // splitmix64's first output from seed 0.
        assert_eq!(mix64(0x9e3779b97f4a7c15), 0xe220a8397b1dcdaf);
    }
}
