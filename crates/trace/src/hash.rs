//! The workspace's one byte hash.

/// FNV-1a 64-bit over raw bytes. Each byte step `h' = (h ^ b) * p`
/// multiplies by an odd prime, which is a bijection on `u64` per input
/// byte, so any single-byte substitution (in particular any single-bit
/// flip) changes the digest.
///
/// # Examples
///
/// ```
/// assert_eq!(eda_cloud_trace::fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// ```
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }
}
