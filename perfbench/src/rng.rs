//! Seeded input generation. Every input of a run derives from `--seed`
//! through these functions, so the same seed gives the same inputs.

/// The splitmix64 finalizer: a bijection on `u64` with good avalanche.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small deterministic generator (splitmix64). Streams with different
/// `stream` numbers under one seed are independent.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `stream` under `seed`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix64(seed ^ mix64(stream.wrapping_add(0x5151))))
    }

    /// Next uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Maps key ids to keys. The map is a bijection of `u64` salted by the
/// seed, so distinct ids always give distinct keys, and the keys of any id
/// range spread over the whole 64-bit domain.
#[derive(Clone, Copy, Debug)]
pub struct KeySpace {
    salt: u64,
}

impl KeySpace {
    /// The key space of `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            salt: mix64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ 0xA5A5),
        }
    }

    /// The key of id `id`.
    pub fn key(&self, id: u64) -> u64 {
        mix64(id ^ self.salt)
    }
}

/// The value stored under `key` at `version`: `len` bytes that depend on
/// both, so a read can be checked byte for byte.
pub fn value_of(key: u64, version: u64, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    let mut word = key ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    while out.len() < len {
        out.extend_from_slice(&word.to_le_bytes());
        word = mix64(word);
    }
    out.truncate(len);
    out
}
