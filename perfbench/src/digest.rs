//! Output digests and the pinned reference table.
//!
//! Every checked output is folded into a 64-bit FNV-1a digest and
//! compared with `pins.txt`, captured from a build whose outputs were
//! verified against `repro all` / `repro all --paper`. A missing pin is
//! a mismatch, so a renamed or new output cannot pass unpinned.

use std::collections::BTreeMap;

/// Streaming 64-bit FNV-1a.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Fold a little-endian `u64` in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Pinned digests keyed by `(scope, key)`, e.g. `("quick", "fig2")`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Pins(BTreeMap<(String, String), u64>);

impl Pins {
    /// Parse `scope key hex` lines; `#` starts a comment line.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let [scope, key, hex] = f[..] else {
                return Err(format!("pins line {}: want `scope key digest`", n + 1));
            };
            let v = u64::from_str_radix(hex, 16)
                .map_err(|e| format!("pins line {}: digest {hex:?}: {e}", n + 1))?;
            if map.insert((scope.to_string(), key.to_string()), v).is_some() {
                return Err(format!("pins line {}: duplicate {scope} {key}", n + 1));
            }
        }
        Ok(Pins(map))
    }

    /// The pins compiled into the benchmark.
    pub fn builtin() -> Pins {
        Pins::parse(include_str!("../pins.txt")).expect("pins.txt is well formed")
    }

    /// True when `digest` equals the pin for `(scope, key)`.
    pub fn matches(&self, scope: &str, key: &str, digest: u64) -> bool {
        self.0.get(&(scope.to_string(), key.to_string())) == Some(&digest)
    }

    /// Replace one pin (tests corrupt pins through this).
    pub fn set(&mut self, scope: &str, key: &str, digest: u64) {
        self.0.insert((scope.to_string(), key.to_string()), digest);
    }
}
