//! Runtime ISA tier selection for the wide crypto cores.
//!
//! The ChaCha20 wide core ships three implementations — portable lane
//! loops, SSE2 4-lane, and AVX2 8-lane ([`crate::chacha`]) — that compute
//! byte-identical keystreams. Which one runs is decided **once per
//! process** here: the widest tier the CPU supports is detected at first
//! use (`is_x86_feature_detected!`), cached, and consulted by every bulk
//! entry point. SSE2 is part of the x86-64 baseline ABI so it is a
//! compile-time fact; AVX2 is not, so it must be a runtime one — the same
//! binary runs 8-lane on the CI Xeon and 4-lane on an older box.
//!
//! The `DPS_FORCE_ISA` environment variable pins the tier below the
//! detected one (`portable`, `sse2` or `avx2`), letting tests and benches
//! run every implementation on one machine — CI runs the full crypto
//! suite once per tier. Forcing a tier the CPU (or target) cannot run is
//! a configuration error and fails fast with a typed [`ForceIsaError`].
//!
//! This ladder is the template for future ISA extensions (AVX-512, NEON):
//! add a tier above the current top, one audited unsafe module, and the
//! byte-identity proptests pin it against the tiers below.

use std::sync::OnceLock;

/// Environment variable pinning the dispatch tier (`portable`, `sse2`,
/// `avx2`). Read once, at the first wide-core call of the process.
pub const FORCE_ISA_ENV: &str = "DPS_FORCE_ISA";

/// An implementation tier of the wide crypto cores, ordered from
/// narrowest to widest. [`tier`] returns the widest tier the running CPU
/// supports (or the forced one); every tier at or below it is runnable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum IsaTier {
    /// Lane loops over plain `u32` arrays; compiles and runs everywhere.
    Portable,
    /// 4-lane 128-bit core (`chacha::sse2`); the x86-64 baseline.
    Sse2,
    /// 8-lane 256-bit core (`chacha::avx2`); runtime-detected on x86-64.
    Avx2,
}

impl IsaTier {
    /// The tier's name as accepted by [`FORCE_ISA_ENV`] and reported in
    /// bench output.
    pub fn name(self) -> &'static str {
        match self {
            IsaTier::Portable => "portable",
            IsaTier::Sse2 => "sse2",
            IsaTier::Avx2 => "avx2",
        }
    }
}

impl std::fmt::Display for IsaTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a [`FORCE_ISA_ENV`] override could not be honored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForceIsaError {
    /// The value names no known tier.
    UnknownTier(String),
    /// The named tier is wider than what this CPU / target supports.
    Unavailable {
        /// The tier the override asked for.
        requested: IsaTier,
        /// The widest tier actually available here.
        detected: IsaTier,
    },
}

impl std::fmt::Display for ForceIsaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ForceIsaError::UnknownTier(got) => {
                write!(f, "{FORCE_ISA_ENV}={got:?}: unknown tier (expected portable, sse2 or avx2)")
            }
            ForceIsaError::Unavailable { requested, detected } => write!(
                f,
                "{FORCE_ISA_ENV}={requested}: tier not available on this CPU (widest supported: {detected})"
            ),
        }
    }
}

impl std::error::Error for ForceIsaError {}

/// The widest tier the running CPU supports.
fn detect() -> IsaTier {
    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            IsaTier::Avx2
        } else {
            IsaTier::Sse2
        }
    }
    #[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
    {
        IsaTier::Portable
    }
}

/// Resolves a forced-tier request against the detected capability: no
/// request selects `detected`; a request at or below it is honored; a
/// wider or unknown request is a typed error. Pure — the cached [`tier`]
/// applies it to [`FORCE_ISA_ENV`] and `detect`, and tests drive it
/// with every combination directly.
pub fn resolve(forced: Option<&str>, detected: IsaTier) -> Result<IsaTier, ForceIsaError> {
    let Some(name) = forced else {
        return Ok(detected);
    };
    let requested = match name.to_ascii_lowercase().as_str() {
        "portable" => IsaTier::Portable,
        "sse2" => IsaTier::Sse2,
        "avx2" => IsaTier::Avx2,
        _ => return Err(ForceIsaError::UnknownTier(name.to_string())),
    };
    if requested <= detected {
        Ok(requested)
    } else {
        Err(ForceIsaError::Unavailable { requested, detected })
    }
}

fn cached() -> &'static Result<IsaTier, ForceIsaError> {
    static TIER: OnceLock<Result<IsaTier, ForceIsaError>> = OnceLock::new();
    TIER.get_or_init(|| {
        let forced = std::env::var(FORCE_ISA_ENV).ok();
        resolve(forced.as_deref(), detect())
    })
}

/// The active dispatch tier, honoring [`FORCE_ISA_ENV`] — the typed-error
/// form for callers that want to report a bad override themselves (the
/// bench binary fails fast with the [`ForceIsaError`] message).
pub fn try_tier() -> Result<IsaTier, ForceIsaError> {
    cached().clone()
}

/// The active dispatch tier, honoring [`FORCE_ISA_ENV`].
///
/// # Panics
/// Panics if the override names an unknown or unavailable tier: a forced
/// tier exists to pin what runs, so silently falling back would defeat it.
pub fn tier() -> IsaTier {
    match cached() {
        Ok(tier) => *tier,
        Err(err) => panic!("{err}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_override_selects_detected() {
        for detected in [IsaTier::Portable, IsaTier::Sse2, IsaTier::Avx2] {
            assert_eq!(resolve(None, detected), Ok(detected));
        }
    }

    #[test]
    fn forcing_at_or_below_detected_is_honored() {
        assert_eq!(resolve(Some("portable"), IsaTier::Avx2), Ok(IsaTier::Portable));
        assert_eq!(resolve(Some("sse2"), IsaTier::Avx2), Ok(IsaTier::Sse2));
        assert_eq!(resolve(Some("avx2"), IsaTier::Avx2), Ok(IsaTier::Avx2));
        assert_eq!(resolve(Some("portable"), IsaTier::Portable), Ok(IsaTier::Portable));
        // Case-insensitive, matching how users type env vars.
        assert_eq!(resolve(Some("SSE2"), IsaTier::Sse2), Ok(IsaTier::Sse2));
    }

    #[test]
    fn forcing_above_detected_is_a_typed_error() {
        assert_eq!(
            resolve(Some("avx2"), IsaTier::Sse2),
            Err(ForceIsaError::Unavailable { requested: IsaTier::Avx2, detected: IsaTier::Sse2 })
        );
        assert_eq!(
            resolve(Some("sse2"), IsaTier::Portable),
            Err(ForceIsaError::Unavailable {
                requested: IsaTier::Sse2,
                detected: IsaTier::Portable
            })
        );
    }

    #[test]
    fn unknown_tier_is_a_typed_error() {
        assert_eq!(
            resolve(Some("neon"), IsaTier::Avx2),
            Err(ForceIsaError::UnknownTier("neon".to_string()))
        );
        let msg = resolve(Some("avx512"), IsaTier::Avx2).unwrap_err().to_string();
        assert!(msg.contains("DPS_FORCE_ISA"), "error names the env var: {msg}");
    }

    #[test]
    fn unavailable_error_names_both_tiers() {
        let msg = resolve(Some("avx2"), IsaTier::Portable).unwrap_err().to_string();
        assert!(msg.contains("avx2") && msg.contains("portable"), "{msg}");
    }

    /// The process-wide cached tier is consistent: never wider than what
    /// the CPU reports, and stable across calls. (CI sets the override to
    /// valid tiers only, so `try_tier` must succeed here.)
    #[test]
    fn cached_tier_is_stable_and_supported() {
        let tier = try_tier().expect("valid or absent override");
        assert!(tier <= detect());
        assert_eq!(tier, super::tier());
    }
}
