//! Numbers read from the environment: `DPS_CACHE_BYTES` here, and the
//! test suites' `DPS_CRASH_SEED` and `DPS_CHAOS_SEED`.
//!
//! They follow the `DPS_FORCE_ISA` rule (`dps_crypto::isa`): an unset
//! variable keeps its default, and a value that does not parse is a
//! configuration error that fails fast, naming the variable and the value.
//! Falling back would quietly run something other than what was pinned —
//! CI's 4 KiB cache leg with the 1 GiB default, or another crash schedule
//! than the one in the log.

use std::str::FromStr;

/// `value` — variable `name`'s, `None` when it is unset — as a `T`,
/// surrounding whitespace ignored; the error names the variable and the
/// value. Pure: [`from_env`] applies it to the environment, and tests drive
/// it directly.
pub fn parse<T: FromStr>(name: &str, value: Option<&str>) -> Result<Option<T>, String> {
    let Some(value) = value else { return Ok(None) };
    value
        .trim()
        .parse()
        .map(Some)
        .map_err(|_| format!("{name}={value:?}: not a valid {}", std::any::type_name::<T>()))
}

/// The environment variable `name` as a `T`, or `None` when it is unset.
///
/// # Panics
/// Panics with [`parse`]'s message if the variable is set to anything that
/// does not parse (a value that is not Unicode included).
pub fn from_env<T: FromStr>(name: &str) -> Option<T> {
    let value = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse(name, value.as_deref()).unwrap_or_else(|e| panic!("{e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_keeps_the_default() {
        assert_eq!(parse::<usize>("DPS_CACHE_BYTES", None), Ok(None));
    }

    #[test]
    fn a_number_parses_with_or_without_surrounding_whitespace() {
        assert_eq!(parse::<usize>("DPS_CACHE_BYTES", Some("4096")), Ok(Some(4096)));
        assert_eq!(parse::<u64>("DPS_CRASH_SEED", Some("3508486893 \n")), Ok(Some(3_508_486_893)));
        assert_eq!(parse::<u64>("DPS_CRASH_SEED", Some(" 7")), Ok(Some(7)));
    }

    #[test]
    fn garbage_is_an_error_naming_the_variable_and_the_value() {
        for bad in ["4k", "", "-1", "0x10", "1 GiB", "18446744073709551616"] {
            let msg = parse::<u64>("DPS_CACHE_BYTES", Some(bad)).unwrap_err();
            assert!(msg.starts_with(&format!("DPS_CACHE_BYTES={bad:?}:")), "{msg}");
        }
    }

    /// The variables CI pins are set to numbers, or not set at all.
    #[test]
    fn the_pinned_variables_are_valid_here() {
        for name in ["DPS_CACHE_BYTES", "DPS_CRASH_SEED", "DPS_CHAOS_SEED"] {
            from_env::<u64>(name);
        }
    }
}
