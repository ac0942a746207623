//! Environment knobs: one parser, so every `RAZORBUS_*` integer knob
//! fails the same loud way on a bad value instead of falling back to
//! its default.

use std::ffi::OsString;
use std::str::FromStr;

/// Parses the raw value of the unsigned-integer knob `var`: `None` when
/// it is unset, an error naming the variable and the bad value when it
/// does not parse.
///
/// # Errors
///
/// Names the variable and its value when it is set but does not parse
/// as a `T`.
pub fn parse_knob<T: FromStr>(var: &str, raw: Option<OsString>) -> Result<Option<T>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    raw.to_str()
        .and_then(|s| s.parse().ok())
        .map(Some)
        .ok_or_else(|| format!("{var}={raw:?} is not an unsigned integer"))
}

/// [`parse_knob`] for a count that must be at least 1 (worker counts,
/// chunk sizes): `0` is refused like any other bad value.
///
/// # Errors
///
/// Names the variable and its value when it is set but is not a
/// positive integer.
pub fn parse_count_knob(var: &str, raw: Option<OsString>) -> Result<Option<usize>, String> {
    match parse_knob::<usize>(var, raw)? {
        Some(0) => Err(format!(
            "{var}=\"0\" is refused: the value must be at least 1"
        )),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_refuse_zero_and_garbage_by_name() {
        let var = "RAZORBUS_TEST_COUNT";
        assert_eq!(parse_count_knob(var, None), Ok(None));
        assert_eq!(parse_count_knob(var, Some("3".into())), Ok(Some(3)));
        for bad in ["0", "abc", "-1", ""] {
            let err = parse_count_knob(var, Some(bad.into())).unwrap_err();
            assert!(
                err.contains(var) && err.contains(&format!("\"{bad}\"")),
                "{err}"
            );
        }
    }
}
