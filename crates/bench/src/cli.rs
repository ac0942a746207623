//! Minimal shared command-line parsing for the harness binaries.
//!
//! `repro` and `bench_report` used to hand-roll the same `--flag` /
//! `--flag=VALUE` scanning independently; this module is the single
//! copy. It is deliberately tiny: positionals plus a closed set of
//! known flags, each optionally valued, duplicates rejected.

/// A parsed command line: positionals in order plus `--flag[=value]`
/// options.
///
/// ```
/// use razorbus_bench::cli::CliArgs;
///
/// let args = CliArgs::parse(
///     ["all", "--save-result=x.rzba"].map(String::from),
///     &["save-result", "load-result"],
/// )
/// .unwrap();
/// assert_eq!(args.positionals(), ["all"]);
/// assert_eq!(args.valued_flag("save-result", "d"), Some("x.rzba".to_string()));
/// assert_eq!(args.valued_flag("load-result", "d"), None);
/// ```
#[derive(Debug, Clone)]
pub struct CliArgs {
    positionals: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl CliArgs {
    /// Parses `args` (without the program name), accepting only the
    /// `known_flags` (names without the `--` prefix).
    ///
    /// # Errors
    ///
    /// Returns a usage description for unknown, duplicate or malformed
    /// (`--flag=`) flags.
    pub fn parse<I: IntoIterator<Item = String>>(
        args: I,
        known_flags: &[&str],
    ) -> Result<Self, String> {
        let mut positionals = Vec::new();
        let mut flags: Vec<(String, Option<String>)> = Vec::new();
        for arg in args {
            let Some(body) = arg.strip_prefix("--") else {
                positionals.push(arg);
                continue;
            };
            let (name, value) = match body.split_once('=') {
                Some((name, value)) if !value.is_empty() => {
                    (name.to_string(), Some(value.to_string()))
                }
                Some((name, _)) => {
                    return Err(format!(
                        "malformed flag '--{name}=' (use --{name} or --{name}=VALUE)"
                    ))
                }
                None => (body.to_string(), None),
            };
            if !known_flags.contains(&name.as_str()) {
                return Err(format!("unknown flag '--{name}'"));
            }
            if flags.iter().any(|(n, _)| *n == name) {
                return Err(format!("duplicate flag '--{name}'"));
            }
            flags.push((name, value));
        }
        Ok(Self { positionals, flags })
    }

    /// The positional arguments in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether `--name` (with or without a value) was given.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    /// The value of `--name[=VALUE]`: `None` when absent, the given
    /// value or `default` when present.
    #[must_use]
    pub fn valued_flag(&self, name: &str, default: &str) -> Option<String> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.clone().unwrap_or_else(|| default.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], known: &[&str]) -> Result<CliArgs, String> {
        CliArgs::parse(args.iter().map(ToString::to_string), known)
    }

    #[test]
    fn splits_positionals_and_flags() {
        let args = parse(&["fig8", "--save=x", "--plain"], &["save", "plain"]).unwrap();
        assert_eq!(args.positionals(), ["fig8"]);
        assert_eq!(args.valued_flag("save", "d"), Some("x".to_string()));
        assert_eq!(args.valued_flag("plain", "d"), Some("d".to_string()));
        assert!(args.has("plain"));
        assert!(!args.has("missing"));
        assert_eq!(args.valued_flag("missing", "d"), None);
    }

    #[test]
    fn rejects_unknown_duplicate_and_malformed_flags() {
        assert!(parse(&["--nope"], &["save"])
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&["--save", "--save=x"], &["save"])
            .unwrap_err()
            .contains("duplicate"));
        assert!(parse(&["--save="], &["save"])
            .unwrap_err()
            .contains("malformed"));
    }
}
