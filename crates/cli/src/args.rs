//! Tiny flag parser for the CLI (no external dependencies).

use std::collections::BTreeMap;

/// Parsed command line: flags (`--key value` and bare `--switch`) plus
/// positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Parsed {
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &["verify", "balanced-queue", "help", "no-coalesce"];

impl Parsed {
    /// Parses an argument list.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Parsed::default();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if SWITCHES.contains(&name) {
                    out.switches.push(name.to_string());
                } else {
                    let value = args
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{name} needs a value"))?;
                    out.flags.insert(name.to_string(), value.clone());
                    i += 1;
                }
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// A required string flag.
    pub fn required(&self, name: &str) -> Result<&str, String> {
        self.flags
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string flag.
    pub fn optional(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// A required flag parsed into `T`.
    pub fn required_parse<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.required(name)?
            .parse()
            .map_err(|_| format!("flag --{name} has an invalid value"))
    }

    /// An optional flag parsed into `T` with a default.
    pub fn parse_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.optional(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name} has an invalid value")),
        }
    }

    /// Whether a no-value switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Rejects the first flag or switch not named in the whitespace-separated
    /// `accepted` list, naming it, so a misspelled flag fails instead of
    /// being silently ignored.
    pub fn only(&self, command: &str, accepted: &str) -> Result<(), String> {
        match self
            .flags
            .keys()
            .chain(&self.switches)
            .find(|name| !accepted.split_whitespace().any(|a| a == name.as_str()))
        {
            Some(name) => Err(format!("`{command}` does not accept --{name}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_flags_switches_and_positionals() {
        let p = Parsed::parse(&argv(&["join", "--eps", "0.5", "--verify", "--k", "8"])).unwrap();
        assert_eq!(p.positional(), &["join".to_string()]);
        assert_eq!(p.required("eps").unwrap(), "0.5");
        assert_eq!(p.required_parse::<u32>("k").unwrap(), 8);
        assert!(p.switch("verify"));
        assert!(!p.switch("balanced-queue"));
        assert!(!p.switch("no-coalesce"));
    }

    #[test]
    fn switches_do_not_swallow_the_next_argument() {
        // Regression guard: a switch must not take the next flag as its value.
        let p = Parsed::parse(&argv(&["serve", "--no-coalesce", "--queue-capacity", "4"])).unwrap();
        assert!(p.switch("no-coalesce"));
        assert_eq!(p.parse_or("queue-capacity", 0u32).unwrap(), 4);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Parsed::parse(&argv(&["--eps"])).is_err());
    }

    #[test]
    fn missing_required_flag_is_an_error() {
        let p = Parsed::parse(&argv(&["join"])).unwrap();
        assert!(p.required("eps").is_err());
    }

    #[test]
    fn defaults_apply() {
        let p = Parsed::parse(&argv(&[])).unwrap();
        assert_eq!(p.parse_or("k", 1u32).unwrap(), 1);
    }

    #[test]
    fn invalid_parse_reports_flag_name() {
        let p = Parsed::parse(&argv(&["--k", "banana"])).unwrap();
        let err = p.required_parse::<u32>("k").unwrap_err();
        assert!(err.contains("--k"));
    }
}
