//! Minimal `--key value` argument parsing for the experiment binaries.
//!
//! Bad flag values are reported as one-line errors on stderr followed by
//! `exit(2)` — no panic, no backtrace — so typos in sweep scripts fail
//! fast and readably.

/// Returns the value following `--name`, parsed, or `default`.
///
/// Exits with status 2 and a one-line diagnostic if the value fails to
/// parse (e.g. `--ties neither` for a `stable|value` flag).
#[must_use]
pub fn arg<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Display,
{
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == flag {
            return pair[1].parse().unwrap_or_else(|e| {
                eprintln!("error: invalid value {:?} for {flag}: {e}", pair[1]);
                std::process::exit(2);
            });
        }
    }
    default
}

/// Returns the value following `--name` parsed, or `None` when absent.
///
/// Exits with status 2 and a one-line diagnostic on a bad value, like
/// [`arg`].
#[must_use]
pub fn opt_arg<T: std::str::FromStr>(name: &str) -> Option<T>
where
    T::Err: std::fmt::Display,
{
    let flag = format!("--{name}");
    let args: Vec<String> = std::env::args().collect();
    for pair in args.windows(2) {
        if pair[0] == flag {
            return Some(pair[1].parse().unwrap_or_else(|e| {
                eprintln!("error: invalid value {:?} for {flag}: {e}", pair[1]);
                std::process::exit(2);
            }));
        }
    }
    None
}

/// Returns the comma-separated values following `--name`, parsed, or
/// `default` when the flag is absent.
///
/// Exits with status 2 and a one-line diagnostic on any bad element.
#[must_use]
pub fn list_arg<T: std::str::FromStr>(name: &str, default: Vec<T>) -> Vec<T>
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = opt_arg::<String>(name) else {
        return default;
    };
    raw.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("error: invalid element {s:?} in --{name}: {e}");
                std::process::exit(2);
            })
        })
        .collect()
}

/// True if `--name` appears as a bare flag.
#[must_use]
pub fn flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

/// The first argument in `args` that looks like a flag (`--…`) but is not
/// `--name` for any `name` in `known`, or `None` when every flag is known.
///
/// Only arguments starting with `--` are flags, so values such as `-1`,
/// `-` or `1e-7` pass through. `--name=value` is not a supported spelling
/// and is reported as unknown.
#[must_use]
pub fn unknown_flag<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|a| {
        a.strip_prefix("--")
            .is_some_and(|name| !known.contains(&name))
    })
}

/// Exits with status 2 and a one-line diagnostic if the process arguments
/// carry a flag outside `known` — so a typo or a retired flag fails
/// loudly instead of running with defaults.
pub fn reject_unknown_flags(known: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = unknown_flag(&args, known) {
        eprintln!(
            "error: unknown flag {bad}; known flags: --{}",
            known.join(", --")
        );
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_default_when_absent() {
        assert_eq!(arg("definitely-not-passed", 42u64), 42);
        assert!(!flag("definitely-not-passed"));
        assert_eq!(opt_arg::<u64>("definitely-not-passed"), None);
        assert_eq!(list_arg("definitely-not-passed", vec![1u32, 2]), vec![1, 2]);
    }

    #[test]
    fn unknown_flag_names_the_first_stranger() {
        let known = ["seed", "json", "sequential"];
        let argv =
            |items: &[&str]| -> Vec<String> { items.iter().map(|s| s.to_string()).collect() };
        // Known value flags and a known bare flag pass.
        assert_eq!(
            unknown_flag(
                &argv(&["--seed", "7", "--sequential", "--json", "out.json"]),
                &known
            ),
            None
        );
        assert_eq!(unknown_flag(&argv(&[]), &known), None);
        // Values that start with a single dash are values, not flags.
        assert_eq!(
            unknown_flag(&argv(&["--seed", "-1", "--json", "-"]), &known),
            None
        );
        // An unknown value flag, an unknown bare flag, and `=` spelling.
        assert_eq!(
            unknown_flag(&argv(&["--seed", "1", "--driver", "sync"]), &known),
            Some("--driver")
        );
        assert_eq!(
            unknown_flag(&argv(&["--sequentail", "--engines", "auto"]), &known),
            Some("--sequentail")
        );
        assert_eq!(unknown_flag(&argv(&["--seed=3"]), &known), Some("--seed=3"));
        assert_eq!(unknown_flag(&argv(&["--"]), &known), Some("--"));
    }

    #[test]
    fn parses_domain_types_from_str() {
        use btr_core::ordering::{OrderingMethod, TieBreak};
        assert_eq!("value".parse::<TieBreak>(), Ok(TieBreak::Value));
        assert!("bogus".parse::<TieBreak>().is_err());
        assert_eq!(
            "O2".parse::<OrderingMethod>(),
            Ok(OrderingMethod::Separated)
        );
        assert_eq!(
            "separated".parse::<OrderingMethod>(),
            Ok(OrderingMethod::Separated)
        );
        assert!("O9".parse::<OrderingMethod>().is_err());
        use btr_bits::word::DataFormat;
        assert_eq!("fx8".parse::<DataFormat>(), Ok(DataFormat::Fixed8));
        assert!("int4".parse::<DataFormat>().is_err());
    }
}
