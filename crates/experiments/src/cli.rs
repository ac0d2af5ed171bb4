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
    opt_arg(name).unwrap_or(default)
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
    let value = &args.windows(2).find(|pair| pair[0] == flag)?[1];
    Some(value.parse().unwrap_or_else(|e| {
        eprintln!("error: invalid value {value:?} for {flag}: {e}");
        std::process::exit(2);
    }))
}

/// Returns the comma-separated values following `--name`, parsed, or
/// `default` when the flag is absent.
///
/// Exits with status 2 and a one-line diagnostic on a bad or repeated
/// element.
#[must_use]
pub fn list_arg<T: std::str::FromStr + PartialEq>(name: &str, default: Vec<T>) -> Vec<T>
where
    T::Err: std::fmt::Display,
{
    let Some(raw) = opt_arg::<String>(name) else {
        return default;
    };
    parse_list(name, &raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Parses the comma-separated value `raw` of `--name`. Empty elements
/// are skipped; an element that fails to parse, or that parses equal to
/// an earlier one (`O0,O0`, `O0,baseline`), is an error naming the
/// element and the flag, since a repeated axis value would run the same
/// sweep cells twice.
fn parse_list<T: std::str::FromStr + PartialEq>(name: &str, raw: &str) -> Result<Vec<T>, String>
where
    T::Err: std::fmt::Display,
{
    let mut values: Vec<T> = Vec::new();
    for s in raw.split(',').filter(|s| !s.is_empty()) {
        let value = s
            .parse()
            .map_err(|e| format!("invalid element {s:?} in --{name}: {e}"))?;
        if values.contains(&value) {
            return Err(format!("repeated element {s:?} in --{name}"));
        }
        values.push(value);
    }
    Ok(values)
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

/// The first malformation in `args`, described in one line, or `None`
/// when every flag appears once and every other argument is the value of
/// the flag before it.
///
/// The flags named in `bare` take no value; every other flag takes the
/// next argument, which may not itself be a flag. So a value flag with
/// no value, a flag given twice, and a bare token that is no flag's
/// value are each reported — the three ways an argument list can be
/// silently half-read by [`arg`] and [`flag`].
#[must_use]
pub fn malformed_arg(args: &[String], bare: &[&str]) -> Option<String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Some(format!("argument {arg:?} is no flag's value"));
        };
        if seen.contains(&name) {
            return Some(format!("{arg} given twice"));
        }
        seen.push(name);
        if !bare.contains(&name) && rest.next().is_none_or(|value| value.starts_with("--")) {
            return Some(format!("{arg} needs a value"));
        }
    }
    None
}

/// Exits with status 2 and a one-line diagnostic if the process arguments
/// carry a flag outside `known` or are malformed (see [`malformed_arg`];
/// `bare` names the known flags that take no value) — so a typo, a
/// retired flag or a stray token fails loudly instead of running with
/// defaults.
pub fn reject_bad_args(known: &[&str], bare: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = unknown_flag(&args, known) {
        if known.is_empty() {
            eprintln!("error: unknown flag {bad}; this program takes no flags");
        } else {
            eprintln!(
                "error: unknown flag {bad}; known flags: --{}",
                known.join(", --")
            );
        }
        std::process::exit(2);
    }
    if let Some(e) = malformed_arg(&args, bare) {
        eprintln!("error: {e}");
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

    fn argv(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flag_names_the_first_stranger() {
        let known = ["seed", "json", "sequential"];
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
    fn malformed_arg_names_missing_values_repeats_and_strays() {
        let bare = ["sequential", "fault-armed"];
        let check = |items: &[&str]| malformed_arg(&argv(items), &bare);
        // Values, bare flags in any position, and dash-led values pass.
        assert_eq!(
            check(&[
                "--seed",
                "7",
                "--sequential",
                "--json",
                "out.json",
                "--fault-armed"
            ]),
            None
        );
        assert_eq!(check(&["--ber", "-1", "--json", "-"]), None);
        assert_eq!(check(&[]), None);
        // A value flag with no value: last, or followed by another flag.
        assert_eq!(
            check(&["--preset", "smoke", "--seed"]).as_deref(),
            Some("--seed needs a value")
        );
        assert_eq!(
            check(&["--json", "--sequential"]).as_deref(),
            Some("--json needs a value")
        );
        // A flag given twice, value or bare.
        assert_eq!(
            check(&["--seed", "1", "--seed", "2"]).as_deref(),
            Some("--seed given twice")
        );
        assert_eq!(
            check(&["--sequential", "--sequential"]).as_deref(),
            Some("--sequential given twice")
        );
        // A token that is no flag's value: after a value, after a bare
        // flag, or first.
        assert_eq!(
            check(&["--weights", "random", "foo"]).as_deref(),
            Some("argument \"foo\" is no flag's value")
        );
        assert_eq!(
            check(&["--merge", "a.json", "b.json", "--json", "out.json"]).as_deref(),
            Some("argument \"b.json\" is no flag's value")
        );
        assert_eq!(
            check(&["--sequential", "yes"]).as_deref(),
            Some("argument \"yes\" is no flag's value")
        );
        assert_eq!(
            check(&["smoke"]).as_deref(),
            Some("argument \"smoke\" is no flag's value")
        );
    }

    #[test]
    fn parse_list_rejects_bad_and_repeated_elements() {
        use btr_core::ordering::OrderingMethod;
        assert_eq!(parse_list::<u32>("batch", "1,4,,16"), Ok(vec![1, 4, 16]));
        assert_eq!(
            parse_list::<OrderingMethod>("orderings", "O0,O2"),
            Ok(vec![OrderingMethod::Baseline, OrderingMethod::Separated])
        );
        assert_eq!(
            parse_list::<OrderingMethod>("orderings", "O0,O0"),
            Err("repeated element \"O0\" in --orderings".to_string())
        );
        // Two spellings of one value are one value.
        assert_eq!(
            parse_list::<OrderingMethod>("orderings", "O2,separated"),
            Err("repeated element \"separated\" in --orderings".to_string())
        );
        let err = parse_list::<u32>("batch", "1,x").unwrap_err();
        assert!(
            err.starts_with("invalid element \"x\" in --batch: "),
            "{err}"
        );
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

    #[test]
    fn malformed_flag_values_are_parse_errors() {
        use crate::sweep::MeshSpec;
        use btr_noc::fault::BitErrorRate;
        use std::num::NonZeroUsize;
        fn ok<T: std::str::FromStr>(s: &str) -> bool {
            s.parse::<T>().is_ok()
        }
        // (flag, value, parses): every rejected value used to panic
        // downstream (`BitErrorRate::from_f64`, `NocConfig::paper_mesh`,
        // `darknet::build_with_width`) or fail every cell at run time.
        let cases: &[(&str, &str, bool)] = &[
            ("--ber", "0", true),
            ("--ber", "1e-6", true),
            ("--ber", "1", true),
            ("--ber", "2", false),
            ("--ber", "-1", false),
            ("--ber", "nan", false),
            ("--ber", "inf", false),
            ("--ber", "lots", false),
            ("--meshes", "4x4x2", true),
            ("--meshes", "8x8x8", true),
            ("--meshes", "2x1x2", true),
            ("--meshes", "2x2x9", false),
            ("--meshes", "0x0x1", false),
            ("--meshes", "1x1x1", false),
            ("--meshes", "1x2x2", false),
            ("--meshes", "4x4x0", false),
            ("--meshes", "4x4x3", false),
            ("--meshes", "4x1x4", false),
            ("--meshes", "4x0x2", false),
            ("--darknet-width", "4", true),
            ("--darknet-width", "0", false),
            ("--batch", "1", true),
            ("--batch", "0", false),
            ("--batch", "-1", false),
        ];
        for &(flag, value, parses) in cases {
            let got = match flag {
                "--ber" => ok::<BitErrorRate>(value),
                "--meshes" => ok::<MeshSpec>(value),
                _ => ok::<NonZeroUsize>(value),
            };
            assert_eq!(got, parses, "{flag} {value}");
        }
        // The accepted BER is the same threshold `from_f64` builds.
        assert_eq!("1e-6".parse(), Ok(BitErrorRate::from_f64(1e-6)));
        assert_eq!("1".parse(), Ok(BitErrorRate(u64::MAX)));
    }
}
