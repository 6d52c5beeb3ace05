//! The command line the workspace's binaries share.
//!
//! * [`Scanner`] walks the arguments. Every binary accepts `--flag value`
//!   and `--flag=value` alike, and every binary reports the same usage
//!   errors: a switch given a value, a flag missing its value, an unknown
//!   flag, a stray positional argument, and a malformed count, seed or
//!   path.
//! * [`method_by_name`] is the table of method names.
//! * [`named_request`] turns `<system> <method> [budget]` into a request,
//!   so `rlplanner_cli` and `rlp_load` build byte-identical documents for
//!   the same names.
//!
//! * [`outln!`](crate::outln) and [`errln!`](crate::errln) print lines
//!   as `println!` and `eprintln!` do, but a reader that has gone away
//!   (`| head`) is no panic.
//!
//! Every error is a one-line message, which [`usage_error`] prints above
//! the binary's usage text before it exits with status 2.

use crate::request::{Budget, FloorplanRequest, FloorplanRequestBuilder, Method};
use rlp_benchmarks::system_by_name;
use rlp_sa::SaConfig;
use rlp_thermal::{CharacterizationOptions, ThermalBackend, ThermalConfig};
use std::io::{self, ErrorKind, Write};
use std::process::ExitCode;

/// Reports a usage error: `reason` above the binary's `usage` text, and
/// exit status 2.
pub fn usage_error(reason: &str, usage: &str) -> ExitCode {
    crate::errln!("{reason}\n{usage}");
    ExitCode::from(2)
}

/// `println!` for the binaries, through [`cli::print_line`](crate::cli::print_line).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::print_line(::std::format_args!($($arg)*))
    };
}

/// `eprintln!` for the binaries, through [`cli::eprint_line`](crate::cli::eprint_line).
#[macro_export]
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::cli::eprint_line(::std::format_args!($($arg)*))
    };
}

/// Writes one line to stdout. When its reader has gone away (`EPIPE`, as
/// after `| head`), nothing is left to read the rest, so the process ends
/// quietly with status 0 instead of panicking as `println!` does.
///
/// # Panics
///
/// Panics on any other write error, as `println!` does.
pub fn print_line(args: std::fmt::Arguments<'_>) {
    match write_line(&mut io::stdout().lock(), args) {
        Err(err) if err.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(err) => panic!("failed printing to stdout: {err}"),
        Ok(()) => {}
    }
}

/// Writes one line to stderr. A line that cannot be written (say, its
/// reader has gone away) is dropped, so the run goes on and its exit
/// status stays its own.
pub fn eprint_line(args: std::fmt::Arguments<'_>) {
    let _ = write_line(&mut io::stderr().lock(), args);
}

fn write_line(out: &mut impl Write, args: std::fmt::Arguments<'_>) -> io::Result<()> {
    out.write_fmt(args)?;
    out.write_all(b"\n")
}

/// One command-line argument, as [`Scanner::next_arg`] hands it out.
#[derive(Debug, PartialEq, Eq)]
pub enum Arg {
    /// `--name` or `--name=value`, carrying the name without dashes. Take
    /// its value with [`Scanner::value`] or a typed reader; a flag whose
    /// value is not taken is a switch, and refuses one.
    Flag(String),
    /// An argument that does not start with `--`.
    Positional(String),
}

impl Arg {
    /// The flag's name, or `None` for a positional argument.
    pub fn flag(&self) -> Option<&str> {
        match self {
            Arg::Flag(name) => Some(name),
            Arg::Positional(_) => None,
        }
    }

    /// The usage error for an argument the caller does not accept.
    pub fn unexpected(&self) -> String {
        match self {
            Arg::Flag(_) => format!("unknown flag `{self}`"),
            Arg::Positional(_) => format!("unexpected argument `{self}`"),
        }
    }
}

/// The argument as written, less a flag's `=value`.
impl std::fmt::Display for Arg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Arg::Flag(name) => write!(f, "--{name}"),
            Arg::Positional(value) => f.write_str(value),
        }
    }
}

/// Walks command-line arguments one at a time.
///
/// ```
/// use rlplanner::cli::Scanner;
///
/// let args = ["case1", "--budget=40", "--json"].map(String::from);
/// let mut scan = Scanner::new(args);
/// let (mut positional, mut budget, mut json) = (Vec::new(), 100, false);
/// while let Some(arg) = scan.next_arg()? {
///     match arg.flag() {
///         Some("budget") => budget = scan.positive("budget")?,
///         Some("json") => json = true,
///         Some(_) => return Err(arg.unexpected()),
///         None => positional.push(arg.to_string()),
///     }
/// }
/// assert_eq!((positional.len(), budget, json), (1, 40, true));
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct Scanner {
    args: std::vec::IntoIter<String>,
    /// An argument [`Scanner::subcommand`] looked at and put back.
    peeked: Option<Arg>,
    /// Name of the last flag handed out.
    flag: String,
    /// Its `=value`, until the caller takes it.
    inline: Option<String>,
    log_level: bool,
}

impl Scanner {
    /// Scans `args` (the program name already removed).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            peeked: None,
            flag: String::new(),
            inline: None,
            log_level: false,
        }
    }

    /// Also accepts `--log-level <filter>` anywhere on the line
    /// (`off|error|warn|info|debug|trace`) and applies it at once, over
    /// whatever `RLP_LOG` set. The flag never reaches the caller.
    pub fn with_log_level(mut self) -> Self {
        self.log_level = true;
        self
    }

    /// The next argument, or `None` at the end.
    ///
    /// # Errors
    ///
    /// The previous flag carried an `=value` the caller did not take, or
    /// an invalid `--log-level`.
    pub fn next_arg(&mut self) -> Result<Option<Arg>, String> {
        if let Some(arg) = self.peeked.take() {
            return Ok(Some(arg));
        }
        loop {
            if self.inline.take().is_some() {
                return Err(format!("--{} takes no value", self.flag));
            }
            let Some(arg) = self.args.next() else {
                return Ok(None);
            };
            let Some(rest) = arg.strip_prefix("--") else {
                return Ok(Some(Arg::Positional(arg)));
            };
            let (name, inline) = match rest.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (rest, None),
            };
            self.flag = name.to_string();
            self.inline = inline;
            if !(self.log_level && name == "log-level") {
                return Ok(Some(Arg::Flag(self.flag.clone())));
            }
            let filter = rlp_obs::Level::parse_filter(&self.value()?)
                .map_err(|e| format!("invalid --log-level: {e}"))?;
            rlp_obs::set_max_level(filter);
        }
    }

    /// Takes the next argument when it is one of `modes`. Anything else is
    /// left for [`Scanner::next_arg`].
    ///
    /// # Errors
    ///
    /// As [`Scanner::next_arg`].
    pub fn subcommand(&mut self, modes: &[&'static str]) -> Result<Option<&'static str>, String> {
        let arg = self.next_arg()?;
        if let Some(Arg::Positional(word)) = &arg {
            if let Some(&mode) = modes.iter().find(|&&mode| mode == word) {
                return Ok(Some(mode));
            }
        }
        self.peeked = arg;
        Ok(None)
    }

    /// The last flag's value: its `=value`, or else the next argument.
    ///
    /// # Errors
    ///
    /// The line ends before the value.
    pub fn value(&mut self) -> Result<String, String> {
        self.inline
            .take()
            .or_else(|| self.args.next())
            .ok_or_else(|| format!("flag `--{}` needs a value", self.flag))
    }

    /// The last flag's value as a non-empty path.
    ///
    /// # Errors
    ///
    /// A missing or empty value.
    pub fn path(&mut self) -> Result<String, String> {
        let value = self.value()?;
        if value.is_empty() {
            return Err(format!("--{} needs a non-empty path", self.flag));
        }
        Ok(value)
    }

    /// The last flag's value as a positive integer; `what` names it in
    /// the error.
    ///
    /// # Errors
    ///
    /// A missing value, or one that is not a positive integer.
    pub fn positive(&mut self, what: &str) -> Result<usize, String> {
        positive(&self.value()?, what)
    }

    /// The last flag's value as a seed.
    ///
    /// # Errors
    ///
    /// A missing value, or one that is not an unsigned 64-bit integer.
    pub fn seed(&mut self) -> Result<u64, String> {
        seed(&self.value()?)
    }
}

/// Parses a positive integer; `what` names it in the error.
fn positive(raw: &str, what: &str) -> Result<usize, String> {
    raw.parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| format!("invalid {what} `{raw}`: expected a positive integer"))
}

/// Parses a seed: any unsigned 64-bit integer.
///
/// # Errors
///
/// `raw` is not one.
pub fn seed(raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("invalid seed `{raw}`: expected an integer"))
}

/// The method a command line names, with the thermal backend it runs on:
/// `rl`, `rl-rnd`, `sa-fast`, `gradient` and `pretrained` on the fast
/// model, `sa-hotspot` on the grid solver, all over a 32×32 thermal grid.
/// SA anneals down to `1e-6`. `pretrained` runs the policy file at
/// `policy` and is the only method that reads it.
///
/// # Errors
///
/// Returns a message naming an unknown method, or `pretrained` without a
/// policy.
pub fn method_by_name(
    name: &str,
    policy: Option<&str>,
) -> Result<(Method, ThermalBackend), String> {
    let thermal_config = ThermalConfig::with_grid(32, 32);
    let fast = ThermalBackend::Fast {
        config: thermal_config.clone(),
        characterization: CharacterizationOptions::default(),
    };
    let sa = Method::Sa {
        config: SaConfig {
            final_temperature: 1e-6,
            ..SaConfig::default()
        },
    };
    match name {
        "rl" => Ok((Method::rl(), fast)),
        "rl-rnd" => Ok((Method::rl_rnd(), fast)),
        "sa-fast" => Ok((sa, fast)),
        "sa-hotspot" => Ok((
            sa,
            ThermalBackend::Grid {
                config: thermal_config,
            },
        )),
        // The analytic engine needs gradients, which only the fast
        // (characterised) backend provides.
        "gradient" => Ok((Method::gradient(), fast)),
        "pretrained" => {
            let path =
                policy.ok_or_else(|| "method `pretrained` needs --policy <path>".to_string())?;
            Ok((Method::pretrained(path), fast))
        }
        other => Err(format!("unknown method `{other}`")),
    }
}

/// The request `<system> <method> [budget]` names: a benchmark system
/// from [`system_by_name`], a method and backend from [`method_by_name`],
/// and `budget` candidate floorplans (100 when absent). `policy` backs a
/// `pretrained` method.
///
/// # Errors
///
/// Fewer than two or more than three positionals, an unknown system or
/// method, a budget that is not a positive integer, or `pretrained`
/// without a policy.
pub fn named_request(
    positional: &[String],
    policy: Option<&str>,
) -> Result<FloorplanRequestBuilder, String> {
    let (system, method, budget) = match positional {
        [system, method] => (system, method, 100),
        [system, method, budget] => (system, method, positive(budget, "budget")?),
        _ => return Err("expected <system> <method> [budget]".to_string()),
    };
    let system = system_by_name(system).ok_or_else(|| format!("unknown system `{system}`"))?;
    let (method, thermal) = method_by_name(method, policy)?;
    Ok(FloorplanRequest::builder()
        .system(system)
        .method(method)
        .thermal(thermal)
        .budget(Budget::Evaluations(budget)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::request_json;

    fn scanner(args: &[&str]) -> Scanner {
        Scanner::new(args.iter().map(|a| a.to_string()))
    }

    /// Scans a line that knows `--budget <n>`, `--seed <n>`,
    /// `--policy <path>` and the `--json` switch, collecting everything
    /// it read in order.
    fn scan(args: &[&str]) -> Result<Vec<String>, String> {
        let mut scan = scanner(args);
        let mut seen = Vec::new();
        while let Some(arg) = scan.next_arg()? {
            seen.push(match arg.flag() {
                Some("budget") => format!("budget={}", scan.positive("budget")?),
                Some("seed") => format!("seed={}", scan.seed()?),
                Some("policy") => format!("policy={}", scan.path()?),
                Some("json") => "json".to_string(),
                Some(_) => return Err(arg.unexpected()),
                None => format!("positional={arg}"),
            });
        }
        Ok(seen)
    }

    #[test]
    fn both_spellings_of_a_valued_flag_read_the_same() {
        assert_eq!(scan(&["--budget", "40"]), Ok(vec!["budget=40".into()]));
        assert_eq!(scan(&["--budget=40"]), Ok(vec!["budget=40".into()]));
        // Only the first `=` splits; a value may hold more.
        assert_eq!(scan(&["--policy=a=b"]), Ok(vec!["policy=a=b".into()]));
        // A separate value is taken verbatim, even when it looks like a flag.
        assert_eq!(
            scan(&["--budget", "--json"]),
            Err("invalid budget `--json`: expected a positive integer".into())
        );
    }

    #[test]
    fn a_switch_refuses_a_value() {
        assert_eq!(scan(&["--json", "x"]).unwrap()[0], "json");
        assert_eq!(scan(&["--json=1"]), Err("--json takes no value".into()));
        assert_eq!(
            scan(&["--json=", "--budget", "3"]),
            Err("--json takes no value".into())
        );
    }

    #[test]
    fn a_flag_at_the_end_of_the_line_needs_a_value() {
        assert_eq!(
            scan(&["--budget"]),
            Err("flag `--budget` needs a value".into())
        );
        assert_eq!(
            scan(&["x", "--policy"]),
            Err("flag `--policy` needs a value".into())
        );
    }

    #[test]
    fn unknown_flags_and_stray_positionals_are_named() {
        assert_eq!(
            scan(&["--bogus", "1"]),
            Err("unknown flag `--bogus`".into())
        );
        assert_eq!(scan(&["--"]), Err("unknown flag `--`".into()));
        assert_eq!(
            Arg::Positional("case1".into()).unexpected(),
            "unexpected argument `case1`"
        );
        // `-x` is not a flag.
        assert_eq!(scan(&["-x"]), Ok(vec!["positional=-x".into()]));
    }

    #[test]
    fn counts_must_be_positive_integers() {
        for bad in ["0", "-1", "1.5", "x", ""] {
            assert_eq!(
                scan(&["--budget", bad]),
                Err(format!(
                    "invalid budget `{bad}`: expected a positive integer"
                ))
            );
        }
    }

    #[test]
    fn seeds_span_u64() {
        assert_eq!(
            scan(&["--seed=18446744073709551615"]),
            Ok(vec!["seed=18446744073709551615".into()])
        );
        for bad in ["-1", "x", "18446744073709551616"] {
            assert_eq!(
                scan(&["--seed", bad]),
                Err(format!("invalid seed `{bad}`: expected an integer"))
            );
        }
    }

    #[test]
    fn paths_must_be_non_empty() {
        assert_eq!(
            scan(&["--policy="]),
            Err("--policy needs a non-empty path".into())
        );
        assert_eq!(
            scan(&["--policy", ""]),
            Err("--policy needs a non-empty path".into())
        );
    }

    #[test]
    fn log_level_is_consumed_only_where_enabled() {
        let mut enabled = scanner(&["--log-level=off", "a", "--log-level", "off"]).with_log_level();
        assert_eq!(enabled.next_arg(), Ok(Some(Arg::Positional("a".into()))));
        assert_eq!(enabled.next_arg(), Ok(None));
        let mut bad = scanner(&["--log-level", "loud"]).with_log_level();
        assert!(bad
            .next_arg()
            .unwrap_err()
            .starts_with("invalid --log-level: "));
        let mut missing = scanner(&["--log-level"]).with_log_level();
        assert_eq!(
            missing.next_arg(),
            Err("flag `--log-level` needs a value".into())
        );
        assert_eq!(
            scan(&["--log-level", "off"]),
            Err("unknown flag `--log-level`".into())
        );
    }

    #[test]
    fn subcommands_are_taken_only_when_named() {
        let mut scan = scanner(&["sweep", "--json"]);
        assert_eq!(scan.subcommand(&["sweep", "train"]), Ok(Some("sweep")));
        assert_eq!(scan.next_arg(), Ok(Some(Arg::Flag("json".into()))));
        // Anything else is handed back by `next`, switch rule included.
        let mut scan = scanner(&["--json=1", "case1"]);
        assert_eq!(scan.subcommand(&["sweep"]), Ok(None));
        assert_eq!(scan.next_arg(), Ok(Some(Arg::Flag("json".into()))));
        assert_eq!(scan.next_arg(), Err("--json takes no value".into()));
        // `--log-level` may come before the mode word.
        let mut scan = scanner(&["--log-level", "off", "sweep"]).with_log_level();
        assert_eq!(scan.subcommand(&["sweep"]), Ok(Some("sweep")));
        assert_eq!(scanner(&[]).subcommand(&["sweep"]), Ok(None));
    }

    fn named(args: &[&str], policy: Option<&str>) -> Result<String, String> {
        let positional: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let request = named_request(&positional, policy)?
            .build()
            .map_err(|e| e.to_string())?;
        Ok(request_json(&request))
    }

    #[test]
    fn named_requests_default_the_budget_and_check_every_name() {
        assert_eq!(
            named(&["case1", "sa-fast"], None),
            named(&["case1", "sa-fast", "100"], None)
        );
        assert_ne!(
            named(&["case1", "sa-fast"], None),
            named(&["case1", "sa-fast", "40"], None)
        );
        let pretrained = named(&["case2", "pretrained"], Some("p.policy")).unwrap();
        assert!(pretrained.contains("\"p.policy\""), "{pretrained}");
        for (args, error) in [
            (&["case1"][..], "expected <system> <method> [budget]"),
            (
                &["case1", "rl", "4", "5"],
                "expected <system> <method> [budget]",
            ),
            (&["case9", "rl"], "unknown system `case9`"),
            (&["case1", "ppo"], "unknown method `ppo`"),
            (
                &["case1", "rl", "0"],
                "invalid budget `0`: expected a positive integer",
            ),
            (
                &["case1", "pretrained"],
                "method `pretrained` needs --policy <path>",
            ),
        ] {
            assert_eq!(named(args, None), Err(error.to_string()), "{args:?}");
        }
    }
}
