//! The one flag parser behind every binary of the workspace: `--flag`,
//! `--key v` and `--key=v`, with a typed error. A binary's `parse_args` is
//! a `match` over [`Args::next_flag`] — its flag table and nothing else.

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No table entry claims this argument (the usage line is due).
    Unknown(String),
    /// A value is missing, malformed or out of range; the message names
    /// the flag.
    Invalid(String),
}

/// A cursor over a command line.
pub struct Args<'a> {
    rest: std::slice::Iter<'a, String>,
    name: &'a str,
    inline: Option<&'a str>,
}

impl<'a> Args<'a> {
    /// Starts at the first argument (the program name already skipped).
    pub fn new(args: &'a [String]) -> Self {
        Self {
            rest: args.iter(),
            name: "",
            inline: None,
        }
    }

    /// The next argument's name: the `--key` of `--key=v` (the `v` is held
    /// for [`Args::value`]), anything else verbatim. An `=v` the previous
    /// flag never took makes that argument unknown.
    pub fn next_flag(&mut self) -> Result<Option<&'a str>, CliError> {
        if self.inline.is_some() {
            return Err(self.unknown());
        }
        let Some(arg) = self.rest.next() else {
            return Ok(None);
        };
        let split = arg.split_once('=').filter(|_| arg.starts_with("--"));
        self.name = split.map_or(arg.as_str(), |s| s.0);
        self.inline = split.map(|s| s.1);
        Ok(Some(self.name))
    }

    /// The current flag's value: its `=v` part, else the next argument —
    /// unless that is itself a `--flag`, which is left for
    /// [`Args::next_flag`] (`--out-dir --smoke` is a missing value, not a
    /// directory named `--smoke`).
    pub fn value(&mut self) -> Result<&'a str, CliError> {
        if let Some(v) = self.inline.take() {
            return Ok(v);
        }
        match self.rest.as_slice().first() {
            Some(next) if !next.starts_with("--") => {
                self.rest.next();
                Ok(next)
            }
            _ => Err(CliError::Invalid(format!("{} needs a value", self.name))),
        }
    }

    /// The current flag's value parsed as a `T`; `what` names a `T` in the
    /// error (`--jobs: not a number: x`).
    pub fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CliError> {
        let v = self.value()?;
        let bad = |_| CliError::Invalid(format!("{}: not a {what}: {v}", self.name));
        v.parse().map_err(bad)
    }

    /// The current argument as the error for a table miss.
    pub fn unknown(&self) -> CliError {
        let stray = self.inline.map_or(String::new(), |v| format!("={v}"));
        CliError::Unknown(format!("{}{stray}", self.name))
    }
}

/// Prints `e` — with `usage` when the argument was unknown — and exits
/// with status 2, as every binary's `main` does on a bad command line.
pub fn exit_usage(e: &CliError, usage: &str) -> ! {
    match e {
        CliError::Unknown(arg) => eprintln!("unknown argument: {arg}\n{usage}"),
        CliError::Invalid(msg) => eprintln!("{msg}"),
    }
    std::process::exit(2)
}

/// Creates the `--out-dir` a binary was given (and its parents) before
/// the binary does any work, so a path that cannot exist fails in the
/// first second and not after the run it was to record; exits with
/// status 1, naming the path, when it cannot.
pub fn ensure_out_dir(dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("cannot create --out-dir {dir}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A three-entry table: one switch, one typed value, one string value.
    fn parse(line: &[&str]) -> Result<(bool, usize, String, Vec<String>), CliError> {
        let line: Vec<String> = line.iter().map(|s| s.to_string()).collect();
        let (mut smoke, mut jobs, mut out, mut rest) = (false, 1, String::new(), Vec::new());
        let mut args = Args::new(&line);
        while let Some(flag) = args.next_flag()? {
            match flag {
                "--smoke" => smoke = true,
                "--jobs" => jobs = args.parse("number")?,
                "--out-dir" => out = args.value()?.to_string(),
                s if !s.starts_with("--") => rest.push(s.to_string()),
                _ => return Err(args.unknown()),
            }
        }
        Ok((smoke, jobs, out, rest))
    }

    #[test]
    fn all_three_spellings_parse() {
        let want = Ok((true, 4, "a=b".to_string(), vec!["fig9=x".to_string()]));
        assert_eq!(
            parse(&["--smoke", "--jobs", "4", "--out-dir=a=b", "fig9=x"]),
            want
        );
        assert_eq!(
            parse(&["--jobs=4", "fig9=x", "--out-dir", "a=b", "--smoke"]),
            want
        );
    }

    #[test]
    fn errors_are_typed_and_name_the_flag() {
        let invalid = |m: &str| Err(CliError::Invalid(m.to_string()));
        assert_eq!(parse(&["--jobs"]), invalid("--jobs needs a value"));
        assert_eq!(parse(&["--jobs=x"]), invalid("--jobs: not a number: x"));
        assert_eq!(
            parse(&["--jobs", "-1"]),
            invalid("--jobs: not a number: -1")
        );
        for bad in ["--bogus", "--bogus=1", "--smoke=1"] {
            let e = parse(&[bad, "--jobs", "2"]).unwrap_err();
            assert_eq!(e, CliError::Unknown(bad.to_string()));
        }
        assert!(
            parse(&["--smoke=1"]).is_err(),
            "a trailing stray =v is caught"
        );
    }

    #[test]
    fn a_value_flag_never_swallows_the_next_flag() {
        let invalid = |m: &str| Err(CliError::Invalid(m.to_string()));
        assert_eq!(
            parse(&["--out-dir", "--smoke"]),
            invalid("--out-dir needs a value")
        );
        assert_eq!(
            parse(&["--jobs", "--smoke"]),
            invalid("--jobs needs a value")
        );
        // An inline value is taken verbatim, and a lone dash is a value.
        assert_eq!(
            parse(&["--out-dir=--v", "--smoke"]),
            Ok((true, 1, "--v".to_string(), vec![]))
        );
        assert_eq!(
            parse(&["--out-dir", "-1"]),
            Ok((false, 1, "-1".to_string(), vec![]))
        );
    }
}
