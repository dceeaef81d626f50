//! Tiny flag parser for the CLI: each command form declares its flags
//! once, as a table of [`Flag`] rows in a [`Form`], and that one table
//! drives strict parsing, the typed accessors and the `--help` text.
//! Hand-rolled to keep the sanctioned dependency set.

/// One flag a command form accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The name after `--`.
    pub name: &'static str,
    /// The value's placeholder in the usage text, or `None` for a switch.
    pub value: Option<&'static str>,
    /// Whether the form fails without it.
    pub required: bool,
    /// What the flag does, with its default and choices.
    pub help: &'static str,
}

impl Flag {
    /// A valueless switch (`--trace`).
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            value: None,
            ..Flag::value(name, "", help)
        }
    }

    /// An optional flag that takes one value (`--seed N`).
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(placeholder),
            required: false,
            help,
        }
    }

    /// A flag that takes one value and that the form fails without.
    pub const fn required(
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag {
            required: true,
            ..Flag::value(name, placeholder, help)
        }
    }

    /// `--name` or `--name PLACEHOLDER`.
    fn spelled(&self) -> String {
        let value = self.value.map(|v| format!(" {v}"));
        format!("--{}{}", self.name, value.unwrap_or_default())
    }
}

/// One command form: the words that select it, its positional operands
/// and the flags it accepts.
#[derive(Debug)]
pub struct Form {
    /// The command words after `dbdc-cli` (`run`, `report diff`).
    pub command: &'static str,
    /// The standalone binary that runs this form too, if any.
    pub binary: Option<&'static str>,
    /// Positional operands as the synopsis shows them: required words
    /// bare, optional ones in brackets, `...` for any number more
    /// (`SERVER [SITE...]`).
    pub operands: &'static str,
    /// One line on what the form does.
    pub summary: &'static str,
    /// Further notes printed under the flags; may be empty.
    pub about: &'static str,
    /// Every flag the form accepts; nothing else parses.
    pub flags: &'static [Flag],
}

/// Where the usage text wraps.
const TEXT_WIDTH: usize = 80;

/// The row every form's usage ends with.
const HELP: Flag = Flag::switch("help", "print this help and exit (also -h)");

impl Form {
    /// The fewest and the most positional operands the form takes.
    fn arity(&self) -> (usize, usize) {
        let words = self.operands.split_whitespace();
        let min = words.clone().filter(|w| !w.starts_with('[')).count();
        let max = if self.operands.contains("...") {
            usize::MAX
        } else {
            words.count()
        };
        (min, max)
    }

    /// Operands, then the required flags, then `[options]` if any flag
    /// is optional.
    pub fn synopsis(&self) -> String {
        let mut parts: Vec<String> = Vec::new();
        if !self.operands.is_empty() {
            parts.push(self.operands.to_string());
        }
        parts.extend(self.flags.iter().filter(|f| f.required).map(Flag::spelled));
        if self.flags.iter().any(|f| !f.required) {
            parts.push("[options]".into());
        }
        parts.join(" ")
    }

    /// The `--help` text: title, synopsis, one row per flag, then the
    /// form's notes.
    pub fn usage(&self) -> String {
        let (program, also) = match self.binary {
            Some(binary) => (
                binary.to_string(),
                format!(" (also dbdc-cli {})", self.command),
            ),
            None => (format!("dbdc-cli {}", self.command), String::new()),
        };
        let (summary, synopsis) = (self.summary, self.synopsis());
        let mut out = format!("{program}{also} — {summary}\n\nusage: {program} {synopsis}\n\n");
        for flag in self.flags.iter().chain([&HELP]) {
            let help = wrap(flag.help, TEXT_WIDTH - 6).join("\n      ");
            out.push_str(&format!("  {}\n      {help}\n", flag.spelled()));
        }
        for paragraph in self.about.lines() {
            out.push_str(&format!("\n{}\n", wrap(paragraph, TEXT_WIDTH).join("\n")));
        }
        out
    }
}

/// Greedy word wrap at `width` columns.
pub(crate) fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in text.split_whitespace() {
        match lines.last_mut() {
            Some(line) if line.chars().count() + 1 + word.chars().count() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

/// Parsed command-line arguments.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    /// Each flag given, with its value (`None` for a switch), in order.
    flags: Vec<(&'static str, Option<String>)>,
}

/// Parse failures and typed-access errors.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A required flag was not supplied.
    Missing(String),
    /// A flag's value failed to parse (flag, value, expected type).
    Invalid(String, String, &'static str),
    /// An unknown flag was supplied.
    Unknown(String),
    /// A value flag was last, or followed by another flag (flag,
    /// placeholder).
    NoValue(&'static str, &'static str),
    /// A flag was given twice.
    Repeated(&'static str),
    /// A positional argument beyond the form's operands.
    Unexpected(String),
    /// Fewer positional arguments than the form's operands (command,
    /// operands).
    Operands(&'static str, &'static str),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::Missing(k) => write!(f, "missing required flag --{k}"),
            ArgError::Invalid(k, v, ty) => write!(f, "flag --{k}: {v:?} is not a valid {ty}"),
            ArgError::Unknown(k) => write!(f, "unknown flag --{k}"),
            ArgError::NoValue(k, v) => write!(f, "flag --{k} expects a value: --{k} {v}"),
            ArgError::Repeated(k) => write!(f, "flag --{k} given more than once"),
            ArgError::Unexpected(a) => write!(f, "unexpected argument {a:?}"),
            ArgError::Operands(cmd, ops) => write!(f, "{cmd} expects {ops}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments against `form`, or returns `Ok(None)` when a
    /// `--help` or `-h` stands where a flag may. Strict: an unknown
    /// flag, a value flag without its value, a repeated flag, positionals
    /// outside the form's arity and a missing required flag all fail.
    /// A value may begin with a single `-` (`--eps-global -3`), never
    /// with `--`; a switch takes no value, so a bare word after it is a
    /// positional.
    pub fn parse<S: AsRef<str>>(raw: &[S], form: &'static Form) -> Result<Option<Self>, ArgError> {
        let mut args = Args::default();
        // The first error is reported, but only once the whole line has
        // been scanned: a `--help` anywhere still wins.
        let mut first_err = None;
        let mut tokens = raw.iter().map(AsRef::as_ref).peekable();
        while let Some(token) = tokens.next() {
            if token == "--help" || token == "-h" {
                return Ok(None);
            }
            let Some(name) = token.strip_prefix("--") else {
                args.positional.push(token.to_string());
                continue;
            };
            let Some(flag) = form.flags.iter().find(|f| f.name == name) else {
                first_err.get_or_insert(ArgError::Unknown(name.to_string()));
                continue;
            };
            let value = match flag.value {
                None => None,
                Some(placeholder) => match tokens.next_if(|t| !t.starts_with("--")) {
                    Some(v) => Some(v.to_string()),
                    None => {
                        first_err.get_or_insert(ArgError::NoValue(flag.name, placeholder));
                        continue;
                    }
                },
            };
            if args.given(flag.name) {
                first_err.get_or_insert(ArgError::Repeated(flag.name));
                continue;
            }
            args.flags.push((flag.name, value));
        }
        if let Some(err) = first_err {
            return Err(err);
        }
        let (min, max) = form.arity();
        if let Some(extra) = args.positional.get(max) {
            return Err(ArgError::Unexpected(extra.clone()));
        }
        if args.positional.len() < min {
            return Err(ArgError::Operands(form.command, form.operands));
        }
        match form
            .flags
            .iter()
            .find(|f| f.required && !args.given(f.name))
        {
            Some(flag) => Err(ArgError::Missing(flag.name.to_string())),
            None => Ok(Some(args)),
        }
    }

    /// Whether `--{name}` was given, as a switch or with a value.
    fn given(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// A string flag, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| *n == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A required string flag.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.get(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// A typed flag, if present.
    pub fn get_as<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ArgError> {
        self.get(key)
            .map(|v| {
                v.parse().map_err(|_| {
                    ArgError::Invalid(key.into(), v.into(), std::any::type_name::<T>())
                })
            })
            .transpose()
    }

    /// A typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_as(key)?.unwrap_or(default))
    }

    /// A required typed flag.
    pub fn require_as<T: std::str::FromStr>(&self, key: &str) -> Result<T, ArgError> {
        self.get_as(key)?
            .ok_or_else(|| ArgError::Missing(key.into()))
    }

    /// Whether a valueless switch was passed.
    pub fn switch(&self, key: &str) -> bool {
        self.flags.iter().any(|(n, v)| *n == key && v.is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    static FORM: Form = Form {
        command: "test",
        binary: None,
        operands: "[FILE]",
        summary: "a form for the parser's tests",
        about: "",
        flags: &[
            Flag::value("eps", "E", "radius"),
            Flag::value("sites", "K", "site count"),
            Flag::value("out", "FILE", "output"),
            Flag::switch("verbose", "talk more"),
        ],
    };

    static STRICT: Form = Form {
        command: "strict",
        binary: None,
        operands: "",
        summary: "a form with a required flag and no operands",
        about: "",
        flags: &[
            Flag::required("eps", "E", "radius"),
            Flag::switch("trace", "print the trace"),
        ],
    };

    fn parse(form: &'static Form, raw: &[&str]) -> Result<Args, ArgError> {
        Args::parse(raw, form).map(|a| a.expect("no --help in the tokens"))
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = parse(&FORM, &["input.csv", "--eps", "1.5", "--sites", "4"]).unwrap();
        assert_eq!(a.positional(), &["input.csv".to_string()]);
        assert_eq!(a.get("eps"), Some("1.5"));
        assert_eq!(a.require_as::<usize>("sites").unwrap(), 4);
        assert_eq!(a.get_or("out", "default".to_string()).unwrap(), "default");
    }

    #[test]
    fn unknown_flag_rejected() {
        let err = parse(&FORM, &["--nope", "1"]).unwrap_err();
        assert_eq!(err, ArgError::Unknown("nope".into()));
    }

    #[test]
    fn missing_required() {
        let a = parse(&FORM, &["x"]).unwrap();
        assert_eq!(
            a.require("eps").unwrap_err(),
            ArgError::Missing("eps".into())
        );
        // A required row is enforced by the parse itself.
        assert_eq!(
            parse(&STRICT, &["--trace"]).unwrap_err(),
            ArgError::Missing("eps".into())
        );
    }

    #[test]
    fn invalid_typed_value() {
        let a = parse(&FORM, &["--eps", "abc"]).unwrap();
        assert!(matches!(
            a.require_as::<f64>("eps").unwrap_err(),
            ArgError::Invalid(..)
        ));
    }

    #[test]
    fn switches() {
        let a = parse(&FORM, &["--verbose", "--eps", "1.0"]).unwrap();
        assert!(a.switch("verbose"));
        assert!(!a.switch("eps")); // has a value, not a switch
        assert_eq!(a.get_or("sites", 2).unwrap(), 2);
    }

    #[test]
    fn trailing_switch() {
        let a = parse(&FORM, &["--eps", "1.0", "--verbose"]).unwrap();
        assert!(a.switch("verbose"));
    }

    #[test]
    fn value_flags_need_their_value() {
        for raw in [&["--eps"][..], &["--eps", "--verbose"]] {
            assert_eq!(
                parse(&FORM, raw).unwrap_err(),
                ArgError::NoValue("eps", "E")
            );
        }
        // A value may start with a single dash.
        let a = parse(&FORM, &["--eps", "-3"]).unwrap();
        assert_eq!(a.get("eps"), Some("-3"));
    }

    #[test]
    fn repeats_and_stray_words_rejected() {
        assert_eq!(
            parse(&FORM, &["--eps", "1", "--eps", "2"]).unwrap_err(),
            ArgError::Repeated("eps")
        );
        // A switch takes no value: the word after it is a positional.
        assert_eq!(
            parse(&STRICT, &["--eps", "1", "--trace", "yes"]).unwrap_err(),
            ArgError::Unexpected("yes".into())
        );
        assert_eq!(
            parse(&FORM, &["a", "b"]).unwrap_err(),
            ArgError::Unexpected("b".into())
        );
    }

    #[test]
    fn help_wins_wherever_a_flag_may_stand() {
        for raw in [
            &["--help"][..],
            &["-h"],
            &["--nope", "--help"],
            &["--eps", "--help"],
        ] {
            assert!(Args::parse(raw, &STRICT).unwrap().is_none(), "{raw:?}");
        }
        // In a value's place, `-h` is the value.
        let a = parse(&FORM, &["--out", "-h"]).unwrap();
        assert_eq!(a.get("out"), Some("-h"));
    }

    #[test]
    fn arity_follows_the_operands() {
        let form = |operands| Form { operands, ..STRICT };
        assert_eq!(form("").arity(), (0, 0));
        assert_eq!(form("OLD NEW").arity(), (2, 2));
        assert_eq!(form("[FILE]").arity(), (0, 1));
        assert_eq!(form("SERVER [SITE...]").arity(), (1, usize::MAX));
    }

    #[test]
    fn usage_lists_every_row() {
        let usage = STRICT.usage();
        assert!(
            usage.contains("usage: dbdc-cli strict --eps E [options]"),
            "{usage}"
        );
        for needle in ["--eps E", "radius", "--trace", "print the trace", "--help"] {
            assert!(usage.contains(needle), "{needle}: {usage}");
        }
    }

    /// One token of a random command line: a row of [`FORM`], `--help`,
    /// an unknown flag, a bare word or a dash-led value.
    fn token() -> impl Strategy<Value = String> {
        (0usize..10, 0usize..4).prop_map(|(kind, pick)| match kind {
            0..=4 => format!("--{}", FORM.flags[pick].name),
            5 => ["--help", "-h", "--", "--nope"][pick].to_string(),
            6 | 7 => ["1.5", "x.csv", "yes", "4"][pick].to_string(),
            _ => ["-3", "-1", "-x", "-0.5"][pick].to_string(),
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn parse_never_panics_and_accepts_only_well_formed_lines(
            raw in prop::collection::vec(token(), 0..12),
        ) {
            let is_value_flag = |t: &str| {
                FORM.flags
                    .iter()
                    .any(|f| f.value.is_some() && t.strip_prefix("--") == Some(f.name))
            };
            let args = match Args::parse(&raw, &FORM) {
                Ok(Some(args)) => args,
                Ok(None) => {
                    prop_assert!(raw.iter().any(|t| t == "--help" || t == "-h"), "{raw:?}");
                    return Ok(());
                }
                Err(_) => return Ok(()),
            };
            // An accepted line asks for no help: `-h` only as a value.
            for (i, t) in raw.iter().enumerate() {
                prop_assert!(t != "--help", "{raw:?}");
                prop_assert!(t != "-h" || (i > 0 && is_value_flag(&raw[i - 1])), "{raw:?}");
            }
            for (i, (name, value)) in args.flags.iter().enumerate() {
                prop_assert!(
                    args.flags[..i].iter().all(|(n, _)| n != name),
                    "--{name} held twice: {raw:?}"
                );
                let row = FORM.flags.iter().find(|f| f.name == *name);
                prop_assert!(row.is_some(), "--{name} is no row: {raw:?}");
                prop_assert_eq!(
                    row.unwrap().value.is_some(),
                    value.is_some(),
                    "--{} value {:?}: {:?}",
                    name,
                    value,
                    raw
                );
            }
            prop_assert!(args.positional.len() <= 1, "{raw:?}");
        }
    }
}
