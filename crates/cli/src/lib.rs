//! Shared plumbing of the DBDC command-line tools.
//!
//! Three binaries are built on this library: `dbdc-cli` (the original
//! single-process driver), and the networked pair `dbdc-server` /
//! `dbdc-site` ([`netcmd`]), which run the same protocol over real TCP
//! via [`dbdc_net`]. Every command form's flags live in one table in
//! [`flags`].

pub mod args;
pub mod csv;
// A table is read down its rows; rustfmt would spread each over five lines.
#[rustfmt::skip]
pub mod flags;
pub mod netcmd;
pub mod opts;

use args::{wrap, Args, Form};
use opts::Command;
use std::process::ExitCode;

/// `dbdc-cli --help`: each form's synopsis and summary.
pub fn overview<'a>(forms: impl IntoIterator<Item = &'a Form>) -> String {
    let mut out = String::from(
        "dbdc-cli — Density Based Distributed Clustering (EDBT 2004)\n\n\
         usage: dbdc-cli COMMAND [flags]\n\
         \x20      dbdc-cli COMMAND --help   lists the command's flags\n\n\
         commands:\n",
    );
    for form in forms {
        let also = form.binary.map(|b| format!(" (also built as {b})"));
        let summary = format!("{}{}", form.summary, also.unwrap_or_default());
        let summary = wrap(&summary, 74).join("\n      ");
        out.push_str(&format!(
            "  {} {}\n      {summary}\n",
            form.command,
            form.synopsis()
        ));
    }
    out
}

/// Parses `raw` against `form` and runs `cmd` on the result: `--help`
/// prints the form's usage and exits 0, an error is printed and exits 1.
pub fn run_form(form: &'static Form, raw: &[String], cmd: Command) -> ExitCode {
    let result = match Args::parse(raw, form) {
        Ok(Some(args)) => cmd(&args),
        Ok(None) => {
            print!("{}", form.usage());
            Ok(())
        }
        Err(e) => Err(e.into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
