//! `dbdc-site` — one DBDC client site over real TCP. A thin wrapper
//! around the same code as `dbdc-cli site`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    dbdc_cli::run_form(&dbdc_cli::flags::SITE, &raw, dbdc_cli::netcmd::cmd_site)
}
