//! `dbdc-server` — the DBDC server half over real TCP. A thin wrapper
//! around the same code as `dbdc-cli serve`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    dbdc_cli::run_form(&dbdc_cli::flags::SERVE, &raw, dbdc_cli::netcmd::cmd_serve)
}
